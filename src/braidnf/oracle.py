"""Independent equality check through the braid action on a free group.

Braid words act faithfully as automorphisms of the free group on generators
x_1..x_n (one per puncture), so two words over the same strand count are
equal exactly when their automorphisms send every generator to the same
freely reduced word. The generator images use the standard substitution

    sigma_i:         x_i -> x_i x_{i+1} x_i^-1,   x_{i+1} -> x_i
    sigma_i inverse: x_i -> x_{i+1},              x_{i+1} -> x_{i+1}^-1 x_i x_{i+1}

with all other generators fixed. Loop-orientation conventions differ between
this action and the g-base engine, which is fine: equality verdicts are
convention independent, so the oracle certifies verdicts, never link lists.

Images can grow exponentially in the word length, so every entry point takes
a syllable ceiling and raises ResourceLimitError instead of thrashing.
"""

from __future__ import annotations

import dataclasses

from .braidword import BraidWord, Letter
from .errors import ResourceLimitError

Syllable = tuple[int, int]  # (generator 1..n, exponent +1 or -1)

DEFAULT_MAX_SYLLABLES = 1_000_000


@dataclasses.dataclass(frozen=True)
class FreeWord:
    syllables: tuple[Syllable, ...]

    def __post_init__(self):
        for k, (gen, exp) in enumerate(self.syllables):
            if gen < 1 or exp not in (1, -1):
                raise ValueError(f"syllable {k}: bad (generator, exponent) {(gen, exp)}")
            if k and self.syllables[k - 1] == (gen, -exp):
                raise ValueError(f"syllable {k}: word is not freely reduced")

    def __len__(self) -> int:
        return len(self.syllables)


def _letter_image_syllables(letter: Letter, gen: int) -> tuple[Syllable, ...]:
    i = letter.index
    if letter.sign > 0:
        if gen == i:
            return ((i, 1), (i + 1, 1), (i, -1))
        if gen == i + 1:
            return ((i, 1),)
    else:
        if gen == i:
            return ((i + 1, 1),)
        if gen == i + 1:
            return ((i + 1, -1), (i, 1), (i + 1, 1))
    return ((gen, 1),)


def word_image(
    word: BraidWord, gen: int, max_syllables: int = DEFAULT_MAX_SYLLABLES
) -> FreeWord:
    """Image of x_gen under the whole word, substituting letter by letter.

    Letters apply left to right: the image so far is rewritten through each
    next letter's substitution and freely reduced as it is built.
    """
    if not 1 <= gen <= word.strand_count:
        raise ValueError(f"generator {gen} out of range for {word.strand_count} strands")
    image: list[Syllable] = [(gen, 1)]
    for letter in word.letters:
        out: list[Syllable] = []
        for g, e in image:
            target = _letter_image_syllables(letter, g)
            if e < 0:
                target = tuple((h, -f) for h, f in reversed(target))
            for syllable in target:
                if out and out[-1] == (syllable[0], -syllable[1]):
                    out.pop()
                else:
                    out.append(syllable)
            if len(out) > max_syllables:
                raise ResourceLimitError(
                    f"oracle image exceeded {max_syllables} syllables"
                )
        image = out
    return FreeWord(tuple(image))


def oracle_equal(
    first: BraidWord, second: BraidWord, max_syllables: int = DEFAULT_MAX_SYLLABLES
) -> bool:
    """True iff both words act identically on every free-group generator."""
    if first.strand_count != second.strand_count:
        raise ValueError(
            f"cannot compare words over {first.strand_count} and "
            f"{second.strand_count} strands"
        )
    return all(
        word_image(first, gen, max_syllables) == word_image(second, gen, max_syllables)
        for gen in range(1, first.strand_count + 1)
    )
