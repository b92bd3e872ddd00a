"""Independent equality check through the braid action on a free group.

Braid words act faithfully as automorphisms of the free group on generators
x_1..x_n (one per puncture), so two words over the same strand count are
equal exactly when their automorphisms send every generator to the same
freely reduced word (Artin, Theorie der Zoepfe, 1925). Letter by letter the
action is the standard substitution

    sigma_i:         x_i -> x_i x_{i+1} x_i^-1,   x_{i+1} -> x_i
    sigma_i inverse: x_i -> x_{i+1},              x_{i+1} -> x_{i+1}^-1 x_i x_{i+1}

with all other generators fixed. The letters act left to right, so the image
under a word w = l_1 ... l_L is phi_L(...phi_1(x)...), with each phi applied
to every syllable. The images are built the other way round, in one pass over
the letters from last to first that keeps the images of all n generators and
joins whole images at each letter; only the order of evaluation differs from
substituting letter by letter. Loop-orientation conventions differ between
this action and the g-base engine, which is fine: equality verdicts are
convention independent, so the oracle certifies verdicts, never link lists.

Images can grow exponentially in the word length, so every entry point takes
a syllable ceiling and raises ResourceLimitError instead of thrashing.
"""

from __future__ import annotations

import dataclasses

from .braidword import BraidWord
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


def _product(first: list[int], second: list[int]) -> list[int]:
    """Free product of two reduced words as signed generators: cancel at the junction."""
    k = 0
    limit = min(len(first), len(second))
    while k < limit and first[-1 - k] == -second[k]:
        k += 1
    return first[: len(first) - k] + second[k:]


def _inverse(word: list[int]) -> list[int]:
    return [-g for g in reversed(word)]


def _images(word: BraidWord, max_syllables: int) -> list[list[int]]:
    """Images of x_1..x_n under the whole word, freely reduced, as signed generators.

    With A_j the action of letters j..L, A_j = A_{j+1} o phi_j, so one pass
    over the letters from last to first builds all n images at once, each
    step recombining whole images: for sigma_i, A(x_i) becomes
    A(x_i) A(x_{i+1}) A(x_i)^-1 and A(x_{i+1}) the old A(x_i); for its
    inverse, A(x_i) becomes the old A(x_{i+1}) and A(x_{i+1}) becomes
    A(x_{i+1})^-1 A(x_i) A(x_{i+1}). Both factors are reduced, so free
    cancellation happens only at the junctions. Raises ResourceLimitError
    once any image under a suffix of the word exceeds max_syllables, and
    before anything is built when the n starting images, which hold n
    syllables between them, already do.
    """
    if word.strand_count > max_syllables:
        raise ResourceLimitError(
            f"{word.strand_count} oracle starting images exceed {max_syllables} syllables"
        )
    images = [[g] for g in range(1, word.strand_count + 1)]
    for letter in reversed(word.letters):
        i = letter.index - 1
        here, right = images[i], images[i + 1]
        if letter.sign > 0:
            grown = _product(_product(here, right), _inverse(here))
            images[i], images[i + 1] = grown, here
        else:
            grown = _product(_product(_inverse(right), here), right)
            images[i], images[i + 1] = right, grown
        if len(grown) > max_syllables:
            raise ResourceLimitError(f"oracle image exceeded {max_syllables} syllables")
    return images


def word_image(
    word: BraidWord, gen: int, max_syllables: int = DEFAULT_MAX_SYLLABLES
) -> FreeWord:
    """Image of x_gen under the whole word, freely reduced.

    The letters act left to right: the image of x_gen under the first letter
    is rewritten through the second, and so on. It is computed, with the
    images of all other generators, in one pass over the letters from last
    to first (see _images), so the ceiling applies to every generator's
    image under every suffix of the word.
    """
    if not 1 <= gen <= word.strand_count:
        raise ValueError(f"generator {gen} out of range for {word.strand_count} strands")
    image = _images(word, max_syllables)[gen - 1]
    return FreeWord(tuple((abs(g), 1 if g > 0 else -1) for g in image))


def oracle_equal(
    first: BraidWord, second: BraidWord, max_syllables: int = DEFAULT_MAX_SYLLABLES
) -> bool:
    """True iff both words act identically on every free-group generator."""
    if first.strand_count != second.strand_count:
        raise ValueError(
            f"cannot compare words over {first.strand_count} and "
            f"{second.strand_count} strands"
        )
    return _images(first, max_syllables) == _images(second, max_syllables)
