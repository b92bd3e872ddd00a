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

Images can grow exponentially in the word length, so the images of all n
generators together may hold at most MAX_SYLLABLES syllables; past that
every entry point raises ResourceLimitError instead of thrashing.
"""

from __future__ import annotations

from .braidword import BraidWord, check_same_strands
from .errors import ResourceLimitError

Syllable = tuple[int, int]  # (generator 1..n, exponent +1 or -1)

# the syllables all n images may hold together; the n starting images fit,
# as a BraidWord holds at most gbase.MAX_TEXT_STRANDS strands
MAX_SYLLABLES = 1_000_000


def _product(first: str, second: str) -> str:
    """Free product of two reduced words: cancel at the junction."""
    k = 0
    limit = min(len(first), len(second))
    while k < limit and ord(first[-1 - k]) ^ ord(second[k]) == 1:
        k += 1
    return first[: len(first) - k] + second[k:]


def _images(word: BraidWord) -> list[str]:
    """Images of x_1..x_n under the whole word, freely reduced.

    An image is a str with one character per syllable: x_g^e is chr(2g) for
    e = +1 and chr(2g + 1) for e = -1, so inverting a syllable flips the low
    bit of its code and inverting an image reverses it and flips every code.
    With A_j the action of letters j..L, A_j = A_{j+1} o phi_j, so one pass
    over the letters from last to first builds all n images at once, each
    step recombining whole images: for sigma_i, A(x_i) becomes
    A(x_i) A(x_{i+1}) A(x_i)^-1 and A(x_{i+1}) the old A(x_i); for its
    inverse, A(x_i) becomes the old A(x_{i+1}) and A(x_{i+1}) becomes
    A(x_{i+1})^-1 A(x_i) A(x_{i+1}). Both factors are reduced, so free
    cancellation happens only at the junctions.

    Raises ResourceLimitError once the n images under a suffix of the word
    hold more than MAX_SYLLABLES between them.
    """
    n = word.strand_count
    flip = "".join(chr(c ^ 1) for c in range(2 * n + 2))  # flip[c] is code c ^ 1
    images = [chr(2 * g) for g in range(1, n + 1)]
    total = n
    for letter in reversed(word.letters):
        i = letter.index - 1
        here, right = images[i], images[i + 1]
        if letter.sign > 0:
            grown = _product(_product(here, right), here[::-1].translate(flip))
            images[i], images[i + 1] = grown, here
            total += len(grown) - len(right)
        else:
            grown = _product(_product(right[::-1].translate(flip), here), right)
            images[i], images[i + 1] = right, grown
            total += len(grown) - len(here)
        if total > MAX_SYLLABLES:
            raise ResourceLimitError(f"oracle images exceeded {MAX_SYLLABLES} syllables in total")
    return images


def word_image(word: BraidWord, gen: int) -> tuple[Syllable, ...]:
    """Image of x_gen under the whole word, its letters acting left to right,
    freely reduced, as its syllables. _images builds it with the images of
    all other generators, so MAX_SYLLABLES bounds them all together."""
    if not 1 <= gen <= word.strand_count:
        raise ValueError(f"generator {gen} out of range for {word.strand_count} strands")
    image = _images(word)[gen - 1]
    return tuple((c >> 1, -1 if c & 1 else 1) for c in map(ord, image))


def oracle_equal(first: BraidWord, second: BraidWord) -> bool:
    """True iff both words act identically on every free-group generator;
    mismatched strand counts raise MalformedWordError."""
    check_same_strands(first, second)
    return _images(first) == _images(second)
