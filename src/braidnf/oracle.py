"""Independent equality check through the braid action on a free group.

Braid words act faithfully as automorphisms of the free group on generators
x_1..x_n (one per puncture), so two words over the same strand count are
equal exactly when their automorphisms send every generator to the same
freely reduced word (Artin, Theorie der Zoepfe, 1925). Letter by letter the
action is the standard substitution

    sigma_i:         x_i -> x_i x_{i+1} x_i^-1,   x_{i+1} -> x_i
    sigma_i inverse: x_i -> x_{i+1},              x_{i+1} -> x_{i+1}^-1 x_i x_{i+1}

with all other generators fixed. The letters act left to right, so the image
under a word w = l_1 ... l_L is phi_L(...phi_1(x)...). By the same theorem a
braid sends each generator to a conjugate of a generator, so an image is
held as a conjugator W and a generator c: the reduced image is W c W^-1,
with W reduced and not ending in c^+-1. One pass over the letters from last
to first updates the n pairs, each letter with one common-prefix scan.
Loop-orientation conventions differ between this action and the g-base
engine, which is fine: equality verdicts are convention independent, so the
oracle certifies verdicts, never link lists.

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


def _common_prefix(first: str, second: str) -> int:
    """Length of the common prefix, bisected with slice comparisons; most
    conjugator pairs share all of the shorter one, so that is probed first."""
    low, high = 0, min(len(first), len(second))
    probe = high
    while low < high:
        if first[low:probe] == second[low:probe]:
            low = probe
        else:
            high = probe - 1
        probe = (low + high + 1) // 2
    return low


def _images(word: BraidWord) -> tuple[list[str], list[str]]:
    """Conjugators W and generators c of the images W c W^-1 of x_1..x_n.

    A syllable is one character: x_g^e is chr(2g) for e = +1 and chr(2g + 1)
    for e = -1, so inverting a word reverses it and flips each code's low
    bit. With A_j the action of letters j..L, A_j = A_{j+1} o phi_j. For
    sigma_i^s let (p, q, y) = (i, i+1, c_i) if s = +1 and (i+1, i, c_{i+1}^-1)
    if s = -1: the new A(x_p) is V c_q V^-1, V = W_p y W_p^-1 W_q reduced,
    and the new A(x_q) the old A(x_p). Past t, the common prefix of W_p and
    W_q, V is reduced as written, unless W_p is a prefix of W_q and W_q[t]
    is y^-1; then it cancels at the one junction of W_p and W_q[t+1:].

    Raises ResourceLimitError once the n images under a suffix of the word
    hold more than MAX_SYLLABLES between them.
    """
    n = word.strand_count
    flip = "".join(chr(c ^ 1) for c in range(2 * n + 2))  # flip[c] is code c ^ 1
    conjugators = [""] * n
    generators = [chr(2 * g) for g in range(1, n + 1)]
    total = n  # the syllables of all images, 2|W| + 1 each
    for letter in reversed(word.letters):
        i = letter.index - 1
        p, q = (i, i + 1) if letter.sign > 0 else (i + 1, i)
        y = generators[p] if letter.sign > 0 else flip[ord(generators[p])]
        here, there = conjugators[p], conjugators[q]
        t = _common_prefix(here, there)
        if t < len(here):
            grown = here + y + here[t:][::-1].translate(flip) + there[t:]
        elif there[t:t + 1] != flip[ord(y)]:
            grown = here + y + there[t:]
        else:
            rest = there[t + 1:]
            k = _common_prefix(here[::-1].translate(flip), rest)
            grown = here[: len(here) - k] + rest[k:]
        c = generators[q]
        grown = grown.rstrip(c + flip[ord(c)])  # V c V^-1 cancels any c^+-1 ending V
        conjugators[p], conjugators[q] = grown, here
        generators[p], generators[q] = c, generators[p]
        total += 2 * (len(grown) - len(there))
        if total > MAX_SYLLABLES:
            raise ResourceLimitError(f"oracle images exceeded {MAX_SYLLABLES} syllables in total")
    return conjugators, generators


def word_image(word: BraidWord, gen: int) -> tuple[Syllable, ...]:
    """Image of x_gen under the whole word, its letters acting left to right,
    freely reduced, as its syllables. _images builds it with the images of
    all other generators, so MAX_SYLLABLES bounds them all together."""
    if not 1 <= gen <= word.strand_count:
        raise ValueError(f"generator {gen} out of range for {word.strand_count} strands")
    conjugators, generators = _images(word)
    conjugator = [ord(s) for s in conjugators[gen - 1]]
    codes = conjugator + [ord(generators[gen - 1])] + [c ^ 1 for c in reversed(conjugator)]
    return tuple((c >> 1, -1 if c & 1 else 1) for c in codes)


def oracle_equal(first: BraidWord, second: BraidWord) -> bool:
    """True iff both words act identically on every free-group generator;
    mismatched strand counts raise MalformedWordError. An image determines
    its conjugator and generator, so the pairs are compared unexpanded."""
    check_same_strands(first, second)
    return _images(first) == _images(second)
