"""Fixed 64-bit generator for reproducible benchmark workloads.

The benchmark must emit the same words for the same flags on any machine and
in any reimplementation, so it cannot rely on a host language's random
module. This is the splitmix-style sequence: the state advances by the
constant 0x9E3779B97F4A7C15 and each output is the finalizer

    z  = state
    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

with all arithmetic modulo 2**64. Bounded draws use plain remainder
(`value % bound`); the bias for the tiny bounds used here is negligible and
the rule is trivial to replicate.
"""

from __future__ import annotations

from .braidword import BraidWord, Letter

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_uint64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def next_below(self, bound: int) -> int:
        if bound < 1:
            raise ValueError(f"bound must be >= 1, got {bound}")
        return self.next_uint64() % bound


def random_word(strand_count: int, length: int, stream: SplitMix64) -> BraidWord:
    """Uniform word of the given length over the 2(n-1) signed generators;
    next_below refuses a draw over 1 strand, which has none."""
    choices = 2 * (strand_count - 1)
    letters = []
    for _ in range(length):
        draw = stream.next_below(choices)
        if draw < strand_count - 1:
            letters.append(Letter(draw + 1, 1))
        else:
            letters.append(Letter(draw - (strand_count - 1) + 1, -1))
    return BraidWord(strand_count, tuple(letters))
