"""Seeded inputs for the benchmark workloads.

The words come from the benchmark's own copy of the splitmix scheme the
README documents, not from `braidnf.prng`, so no change to the library can
alter what the benchmark feeds it. A master stream over the workload seed
yields one sub-seed per request, and each request draws from its own stream
over that sub-seed, as `braidnf bench` does. Words are handed over as text in
the CLI format ("1 -2 3"); this module imports nothing from `braidnf`.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

DEFAULT_SEED = 20260808


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
        return self.next_uint64() % bound


def random_word(strand_count: int, length: int, stream: SplitMix64) -> list[int]:
    """Uniform word over the 2(n-1) signed generators, as signed indices.

    Draw d < n-1 is generator d+1, any other draw the inverse of generator
    d-(n-1)+1: the README's scheme, letter for letter.
    """
    half = strand_count - 1
    word = []
    for _ in range(length):
        draw = stream.next_below(2 * half)
        word.append(draw + 1 if draw < half else -(draw - half + 1))
    return word


def permutation(strand_count: int, word: list[int]) -> tuple[int, ...]:
    """Puncture permutation of a word: each letter swaps i and i+1, whatever its sign."""
    image = list(range(1, strand_count + 1))
    for letter in word:
        i = abs(letter)
        image = [i + 1 if v == i else i if v == i + 1 else v for v in image]
    return tuple(image)


def rewrite(word: list[int], stream: SplitMix64, attempts: int) -> list[int]:
    """An equal word, reached by random commutation and braid-relation moves.

    Each attempt picks a position k. Letters on generators at least two
    apart commute, so they swap. A triple a b a with |a| and |b| adjacent
    and one sign throughout is replaced by b a b, which is the braid relation
    or its inverse. Other positions are left alone. Both moves keep the
    length and the permutation.
    """
    out = list(word)
    if len(out) < 2:
        return out
    for _ in range(attempts):
        k = stream.next_below(len(out) - 1)
        a, b = out[k], out[k + 1]
        if abs(abs(a) - abs(b)) >= 2:
            out[k], out[k + 1] = b, a
        elif (
            k + 2 < len(out)
            and out[k + 2] == a
            and abs(abs(a) - abs(b)) == 1
            and (a > 0) == (b > 0)
        ):
            out[k : k + 3] = [b, a, b]
    return out


def flip_one_sign(word: list[int], stream: SplitMix64) -> list[int]:
    """The word with one letter inverted: same permutation, never the same braid."""
    out = list(word)
    k = stream.next_below(len(out))
    out[k] = -out[k]
    return out


def independent_word(
    strand_count: int, word: list[int], stream: SplitMix64
) -> list[int]:
    """A fresh uniform word of the same length whose permutation differs."""
    target = permutation(strand_count, word)
    while True:
        other = random_word(strand_count, len(word), stream)
        if permutation(strand_count, other) != target:
            return other


def word_text(word: list[int]) -> str:
    return " ".join(str(letter) for letter in word)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    strands: int
    length: int


# Why each workload exists is in README.md next to this file.
WORKLOADS = {
    w.name: w
    for w in (Workload("tangle", 4, 64), Workload("wide", 80, 256), Workload("verdict", 8, 48))
}

PAIR_KINDS = ("rewrite", "flip", "independent")


@dataclasses.dataclass(frozen=True)
class Request:
    """One request: a word, or a pair of words with the known verdict."""

    word: str
    other: str | None = None
    kind: str | None = None
    expected: bool | None = None


def requests(workload: Workload, seed: int) -> Iterator[Request]:
    """The endless request stream of a workload; the same seed gives the same stream.

    `verdict` cycles through the three pair kinds, so each has a third of
    the requests.
    """
    master = SplitMix64(seed)
    count = 0
    while True:
        stream = SplitMix64(master.next_uint64())
        word = random_word(workload.strands, workload.length, stream)
        if workload.name != "verdict":
            yield Request(word_text(word))
        else:
            kind = PAIR_KINDS[count % len(PAIR_KINDS)]
            if kind == "rewrite":
                other, expected = rewrite(word, stream, 4 * len(word)), True
            elif kind == "flip":
                other, expected = flip_one_sign(word, stream), False
            else:
                other, expected = independent_word(workload.strands, word, stream), False
            yield Request(word_text(word), word_text(other), kind, expected)
        count += 1
