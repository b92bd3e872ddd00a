"""Braid words over n strands: data model, text format, elementary operations.

A word is a sequence of letters, each a generator index i (1 <= i <= n-1)
with a sign. The text format is a whitespace-separated list of nonzero
integers: "1 -2 1 3" means the first generator, the inverse of the second,
the first again, the third. The empty string is the empty word.
"""

from __future__ import annotations

import dataclasses
import re
from typing import NamedTuple

from .errors import MalformedWordError
from .gbase import check_strand_count


class Letter(NamedTuple):
    index: int  # generator subscript, 1 <= index <= n-1
    sign: int   # +1 or -1

    def inverse(self) -> Letter:
        return Letter(self.index, -self.sign)


@dataclasses.dataclass(frozen=True)
class BraidWord:
    strand_count: int
    letters: tuple[Letter, ...]

    def __post_init__(self):
        if self.strand_count < 1:
            raise MalformedWordError(f"strand count must be >= 1, got {self.strand_count}")
        check_strand_count(self.strand_count)  # ResourceLimitError past MAX_TEXT_STRANDS
        for k, letter in enumerate(self.letters):
            if letter.sign not in (1, -1):
                raise MalformedWordError(f"letter {k}: sign must be +1 or -1, got {letter.sign}")
            if not 1 <= letter.index <= self.strand_count - 1:
                raise MalformedWordError(
                    f"letter {k}: generator index {letter.index} out of range for "
                    f"{self.strand_count} strands"
                )

    def __len__(self) -> int:
        return len(self.letters)


# ASCII digits only: int() would also take "1_0" and other scripts' digits
_INTEGER = re.compile(r"[+-]?[0-9]+")


def parse_word(text: str, strand_count: int) -> BraidWord:
    """Parse whitespace-separated signed generator indices; blank text is the empty word."""
    letters = []
    for token in text.split():
        if _INTEGER.fullmatch(token) is None:
            raise MalformedWordError(f"token {token!r} is not an integer")
        try:
            value = int(token)
        except ValueError:  # past the interpreter's limit on digits per int
            raise MalformedWordError(
                f"token of {len(token)} characters starting {token[:10]!r}: too many digits"
            ) from None
        letters.append(Letter(abs(value), 1 if value > 0 else -1))
    return BraidWord(strand_count, tuple(letters))  # checks each letter's index


def format_word(word: BraidWord) -> str:
    """Inverse of parse_word; single spaces, empty word formats to the empty string."""
    return " ".join(str(letter.index * letter.sign) for letter in word.letters)


def inverse(word: BraidWord) -> BraidWord:
    """Group inverse: letters reversed, signs flipped."""
    return BraidWord(word.strand_count, tuple(l.inverse() for l in reversed(word.letters)))


def check_same_strands(first: BraidWord, second: BraidWord) -> None:
    """Raise MalformedWordError unless both words are over one strand count."""
    if first.strand_count != second.strand_count:
        raise MalformedWordError(
            f"cannot combine words over {first.strand_count} and {second.strand_count} strands"
        )


def concat(first: BraidWord, second: BraidWord) -> BraidWord:
    check_same_strands(first, second)
    return BraidWord(first.strand_count, first.letters + second.letters)


def permutation_of_word(word: BraidWord) -> tuple[int, ...]:
    """Puncture permutation induced by the word, as the tuple (image of 1, ..., image of n).

    Each letter contributes the transposition (i, i+1) regardless of its sign;
    transpositions compose left to right. A table of where each value sits in
    the image makes every letter one swap, so the cost is O(n + L).
    """
    image = list(range(1, word.strand_count + 1))
    where = list(range(-1, word.strand_count))  # where[v] = p with image[p] == v
    for letter in word.letters:
        i = letter.index
        p, q = where[i], where[i + 1]
        image[p], image[q] = i + 1, i
        where[i], where[i + 1] = q, p
    return tuple(image)
