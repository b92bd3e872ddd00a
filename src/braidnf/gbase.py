"""Link-list encoding of g-bases of the punctured disk.

A g-base is an ordered free basis of the fundamental group of a disk with n
punctures, one loop per puncture, all attached at a basepoint on the boundary.
Each loop's path is encoded as a run of links (point, position): position +1
means "passes just above puncture `point`", -1 "just below", 0 "ends at".
The basepoint is written (-1, 0) and doubles as the separator between the n
paths; the whole g-base is one flat list that starts and ends with a
separator.

Each link packs into one int,

    code = 3 * (point + 1) + (position + 1),

so the separator is code 1, and GBaseWord stores the list as its text: a str
with the character chr(code) per link. The twist/reduce engine works on that
text directly; link_code and code_link are the only conversions, and Link
tuples are built only on demand (the links property and error messages).
One character per code caps the strand count at MAX_TEXT_STRANDS, which
BraidWord, GBaseWord and standard_gbase enforce.

Conventions that make the encoding canonical:
  * a path never leaves the basepoint through a below-pass, so a separator is
    never directly followed by a (j, -1) link in reduced lists;
  * points 0 and n+1 do not exist in the disk; they are sentinels the twist
    engine may create next to a separator, always with position -1, and the
    reducer always deletes them.
"""

from __future__ import annotations

import dataclasses
import re
import sys
from typing import Callable, NamedTuple

from .errors import MalformedGBaseError, ResourceLimitError


class Link(NamedTuple):
    point: int     # -1 for the basepoint, else 0..n+1 (0 and n+1 are virtual)
    position: int  # +1 above, -1 below, 0 endpoint/basepoint

    def __str__(self) -> str:
        return f"({self.point},{self.position})"


def link_code(point: int, position: int) -> int:
    """Packed code of the link (point, position); position must be -1, 0 or +1."""
    return 3 * (point + 1) + position + 1


def code_link(code: int) -> Link:
    """The link a packed code stands for; inverse of link_code."""
    return Link(code // 3 - 1, code % 3 - 1)


SEPARATOR_CODE = link_code(-1, 0)

# the largest code a list over n strands holds, 3 * (n + 2) for a below-pass
# at the virtual point n + 1, must be a character: at most sys.maxunicode
MAX_TEXT_STRANDS = sys.maxunicode // 3 - 2

# links a list may hold after any letter of solver.process_word: above the
# standard g-base's 2 * MAX_TEXT_STRANDS + 1 and the test suite's longest
# list (777,215); a refused word peaks at a few hundred MB, a few seconds in
MAX_LINKS = 10_000_000

# links solver.process_word may visit over a word, its TwistStats'
# links_visited plus reduce_links_visited: MAX_LINKS bounds memory, this
# bounds time; above the test suite's heaviest word (16,997,337), and
# sigma_1^k at n=2 is refused near k = 5,000 after a few seconds
MAX_VISITS = 100_000_000


def check_strand_count(strand_count: int) -> None:
    """Raise MalformedGBaseError below 1 strand and ResourceLimitError above
    MAX_TEXT_STRANDS."""
    if strand_count < 1:
        raise MalformedGBaseError(f"strand count must be >= 1, got {strand_count}")
    if strand_count > MAX_TEXT_STRANDS:
        raise ResourceLimitError(f"strand count {strand_count} exceeds {MAX_TEXT_STRANDS}")


@dataclasses.dataclass(frozen=True)
class GBaseWord:
    """A g-base list over `strand_count` strands, held as `text`: one
    character chr(code) per link, so equal lists compare and hash equal."""
    strand_count: int
    text: str

    def __post_init__(self):
        check_strand_count(self.strand_count)

    def __len__(self) -> int:
        return len(self.text)

    @property
    def links(self) -> tuple[Link, ...]:
        """The list as Link tuples, built on each access."""
        return tuple(map(code_link, map(ord, self.text)))


class Violation(NamedTuple):
    index: int   # link index where the violation was detected
    reason: str

    def __str__(self) -> str:
        return f"link {self.index}: {self.reason}"


def standard_gbase(strand_count: int) -> GBaseWord:
    """The g-base of straight segments from the basepoint to each puncture.

    Straight segments approach their puncture from below; the below-passes
    they would record next to the separator are exactly what reduction rule 4
    deletes, so the reduced list is emitted directly: each path is the single
    endpoint link.
    """
    check_strand_count(strand_count)
    separator = chr(SEPARATOR_CODE)
    return GBaseWord(strand_count, separator + "".join(
        chr(link_code(point, 0)) + separator for point in range(1, strand_count + 1)
    ))


def validate(gbase: GBaseWord, reduced_expected: bool = False) -> Violation | None:
    """Check the structural invariants; return the first violation, or None.

    Structural validity (either mode): separators bookend the list and number
    n+1; every path is nonempty and contains exactly one position-0 link,
    all other links have position +-1; the endpoint points are a permutation
    of 1..n; sentinel points (0 and n+1) carry position -1 and sit directly
    after a separator. Unreduced lists may carry links after the endpoint
    (twist debris that rule 3 deletes); in reduced mode the endpoint must be
    final, and no sentinels, post-separator below-passes, (j,+-1)(j,0) pairs,
    or adjacent equal links may remain.
    """
    n = gbase.strand_count
    codes = list(map(ord, gbase.text))
    if not codes or codes[0] != SEPARATOR_CODE:
        return Violation(0, "list must start with the separator (-1,0)")
    if codes[-1] != SEPARATOR_CODE:
        return Violation(len(codes) - 1, "list must end with the separator (-1,0)")

    separators = 0
    endpoints: list[int] = []
    endpoint_seen = False
    for k, code in enumerate(codes):
        point = code // 3 - 1
        if point == -1:
            if code != SEPARATOR_CODE:
                return Violation(k, f"basepoint link must be (-1,0), got {code_link(code)}")
            if separators and not endpoint_seen:
                return Violation(k, "path has no endpoint link")
            separators += 1
            endpoint_seen = False
            continue
        if not 0 <= point <= n + 1:
            return Violation(k, f"point {point} out of range for {n} strands")
        if point == 0 or point == n + 1:
            if code % 3 != 0:
                return Violation(k, f"virtual point {point} must have position -1")
            if codes[k - 1] != SEPARATOR_CODE:
                return Violation(k, f"virtual point {point} not adjacent to a separator")
        elif code % 3 == 1:
            if endpoint_seen:
                return Violation(k, "second position-0 link in one path")
            endpoint_seen = True
            endpoints.append(point)

    if separators != n + 1:
        return Violation(len(codes) - 1, f"expected {n + 1} separators, found {separators}")
    if sorted(endpoints) != list(range(1, n + 1)):
        return Violation(len(codes) - 1, f"endpoints {endpoints} are not a permutation of 1..{n}")

    if reduced_expected:
        for k, (code, succ) in enumerate(zip(codes, codes[1:])):
            if code == SEPARATOR_CODE and succ % 3 == 0:
                return Violation(k + 1, "below-pass directly after a separator")
            if code % 3 != 1 and succ == code - code % 3 + 1:
                return Violation(
                    k, f"{code_link(code)} directly before its endpoint {code_link(succ)}"
                )
            if code == succ:
                return Violation(k, f"adjacent equal links {code_link(code)}{code_link(succ)}")
            if code % 3 == 1 and code != SEPARATOR_CODE and succ != SEPARATOR_CODE:
                return Violation(k + 1, "link between an endpoint and the next separator")
    return None


def twist_violation(gbase: GBaseWord) -> Violation | None:
    """The first reason the twist cannot take the list, or None.

    The twist takes reduced lists (validate in reduced mode), but not those
    that no word reaches: two adjacent links, neither a separator, more than
    one point apart, or a path whose first two links lie at one point. No
    rule deletes either, so reduced mode accepts them, as it must accept
    every output of reduce.
    """
    violation = validate(gbase, reduced_expected=True)
    if violation is not None:
        return violation
    codes = list(map(ord, gbase.text))
    for k, (code, succ) in enumerate(zip(codes, codes[1:])):
        if code == SEPARATOR_CODE or succ == SEPARATOR_CODE:
            continue
        if abs(code // 3 - succ // 3) > 1:
            return Violation(
                k + 1, f"{code_link(code)}{code_link(succ)} lie more than one point apart"
            )
        if code // 3 == succ // 3 and codes[k - 1] == SEPARATOR_CODE:
            return Violation(
                k + 1, f"path starts {code_link(code)}{code_link(succ)} at one point"
            )
    return None


def require_valid(
    gbase: GBaseWord, check: Callable[[GBaseWord], Violation | None] = validate
) -> None:
    """Raise MalformedGBaseError with the violation `check` finds, if any."""
    violation = check(gbase)
    if violation is not None:
        raise MalformedGBaseError(str(violation))


def endpoints_permutation(gbase: GBaseWord) -> tuple[int, ...]:
    """Map path ordinal k (1-based, in list order) to the point its path ends at."""
    require_valid(gbase)  # so each path holds exactly one endpoint
    codes = map(ord, gbase.text)
    return tuple(code // 3 - 1 for code in codes if code % 3 == 1 and code != SEPARATOR_CODE)


def format_gbase(gbase: GBaseWord) -> str:
    """Emit the full list, "(p,q)" tokens joined by single spaces."""
    # one token per distinct link, decoded as in code_link
    tokens = {char: f"({ord(char) // 3 - 1},{ord(char) % 3 - 1})" for char in set(gbase.text)}
    return " ".join(map(tokens.__getitem__, gbase.text))


# ASCII digits only: int() would also take "1_0" and other scripts' digits
_TOKEN = re.compile(r"\(([+-]?[0-9]+),([+-]?[0-9]+)\)")


def parse_gbase(text: str, strand_count: int) -> GBaseWord:
    """Parse the text form and check structural validity."""
    check_strand_count(strand_count)
    chars = []
    for token in text.split():
        match = _TOKEN.fullmatch(token)
        if match is None:
            raise MalformedGBaseError(f"token {token!r} is not of the form (p,q) of integers")
        try:
            point, position = int(match[1]), int(match[2])
        except ValueError:  # past the interpreter's limit on digits per int
            raise MalformedGBaseError(
                f"token of {len(token)} characters starting {token[:10]!r}: too many digits"
            ) from None
        if position not in (-1, 0, 1):
            raise MalformedGBaseError(f"token {token!r}: position {position} out of range")
        code = link_code(point, position)
        # the range checks come first: out-of-range pairs alias valid codes,
        # and a code above sys.maxunicode has no character
        if not -1 <= point <= strand_count + 1 or code > sys.maxunicode:
            raise MalformedGBaseError(
                f"token {token!r}: point {point} out of range for {strand_count} strands"
            )
        chars.append(chr(code))
    gbase = GBaseWord(strand_count, "".join(chars))
    require_valid(gbase)
    return gbase
