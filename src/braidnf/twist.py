"""Action of one braid generator on a g-base list.

The generator with index i acts as a half-twist that rotates a small disk
around punctures i and i+1 by 180 degrees (positively or negatively). On the
link list the twist is local: only maximal runs of consecutive links whose
point is i or i+1 are affected. For each such run, in one left-to-right pass:

  1. If the link before the run is the basepoint separator, the path is first
     nudged off the basepoint: one or two below-pass links are inserted right
     after the separator so that the run is preceded by an ordinary link
     (six insertion patterns, one per way a path can leave the basepoint into
     the twisted region). For boundary generators this may create a link at
     the virtual point 0 or n+1; the reducer deletes it again.
  2. The run itself is rotated in place: each link's position flips sign and
     its point reflects across the twist center (i <-> i+1).
  3. Two-link connectors are spliced in before and after the rotated run to
     rejoin it with the rest of the path, passing below the twisted region
     when the neighbouring link lies to its left and above when it lies to
     its right (mirrored for a negative twist).

Runs are located against the input list and the scan resumes after each
run's connector, so links inserted by one run are never re-twisted. The
output is unreduced; callers normalize it afterwards.

The pass itself is engine.twist_codes; this module checks the input and
wraps the engine's codes in a GBaseWord.
"""

from __future__ import annotations

import dataclasses

from . import engine
from .braidword import Letter
from .gbase import GBaseWord, require_valid


@dataclasses.dataclass
class TwistStats:
    """Work counters for one generator application.

    links_visited counts input links examined (the full scan), links_inserted
    the links added by steps 1-3, and pre_reduce_length the unreduced output
    length, so pre_reduce_length = input length + links_inserted. The reduce_*
    fields are filled in by the normalizer pass that follows each twist.
    """
    links_visited: int = 0
    links_inserted: int = 0
    pre_reduce_length: int = 0
    reduce_links_visited: int = 0
    reduce_links_deleted: int = 0


def apply_letter(gbase: GBaseWord, letter: Letter) -> tuple[GBaseWord, TwistStats]:
    """Apply one letter's half-twist to a reduced g-base; returns the unreduced result.

    The input must be reduced: the detachment patterns of step 1 assume the
    conventions that reduction enforces, so anything else raises
    MalformedGBaseError.
    """
    if not 1 <= letter.index <= gbase.strand_count - 1:
        raise ValueError(
            f"generator index {letter.index} out of range for "
            f"{gbase.strand_count} strands"
        )
    require_valid(gbase, reduced_expected=True)
    codes, inserted = engine.twist_codes(gbase.codes, letter.index, letter.sign)
    stats = TwistStats(
        links_visited=len(gbase),
        links_inserted=inserted,
        pre_reduce_length=len(codes),
    )
    return GBaseWord(gbase.strand_count, codes), stats
