"""Word-problem decisions by normal-form comparison.

A word acts on the standard g-base letter by letter. Each letter is one
fused twist and reduction (engine.step_text) on the list held as a str, so
the list the next letter sees is always in normal form; the reduction works
only where the twist spliced. Two words over the same strand count are equal
exactly when their final lists are identical link by link. GBaseWord values
appear only at the ends. apply_letter and reduce run one step each on a
GBaseWord (engine.twist_codes and engine.reduce_codes), after checking it.
"""

from __future__ import annotations

import dataclasses

from . import engine
from .braidword import BraidWord, Letter
from .errors import InternalStateError, ResourceLimitError
from .gbase import GBaseWord, require_valid, standard_gbase


@dataclasses.dataclass(frozen=True)
class TwistStats:
    """Work counters for one generator application.

    links_visited counts input links examined (the full scan), links_inserted
    the links the twist added, and pre_reduce_length the unreduced output
    length, so pre_reduce_length = input length + links_inserted. The reduce_*
    fields count the reduction that follows each twist in process_word.
    """
    links_visited: int = 0
    links_inserted: int = 0
    pre_reduce_length: int = 0
    reduce_links_visited: int = 0
    reduce_links_deleted: int = 0


def apply_letter(gbase: GBaseWord, letter: Letter) -> tuple[GBaseWord, TwistStats]:
    """Apply one letter's half-twist to a reduced g-base; returns the unreduced result.

    The input must be reduced: the twist's detachment patterns assume the
    conventions that reduction enforces, so anything else raises
    MalformedGBaseError. A letter whose index is not in 1..n-1 or whose sign
    is not +-1 raises ValueError.
    """
    if not 1 <= letter.index <= gbase.strand_count - 1:
        raise ValueError(
            f"generator index {letter.index} out of range for "
            f"{gbase.strand_count} strands"
        )
    if letter.sign not in (1, -1):
        raise ValueError(f"generator sign must be +1 or -1, got {letter.sign}")
    require_valid(gbase, reduced_expected=True)
    codes, inserted = engine.twist_codes(gbase.codes, letter.index, letter.sign)
    stats = TwistStats(
        links_visited=len(gbase),
        links_inserted=inserted,
        pre_reduce_length=len(codes),
    )
    return GBaseWord(gbase.strand_count, codes), stats


def reduce(gbase: GBaseWord) -> GBaseWord:
    """Reduce a structurally valid (possibly unreduced) g-base to normal form."""
    require_valid(gbase)
    codes, _, _ = engine.reduce_codes(gbase.codes)
    return GBaseWord(gbase.strand_count, codes)


def process_word(word: BraidWord) -> tuple[GBaseWord, list[TwistStats]]:
    """Act on the standard g-base with each letter, reducing after every step.

    Returns the final reduced g-base and one stats record per letter (twist
    counters plus the reduce counters of the normalization that followed).
    More than engine.MAX_TEXT_STRANDS strands raise ResourceLimitError.
    """
    if word.strand_count > engine.MAX_TEXT_STRANDS:
        raise ResourceLimitError(
            f"strand count {word.strand_count} exceeds {engine.MAX_TEXT_STRANDS}"
        )
    text = "".join(map(chr, standard_gbase(word.strand_count).codes))
    per_letter: list[TwistStats] = []
    for k, letter in enumerate(word.letters):
        visited = len(text)
        try:
            text, inserted, reduce_visited, deleted = engine.step_text(
                text, letter.index, letter.sign
            )
        except InternalStateError as error:
            raise InternalStateError(
                f"letter {k} ({letter.index * letter.sign}): {error}"
            ) from error
        per_letter.append(
            TwistStats(
                links_visited=visited,
                links_inserted=inserted,
                pre_reduce_length=visited + inserted,
                reduce_links_visited=reduce_visited,
                reduce_links_deleted=deleted,
            )
        )
    return GBaseWord(word.strand_count, map(ord, text)), per_letter


def words_equal(first: BraidWord, second: BraidWord) -> bool:
    """Decide equality in the braid group by comparing normal forms."""
    if first.strand_count != second.strand_count:
        raise ValueError(
            f"cannot compare words over {first.strand_count} and "
            f"{second.strand_count} strands"
        )
    return process_word(first)[0] == process_word(second)[0]


def is_identity(word: BraidWord) -> bool:
    """True iff the word acts trivially, i.e. returns the standard g-base."""
    return process_word(word)[0] == standard_gbase(word.strand_count)
