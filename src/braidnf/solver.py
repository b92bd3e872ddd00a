"""Word-problem decisions by normal-form comparison.

A word acts on the standard g-base letter by letter; every twist is followed
by a full reduction, so the list the next letter sees is always in normal
form. Two words over the same strand count are equal exactly when their
final lists are identical link by link. The letters run entirely inside the
packed-integer engine; GBaseWord values appear only at the ends.
"""

from __future__ import annotations

from . import engine
from .braidword import BraidWord
from .errors import InternalStateError
from .gbase import GBaseWord, standard_gbase
from .twist import TwistStats


def process_word(word: BraidWord) -> tuple[GBaseWord, list[TwistStats]]:
    """Act on the standard g-base with each letter, reducing after every step.

    Returns the final reduced g-base and one stats record per letter (twist
    counters plus the reduce counters of the normalization that followed).
    """
    codes = standard_gbase(word.strand_count).codes
    per_letter: list[TwistStats] = []
    for k, letter in enumerate(word.letters):
        visited = len(codes)
        try:
            unreduced, inserted = engine.twist_codes(codes, letter.index, letter.sign)
            codes, reduce_visited, deleted = engine.reduce_codes(unreduced)
        except InternalStateError as error:
            raise InternalStateError(
                f"letter {k} ({letter.index * letter.sign}): {error}"
            ) from error
        per_letter.append(
            TwistStats(
                links_visited=visited,
                links_inserted=inserted,
                pre_reduce_length=len(unreduced),
                reduce_links_visited=reduce_visited,
                reduce_links_deleted=deleted,
            )
        )
    return GBaseWord(word.strand_count, codes), per_letter


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
