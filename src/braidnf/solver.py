"""Word-problem decisions by normal-form comparison.

A word acts on the standard g-base letter by letter. Each letter is one
fused twist and reduction (engine.step_text) on the list's text, so the list
the next letter sees is always in normal form; the reduction works only where
the twist spliced. Two words over the same strand count are equal exactly
when their final lists are identical link by link. GBaseWord values appear
only at the ends. apply_letter runs the same twist (engine.twist_pieces)
without the reduction, and reduce runs engine.reduce_codes, each on a
GBaseWord's text after checking it.

words_equal and is_identity first apply group laws that cannot change the
verdict: the permutation test, cancelling sigma_i ... sigma_i^-1 pairs across
commuting letters (_reduced), and stripping the common prefix and suffix.
Only what is left reaches process_word. normal_form runs process_word on the
reduced word, which has the same normal form.
"""

from __future__ import annotations

import dataclasses

from . import engine
from .braidword import BraidWord, Letter, permutation_of_word
from .errors import InternalStateError
from .gbase import GBaseWord, check_strand_count, require_valid, standard_gbase


@dataclasses.dataclass(frozen=True)
class TwistStats:
    """Work counters for one generator application.

    links_visited counts input links examined (the full scan) and
    links_inserted the links the twist added. The reduce_* fields count the
    reduction that follows each twist in process_word.
    """
    links_visited: int = 0
    links_inserted: int = 0
    reduce_links_visited: int = 0
    reduce_links_deleted: int = 0

    @property
    def pre_reduce_length(self) -> int:
        """The unreduced output length: the input length plus the inserts."""
        return self.links_visited + self.links_inserted


def apply_letter(gbase: GBaseWord, letter: Letter) -> tuple[GBaseWord, TwistStats]:
    """Apply one letter's half-twist to a reduced g-base; returns the unreduced result.

    The input must be reduced: the detach table of engine._twist_rules
    covers only the ways a reduced path leaves the basepoint, so anything
    else raises MalformedGBaseError. A letter whose index is not in 1..n-1
    or whose sign is not +-1 raises MalformedWordError, as BraidWord does.
    """
    BraidWord(gbase.strand_count, (letter,))  # checks the letter's index and sign
    require_valid(gbase, reduced_expected=True)
    pieces, inserted = engine.twist_pieces(gbase.text, letter.index, letter.sign)
    stats = TwistStats(links_visited=len(gbase), links_inserted=inserted)
    return GBaseWord(gbase.strand_count, "".join(pieces)), stats


def reduce(gbase: GBaseWord) -> GBaseWord:
    """Reduce a structurally valid (possibly unreduced) g-base to normal form."""
    require_valid(gbase)
    text, _, _ = engine.reduce_codes(gbase.text)
    return GBaseWord(gbase.strand_count, text)


def process_word(word: BraidWord) -> tuple[GBaseWord, list[TwistStats]]:
    """Act on the standard g-base with each letter, reducing after every step.

    Returns the final reduced g-base and one stats record per letter (twist
    counters plus the reduce counters of the normalization that followed).
    More than gbase.MAX_TEXT_STRANDS strands raise ResourceLimitError. An
    InternalStateError names the letter's index k and value, and carries k
    as its letter attribute.
    """
    text = standard_gbase(word.strand_count).text
    per_letter: list[TwistStats] = []
    for k, letter in enumerate(word.letters):
        visited = len(text)
        try:
            text, inserted, reduce_visited, deleted = engine.step_text(
                text, letter.index, letter.sign
            )
        except InternalStateError as error:
            raise _letter_error(k, letter, error) from error
        per_letter.append(
            TwistStats(
                links_visited=visited,
                links_inserted=inserted,
                reduce_links_visited=reduce_visited,
                reduce_links_deleted=deleted,
            )
        )
    return GBaseWord(word.strand_count, text), per_letter


def _letter_error(k: int, letter: Letter, cause: BaseException) -> InternalStateError:
    error = InternalStateError(f"letter {k} ({letter.index * letter.sign}): {cause}")
    error.letter = k
    return error


def _reduced(letters: tuple[Letter, ...]) -> list[int]:
    """Positions of the letters left once every sigma_i ... sigma_i^-1 pair
    with only commuting letters between them has cancelled, in input order.

    Letter sigma_i^e touches strands i and i+1, and each strand keeps a stack
    of the positions of the surviving letters that touch it. When both of a
    letter's stacks have the same position on top, every letter since then
    was at least two generators away, so it commutes with both; if that
    position holds the inverse letter the two cancel, and otherwise the
    letter goes on both stacks. This is free reduction in the group where
    only far letters commute (Viennot's heaps of pieces), so nothing
    cancellable is left, in O(L) steps whatever the strand count.
    """
    stacks: dict[int, list[int]] = {}
    kept = [True] * len(letters)
    for k, (index, sign) in enumerate(letters):
        left = stacks.setdefault(index, [])
        right = stacks.setdefault(index + 1, [])
        if left and right and left[-1] == right[-1] and letters[left[-1]] == (index, -sign):
            kept[left.pop()] = kept[k] = False
            right.pop()
        else:
            left.append(k)
            right.append(k)
    return [k for k, keep in enumerate(kept) if keep]


def normal_form(word: BraidWord) -> GBaseWord:
    """The normal form of process_word(word), computed from fewer letters.

    Cancelling sigma_i ... sigma_i^-1 across commuting letters (_reduced)
    keeps the braid, so it keeps the normal form. An InternalStateError
    names the index of the letter in word, not in the reduced word.
    """
    kept = _reduced(word.letters)
    try:
        gbase, _ = process_word(
            BraidWord(word.strand_count, tuple(word.letters[k] for k in kept))
        )
    except InternalStateError as error:
        if error.letter is None:
            raise
        k = kept[error.letter]
        raise _letter_error(k, word.letters[k], error.__cause__) from error.__cause__
    return gbase


def words_equal(first: BraidWord, second: BraidWord) -> bool:
    """Decide equality in the braid group by comparing normal forms.

    Mismatched strand counts raise ValueError, and more than
    gbase.MAX_TEXT_STRANDS strands raise ResourceLimitError, before anything
    else. Then a pre-pass applies group laws only, so it cannot change the
    verdict:

    1. answer false if the permutations differ, since the normal form
       determines the permutation;
    2. cancel sigma_i ... sigma_i^-1 pairs across commuting letters in both
       words (_reduced);
    3. strip the longest common prefix and suffix, as p u s = p v s iff u = v;
    4. only then compare the process_word normal forms of the remainders.
    """
    if first.strand_count != second.strand_count:
        raise ValueError(
            f"cannot compare words over {first.strand_count} and "
            f"{second.strand_count} strands"
        )
    check_strand_count(first.strand_count)
    if permutation_of_word(first) != permutation_of_word(second):
        return False
    u = [first.letters[k] for k in _reduced(first.letters)]
    v = [second.letters[k] for k in _reduced(second.letters)]
    shorter = min(len(u), len(v))
    start = 0
    while start < shorter and u[start] == v[start]:
        start += 1
    stop = 0
    while stop < shorter - start and u[-1 - stop] == v[-1 - stop]:
        stop += 1
    u_rest = BraidWord(first.strand_count, tuple(u[start:len(u) - stop]))
    v_rest = BraidWord(first.strand_count, tuple(v[start:len(v) - stop]))
    return u_rest == v_rest or process_word(u_rest)[0] == process_word(v_rest)[0]


def is_identity(word: BraidWord) -> bool:
    """True iff the word acts trivially, i.e. returns the standard g-base.

    This is words_equal against the empty word, so it gets the same pre-pass:
    false unless the permutation is the identity, then the cancellation of
    _reduced, then process_word on what is left.
    """
    return words_equal(word, BraidWord(word.strand_count, ()))
