"""Word-problem decisions by normal-form comparison.

A word acts on the standard g-base letter by letter, in one loop
(process_word) that normal_form and words_equal also run. Each letter is
engine.step(text, index, sign), the reduction of the twist's output, so the
list the next letter sees is always in normal form. Two words over the same
strand count are equal exactly when their final lists are identical link by
link. GBaseWord values appear only at the ends.
apply_letter runs the same twist without the reduction, and reduce the
reduction alone, each on a GBaseWord's text after checking it.

The loop can take the positions of the letters to apply, so every caller
hands it the word it was given: normal_form the positions left by
cancelling sigma_i ... sigma_i^-1 pairs across commuting letters
(_reduced), which keeps the normal form, and words_equal those left after
that and after stripping the common prefix and suffix. An
InternalStateError names the letter by its position in that word, as does
the ResourceLimitError of a list past gbase.MAX_LINKS links or of work past
gbase.MAX_VISITS links visited. The callers look process_word up by name,
so braidbench/spans.py, which traces it, counts every run of the loop.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from . import engine, gbase
from .braidword import BraidWord, Letter, check_same_strands, permutation_of_word
from .errors import InternalStateError, ResourceLimitError
from .gbase import GBaseWord, require_valid, standard_gbase, twist_violation


@dataclasses.dataclass(frozen=True)
class TwistStats:
    """Work counters for one generator application.

    They count the scan of the whole letter: the twist of the whole list,
    then reduce_codes over all of its output, which engine.step reproduces
    without running it. links_visited is the input length, links_inserted
    the links the twist added, and the reduce_* fields are those of that
    link-by-link reduction.
    """
    links_visited: int = 0
    links_inserted: int = 0
    reduce_links_visited: int = 0
    reduce_links_deleted: int = 0

    @property
    def pre_reduce_length(self) -> int:
        """The unreduced twist output's length, the input length plus the
        inserts; step builds that output only on its fallback."""
        return self.links_visited + self.links_inserted


def apply_letter(gbase: GBaseWord, letter: Letter) -> tuple[GBaseWord, TwistStats]:
    """Apply one letter's half-twist to a reduced g-base; returns the unreduced result.

    The input must be a list the twist can take (gbase.twist_violation):
    reduced, since the detach table of engine._twist_rules covers only the
    ways a reduced path leaves the basepoint, and free of the two shapes no
    word reaches. Anything else raises MalformedGBaseError, so an
    InternalStateError here is a bug. A letter whose index is not in 1..n-1
    or whose sign is not +-1 raises MalformedWordError, as BraidWord does.
    """
    BraidWord(gbase.strand_count, (letter,))  # checks the letter's index and sign
    require_valid(gbase, twist_violation)
    out = engine.twist(gbase.text, letter.index, letter.sign)
    stats = TwistStats(links_visited=len(gbase), links_inserted=len(out) - len(gbase))
    return GBaseWord(gbase.strand_count, out), stats


def reduce(gbase: GBaseWord) -> GBaseWord:
    """Reduce a structurally valid (possibly unreduced) g-base to normal form."""
    require_valid(gbase)
    text, _, _ = engine.reduce_codes(gbase.text)
    return GBaseWord(gbase.strand_count, text)


def process_word(
    word: BraidWord, *, _positions: Sequence[int] | None = None
) -> tuple[GBaseWord, list[TwistStats]]:
    """Act on the standard g-base with each letter, reducing after every step.

    Returns the final reduced g-base and one TwistStats record per letter.
    After any letter, a list of more than gbase.MAX_LINKS links raises
    ResourceLimitError, and so does a running total of links_visited plus
    reduce_links_visited past gbase.MAX_VISITS.

    This is the loop every word-level function runs, one engine.step per
    letter. The inserts follow by conservation: the twist's output holds
    the input's links plus the inserts, and the reduced text is that minus
    the deletions. normal_form and words_equal pass the positions of the
    letters to apply, in order, as _positions (all of them by default), so
    an error names the letter by its position k in word and its value.
    """
    text = standard_gbase(word.strand_count).text
    per_letter: list[TwistStats] = []
    visits = 0
    for k in range(len(word.letters)) if _positions is None else _positions:
        index, sign = word.letters[k]
        length = len(text)
        try:
            text, visited, deleted = engine.step(text, index, sign)
        except InternalStateError as error:
            raise InternalStateError(f"letter {k} ({index * sign}): {error}") from error
        if len(text) > gbase.MAX_LINKS:
            message = f"list of {len(text)} links exceeds MAX_LINKS ({gbase.MAX_LINKS})"
            raise ResourceLimitError(f"letter {k} ({index * sign}): {message}")
        visits += length + visited
        if visits > gbase.MAX_VISITS:
            message = f"{visits} links visited exceed MAX_VISITS ({gbase.MAX_VISITS})"
            raise ResourceLimitError(f"letter {k} ({index * sign}): {message}")
        per_letter.append(TwistStats(length, len(text) + deleted - length, visited, deleted))
    return GBaseWord(word.strand_count, text), per_letter


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
    names the letter's index in word.
    """
    return process_word(word, _positions=_reduced(word.letters))[0]


def words_equal(first: BraidWord, second: BraidWord) -> bool:
    """Decide equality in the braid group by comparing normal forms.

    Mismatched strand counts raise MalformedWordError before anything else.
    Then a pre-pass applies group laws only, so it cannot change the
    verdict:

    1. answer false if the permutations differ, since the normal form
       determines the permutation;
    2. cancel sigma_i ... sigma_i^-1 pairs across commuting letters in both
       words (_reduced);
    3. strip the longest common prefix and suffix, as p u s = p v s iff u = v;
    4. only then compare the normal forms of the remainders, acting with
       their letters where they stand, so an InternalStateError names the
       letter's index in first or second.
    """
    check_same_strands(first, second)
    if permutation_of_word(first) != permutation_of_word(second):
        return False
    a, b = first.letters, second.letters
    u, v = _reduced(a), _reduced(b)
    shorter = min(len(u), len(v))
    start = 0
    while start < shorter and a[u[start]] == b[v[start]]:
        start += 1
    stop = 0
    while stop < shorter - start and a[u[-1 - stop]] == b[v[-1 - stop]]:
        stop += 1
    u, v = u[start:len(u) - stop], v[start:len(v) - stop]
    # the strip leaves two equal remainders only when both are empty
    return not (u or v) or (
        process_word(first, _positions=u)[0] == process_word(second, _positions=v)[0]
    )


def is_identity(word: BraidWord) -> bool:
    """True iff the word acts trivially, i.e. returns the standard g-base.

    This is words_equal against the empty word, so it gets the same pre-pass:
    false unless the permutation is the identity, then the cancellation of
    _reduced, then the g-base loop on what is left.
    """
    return words_equal(word, BraidWord(word.strand_count, ()))
