"""Packed-integer core of the twist/reduce pipeline.

Lists routinely grow to hundreds of thousands of links on tangled words, so
the pipeline works on the packed codes that GBaseWord stores (gbase.link_code
defines them):

    code = 3 * (point + 1) + (position + 1)

Handy consequences, used throughout:

    separator (-1,0)            -> code 1
    position of a code          -> code % 3 - 1
    point of a code             -> code // 3 - 1
    endpoint code of same point -> code - code % 3 + 1
    half-twist at index i       -> code' = 6*i + 11 - code
                                   (point reflects across i, i+1; position
                                   flips sign; one subtraction does both)

twist_codes and reduce_codes take code sequences (a GBaseWord's tuple or a
list) and return lists; they are the single steps. step_text fuses the two
for one letter on a list held as a str of chr(code) and gives the same list
and counters. These functions trust their input: solver.process_word starts
from the standard g-base and feeds each step_text output back in, and
solver.apply_letter and solver.reduce call require_valid first. Their
counters fill solver.TwistStats.
"""

from __future__ import annotations

import functools
import re
import sys
from typing import Iterable, Sequence

from .errors import InternalStateError
from .gbase import SEPARATOR_CODE, code_link

# step_text holds each code as one character, so the largest code the engine
# makes for n strands, 3 * (n + 2) for a below-pass at the virtual point n + 1,
# must not pass sys.maxunicode
MAX_TEXT_STRANDS = sys.maxunicode // 3 - 2


def detach_codes(first: int, second: int | None, index: int) -> list[int]:
    """Links to insert after a separator that directly precedes a run.

    `first` is the run's first link, `second` the following link of the path.
    The first returned code becomes the run's new predecessor; any further
    code has a point inside the twisted region and joins the run. The six
    patterns are the only ways a reduced path can leave the basepoint into
    the region, so anything else is an engine bug.
    """
    base = 3 * index  # code(i,-1) = base+3, code(i+1,-1) = base+6, etc.
    if first == base + 4:  # (i,0)
        return [base]
    if first == base + 7:  # (i+1,0)
        return [base + 9]
    if first == base + 5 and second is not None:  # (i,1) then ...
        second_point = second // 3 - 1
        if second_point == index + 1:
            return [base]
        if second_point == index - 1:
            return [base, base + 3]
    if first == base + 8 and second is not None:  # (i+1,1) then ...
        second_point = second // 3 - 1
        if second_point == index + 2:
            return [base + 9, base + 6]
        if second_point == index:
            return [base + 9]
    raise InternalStateError(
        f"run after a separator starts {code_link(first)} -> "
        f"{code_link(second) if second is not None else None}, "
        f"which no detachment case covers"
    )


def prefix_codes(index: int, sign: int, to_left: bool) -> list[int]:
    base = 3 * index
    if to_left:
        return [base + 3, base + 6] if sign > 0 else [base + 5, base + 8]
    return [base + 8, base + 5] if sign > 0 else [base + 6, base + 3]


def postfix_codes(index: int, sign: int, to_left: bool) -> list[int]:
    base = 3 * index
    if to_left:
        return [base + 6, base + 3] if sign > 0 else [base + 8, base + 5]
    return [base + 5, base + 8] if sign > 0 else [base + 3, base + 6]


def twist_codes(codes: Sequence[int], index: int, sign: int) -> tuple[list[int], int]:
    """Apply one half-twist; returns the unreduced list and the insert count.

    The generator with index i acts as a half-twist that rotates a small disk
    around punctures i and i+1 by 180 degrees (positively or negatively). On
    the list the twist is local: links outside the twisted region (points i
    and i+1) are copied through, and each maximal run of in-region links is
    rewritten in one left-to-right pass:

      1. If the link before the run is the basepoint separator, the path is
         first nudged off the basepoint: one or two below-pass links are
         inserted right after the separator so that the run is preceded by
         an ordinary link (detach_codes: six patterns, one per way a path
         can leave the basepoint into the twisted region). For boundary
         generators this may create a link at the virtual point 0 or n+1;
         the reducer deletes it again.
      2. The run itself is rotated in place: each link's position flips sign
         and its point reflects across the twist center (i <-> i+1).
      3. Two-link connectors are spliced in before and after the rotated run
         to rejoin it with the rest of the path (prefix_codes/postfix_codes),
         passing below the twisted region when the neighbouring link lies to
         its left and above when it lies to its right (mirrored for a
         negative twist).

    Runs are located against the input list and the scan resumes after each
    run, so links inserted by one run are never re-twisted. The insert count
    covers steps 1 and 3, so the output length is the input length plus it.
    The output is unreduced; reduce_codes normalizes it.
    """
    lo = 3 * index + 3  # in-region codes are lo <= code < lo + 6
    hi = lo + 6
    mirror = 6 * index + 11
    left_point = index - 1
    pre_left = prefix_codes(index, sign, True)
    pre_right = prefix_codes(index, sign, False)
    post_left = postfix_codes(index, sign, True)
    post_right = postfix_codes(index, sign, False)

    out: list[int] = []
    inserted = 0
    total = len(codes)
    k = 0
    while k < total:
        code = codes[k]
        if not lo <= code < hi:
            out.append(code)
            k += 1
            continue
        start = k
        while k < total and lo <= codes[k] < hi:
            k += 1
        run = codes[start:k]
        before = codes[start - 1]
        if before == SEPARATOR_CODE:
            try:
                added = detach_codes(
                    codes[start], codes[start + 1] if start + 1 < total else None, index
                )
            except InternalStateError as error:
                raise InternalStateError(f"link {start}: {error}") from error
            before = added[0]
            out.append(before)
            run = [*added[1:], *run]
            inserted += len(added)
        out += pre_left if before // 3 - 1 == left_point else pre_right
        out += [mirror - c for c in run]
        out += post_left if codes[k] // 3 - 1 == left_point else post_right
        inserted += 4
    return out, inserted


def reduce_codes(codes: Sequence[int]) -> tuple[list[int], int, int]:
    """Run the four deletion rules to fixpoint; returns (out, visited, deleted).

    Each rule is a homotopy of the encoded paths:

      R1  two adjacent equal links: the path sidesteps a puncture and
          immediately retraces, so both links go;
      R2  (j,+-1) directly before (j,0): a near-pass right next to the
          endpoint;
      R3  anything strictly between an endpoint and the next separator is
          debris left behind by a twist connector;
      R4  a block of below-passes directly after a separator: a path leaving
          the basepoint may always start with the straight segment instead.

    The scan is a single left-to-right pass over a growing output stack: each
    incoming link is weighed against the stack top with the rules in the
    order above, retrying after every R2 pop, so every newly adjacent pair is
    re-examined before anything else happens. One step of retrace is enough
    and each link is handled at most twice, which keeps the work linear
    (`visited` counts these weighings, `deleted` the links dropped).
    Separators and endpoint links are never deleted, R1 refuses position-0
    links outright, and no rule matches across a separator. The fixpoint is
    the same whatever order the rules are applied in (the test suite checks
    this against a randomized applier), which is what makes list equality
    decide braid-word equality.
    """
    out: list[int] = []
    visited, deleted = _weigh(out, [], codes)
    return out, visited, deleted


def _weigh(out: list[int], below: list[str], codes: Iterable[int]) -> tuple[int, int]:
    """Weigh each code against the stack top by reduce_codes's rules.

    The stack is the links of `below`, str pieces of chr(code), followed by
    the ints of `out`. Links move from `below` into `out` only when a pop
    empties `out`. Returns the weighings and deletions for these codes.
    """
    visited = 0
    deleted = 0
    for code in codes:
        while True:
            visited += 1
            if not out and not _refill(out, below):
                out.append(code)
                break
            top = out[-1]
            if top == code:  # R1: equal pair vanishes
                if top % 3 == 1:
                    raise InternalStateError(
                        f"adjacent equal position-0 links {code_link(top)} "
                        f"at output offset {len(out) + sum(map(len, below))}"
                    )
                out.pop()
                deleted += 2
                break
            top_position = top % 3
            if top_position != 1 and code == top - top_position + 1:  # R2
                out.pop()
                deleted += 1
                continue  # the endpoint may cancel further near-passes
            if top_position == 1 and top != SEPARATOR_CODE and code != SEPARATOR_CODE:
                if code % 3 == 1:  # R3 must never swallow an endpoint
                    raise InternalStateError(
                        f"position-0 link {code_link(code)} in endpoint debris "
                        f"at output offset {len(out) + sum(map(len, below))}"
                    )
                deleted += 1
                break
            if top == SEPARATOR_CODE and code % 3 == 0:  # R4
                deleted += 1
                break
            out.append(code)
            break
    return visited, deleted


def _refill(out: list[int], below: list[str]) -> bool:
    """Move the last links of `below` into the empty `out`; False if none.

    Cascades are short, so 16 links at a time avoids converting a whole
    piece to ints, while each re-slice of the rest costs its length.
    """
    while below:
        piece = below.pop()
        if piece:
            keep = max(len(piece) - 16, 0)
            if keep:
                below.append(piece[:keep])
            out.extend(map(ord, piece[keep:]))
            return True
    return False


@functools.lru_cache(maxsize=1024)
def _run_splitter(index: int) -> tuple[re.Pattern[str], dict[int, int]]:
    """The pattern whose split isolates the runs of generator `index`, and
    the translate table that rotates a run's links."""
    lo = 3 * index + 3
    mirror = 6 * index + 11
    pattern = re.compile(f"([{re.escape(chr(lo))}-{re.escape(chr(lo + 5))}]+)")
    return pattern, {code: mirror - code for code in range(lo, lo + 6)}


def step_text(text: str, index: int, sign: int) -> tuple[str, int, int, int]:
    """One letter on a reduced list held as a str of chr(code).

    Returns (text, inserted, visited, deleted): the reduced list after the
    letter and the counters of reduce_codes(twist_codes(...)). Both equal
    that composition's, but the work is done only where the twist splices.

    A regex split (in C) cuts the list into the runs of in-region links and
    the gaps between them, which the twist copies unchanged. Each run's
    twist output (twist_codes's steps 1-3) is weighed link by link against
    the reduce_codes stack, and so is each short gap. A long gap is weighed
    until one of its links is pushed; the rest of it is copied as a slice,
    and its length is added to `visited`. That is exact for two reasons:

      * every rule, and both InternalStateError checks, decide from the pair
        (stack top, incoming link) alone;
      * no adjacent pair of a gap matches a rule, since the input is reduced.

    So once a gap link is on top, each later one meets its own predecessor
    there and is pushed after one weighing. The first gap goes onto the empty
    stack the same way. If a cascade pops below the links held as ints,
    _weigh pulls earlier output back onto the stack. So `visited` and
    `deleted` count exactly the weighings and deletions of the full scan.
    Every code must be at most sys.maxunicode, which MAX_TEXT_STRANDS bounds.
    """
    pattern, table = _run_splitter(index)
    separator = chr(SEPARATOR_CODE)
    # the connectors as text, chosen by the input link before or after the
    # run: the left ones for a link at point index - 1, else the right ones
    left = [chr(code) for code in range(3 * index, 3 * index + 3)]
    pre_right = "".join(map(chr, prefix_codes(index, sign, False)))
    pre = dict.fromkeys(left, "".join(map(chr, prefix_codes(index, sign, True))))
    post_right = "".join(map(chr, postfix_codes(index, sign, False)))
    post = dict.fromkeys(left, "".join(map(chr, postfix_codes(index, sign, True))))

    pieces = pattern.split(text)  # gap, run, gap, ..., run, gap
    below = [pieces[0][:-1]]
    out = [ord(pieces[0][-1])]
    visited = len(pieces[0])
    deleted = 0
    inserted = 4 * (len(pieces) // 2)
    pending: list[str] = []  # links still to be weighed, in order
    for p in range(1, len(pieces), 2):
        run, gap = pieces[p], pieces[p + 1]
        before = pieces[p - 1][-1]
        if before == separator:
            try:
                added = detach_codes(
                    ord(run[0]), ord(run[1] if len(run) > 1 else gap[0]), index
                )
            except InternalStateError as error:
                offset = sum(map(len, pieces[:p]))
                raise InternalStateError(f"link {offset}: {error}") from error
            before = chr(added[0])
            pending.append(before)
            run = "".join(map(chr, added[1:])) + run  # rotated with the run
            inserted += len(added)
        pending.append(pre.get(before, pre_right))
        pending.append(run.translate(table))
        pending.append(post.get(gap[0], post_right))
        if len(gap) <= 8:  # a slice would save less than flushing `out` costs
            pending.append(gap)
            continue
        step_visited, step_deleted = _weigh(out, below, map(ord, "".join(pending)))
        visited += step_visited
        deleted += step_deleted
        pending.clear()
        for k, char in enumerate(gap):
            code = ord(char)
            step_visited, step_deleted = _weigh(out, below, (code,))
            visited += step_visited
            deleted += step_deleted
            # adjacent stack entries always differ, so `code` is on top
            # exactly when it was pushed
            if out and out[-1] == code:
                out.pop()
                below.append("".join(map(chr, out)))
                below.append(gap[k:-1])
                out = [ord(gap[-1])]
                visited += len(gap) - k - 1
                break
    step_visited, step_deleted = _weigh(out, below, map(ord, "".join(pending)))
    below.append("".join(map(chr, out)))
    return "".join(below), inserted, visited + step_visited, deleted + step_deleted
