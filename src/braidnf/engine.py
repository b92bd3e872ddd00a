"""Core of the twist/reduce pipeline, on lists held as text.

Lists routinely grow to hundreds of thousands of links on tangled words, so
the pipeline works on GBaseWord's text: a str with one character chr(code)
per link, where gbase.link_code defines the packed code

    code = 3 * (point + 1) + (position + 1)

Handy consequences, used throughout:

    separator (-1,0)            -> code 1
    position of a code          -> code % 3 - 1
    point of a code             -> code // 3 - 1
    endpoint code of same point -> code - code % 3 + 1
    half-twist at index i       -> code' = 6*i + 11 - code
                                   (point reflects across i, i+1; position
                                   flips sign; one subtraction does both)

The engine is three calls, each taking and returning text. twist(text,
index, sign) applies one half-twist and returns the unreduced output; it
reads every rule of the letter (the run pattern, the rotation, the detach
links and the connectors) from one cached table of text, _twist_rules(index,
sign), and rewrites each run with _twist_run. reduce_codes(text) weighs the
links one by one onto a stack of characters. step(text, index, sign), one
letter of solver.process_word, returns reduce_codes(twist(text, index,
sign)) but reduces only each distinct run block, once per call and, shifted
into the frame of index 1, once per process, and copies the gaps between
runs unweighed. These functions trust their input: that
loop starts from the standard g-base and feeds each reduced output back in,
and solver.apply_letter and solver.reduce call require_valid first. Their
counters fill solver.TwistStats. A code is a character only up to
sys.maxunicode, which gbase.MAX_TEXT_STRANDS guarantees.
"""

from __future__ import annotations

import functools
import re

from .errors import InternalStateError
from .gbase import SEPARATOR_CODE, code_link, link_code


def reduce_codes(text: str) -> tuple[str, int, int]:
    """Run the four deletion rules to fixpoint on a text of chr(code) links;
    returns (text, visited, deleted).

    Each rule is a homotopy of the encoded paths:

      R1  two adjacent equal links: the path sidesteps a puncture and
          immediately retraces, so both links go;
      R2  (j,+-1) directly before (j,0): a near-pass right next to the
          endpoint;
      R3  anything strictly between an endpoint and the next separator is
          debris left behind by a twist connector;
      R4  a block of below-passes directly after a separator: a path leaving
          the basepoint may always start with the straight segment instead.

    The scan is a single left-to-right pass over a growing output stack of
    characters: each incoming link is weighed against the stack top with
    the rules in the order above, retrying after every R2 pop, so every
    newly adjacent pair is re-examined before anything else happens. One
    step of retrace is enough and each link is handled at most twice, which
    keeps the work linear: `visited` counts each link once, plus once more
    after each R2 pop it causes, and `deleted` the links dropped. Separators
    and endpoint links are never deleted, R1 refuses position-0 links
    outright, and no rule matches across a separator. The fixpoint is the
    same whatever order the rules are applied in (the test suite checks this
    against a randomized applier), which is what makes list equality decide
    braid-word equality.
    """
    stack: list[str] = []
    # -1 stands for the top of an empty stack: no code is -1 and no rule
    # matches it, so any link is pushed there
    top = -1
    near_passes = 0  # R2 deletions
    deleted = 0  # the others
    for char in text:
        code = ord(char)
        position = top % 3
        # R2 and R1 never both match, so R2's retries may come first
        while position != 1 and code == top - position + 1:  # R2
            stack.pop()
            top = ord(stack[-1]) if stack else -1
            position = top % 3
            near_passes += 1  # the endpoint may cancel further near-passes
        if top == code:  # R1: equal pair vanishes
            if position == 1:
                raise InternalStateError(
                    f"adjacent equal position-0 links {code_link(top)} "
                    f"at output offset {len(stack)}"
                )
            stack.pop()
            top = ord(stack[-1]) if stack else -1
            deleted += 2
        elif position == 1 and top != SEPARATOR_CODE and code != SEPARATOR_CODE:
            if code % 3 == 1:  # R3 must never swallow an endpoint
                raise InternalStateError(
                    f"position-0 link {code_link(code)} in endpoint debris "
                    f"at output offset {len(stack)}"
                )
            deleted += 1
        elif top == SEPARATOR_CODE and code % 3 == 0:  # R4
            deleted += 1
        else:
            stack.append(char)
            top = code
    return "".join(stack), len(text) + near_passes, deleted + near_passes


# step's frame table: (sign, frame key) -> (frame block, visited, deleted);
# it stops growing at MAX_BLOCKS entries and never evicts
MAX_BLOCKS = 4096
_FRAME_BLOCKS: dict[tuple[int, str], tuple[str, int, int]] = {}


@functools.lru_cache(maxsize=2048)
def _twist_rules(index: int, sign: int) -> tuple[
    re.Pattern[str], dict[int, int], dict[str, str], dict[str, str], str, dict[str, str], str,
    dict[int, int], dict[int, int]
]:
    """All of one letter's twist rules, as text: (pattern, rotation, detach,
    pre, pre_right, post, post_right, to_frame, from_frame).

    Splitting on `pattern` isolates the runs, the maximal blocks of links at
    points i and i+1; `[a-f][a-f]*` splits exactly as `[a-f]+` does, but
    lets the regex engine take its fast path for a leading character set.
    `rotation` is the translate table that rotates a run's links.

    `detach` maps a run's first link plus the link after it to the links
    inserted when a separator directly precedes the run. Its 14 keys are
    the only ways a reduced path can leave the basepoint into the region:
    an endpoint at q in {i, i+1} followed by the separator, or an
    above-pass at q followed by a link at the other twisted point or at
    q's outer neighbour (i-1 or i+2). Each maps to the below-pass at that
    outer neighbour, which becomes the run's new predecessor, and an
    above-pass turning back to the outer point adds (q,-1), which joins
    the run.

    A connector is two passes at i and i+1, ordered away from the
    neighbouring link: below for a neighbour at point i-1, which `pre` and
    `post` map to it, and above for any other (pre_right, post_right),
    mirrored for a negative twist. A post connector is the pre one reversed.

    `to_frame` shifts the codes of points i-1..i+2 down by 3(i-1), into the
    frame of index 1, and keeps the separator; `from_frame` shifts them back.
    """
    def text(*links: tuple[int, int]) -> str:
        return "".join(chr(link_code(point, position)) for point, position in links)

    lo = 3 * index + 3
    region = f"[{re.escape(chr(lo))}-{re.escape(chr(lo + 5))}]"
    pattern = re.compile(f"({region}{region}*)")
    rotation = {code: 6 * index + 11 - code for code in range(lo, lo + 6)}
    detach = {}
    for q, other, outer in ((index, index + 1, index - 1), (index + 1, index, index + 2)):
        below = text((outer, -1))
        detach[text((q, 0), (-1, 0))] = below
        for position in (-1, 0, 1):
            detach[text((q, 1), (other, position))] = below
            detach[text((q, 1), (outer, position))] = below + text((q, -1))
    left = [text((index - 1, position)) for position in (-1, 0, 1)]
    pre_left = text((index, -sign), (index + 1, -sign))
    pre_right = text((index + 1, sign), (index, sign))
    shift = 3 * index - 3
    to_frame = {code: code - shift for code in range(lo - 3, lo + 9)}
    to_frame[SEPARATOR_CODE] = SEPARATOR_CODE
    from_frame = {code: code + shift for code in range(3, 15)}
    return (pattern, rotation, detach, dict.fromkeys(left, pre_left), pre_right,
            dict.fromkeys(left, pre_left[::-1]), pre_right[::-1], to_frame, from_frame)


def twist(text: str, index: int, sign: int) -> str:
    """Apply one half-twist to a reduced list's text; returns the unreduced
    output's text.

    The generator with index i acts as a half-twist that rotates a small disk
    around punctures i and i+1 by 180 degrees (positively or negatively). On
    the list the twist is local. A regex split (in C) cuts the list into the
    maximal runs of in-region links (points i and i+1) and the gaps between
    them, which are copied through, and each run is rewritten:

      1. If the link before the run is the basepoint separator, the path is
         first nudged off the basepoint: one or two below-pass links are
         inserted right after the separator so that the run is preceded by
         an ordinary link (the detach table of _twist_rules, keyed by the
         run's first two links). For boundary generators this may create a
         link at the virtual point 0 or n+1; the reduction deletes it again.
         A run start that no key covers raises InternalStateError naming its
         offset.
      2. The run itself is rotated in place: each link's position flips sign
         and its point reflects across the twist center (i <-> i+1).
      3. Two-link connectors are spliced in before and after the rotated run
         to rejoin it with the rest of the path (the pre and post tables of
         _twist_rules, looked up by the neighbouring link), passing below
         the twisted region when the neighbouring link lies to its left and
         above when it lies to its right (mirrored for a negative twist).

    Runs are located against the input list, so links inserted for one run
    are never re-twisted. Steps 1 and 3 are the only inserts, so the output
    holds the input's links plus those.
    """
    rules = _twist_rules(index, sign)
    parts = rules[0].split(text)  # gap, run, gap, ..., run, gap
    parts[1::2] = [_twist_run(rules, parts, p) for p in range(1, len(parts), 2)]
    return "".join(parts)


def _twist_run(rules: tuple, parts: list[str], p: int) -> str:
    """The text that replaces the run parts[p] of a split list: its detach
    link after a separator, the pre connector, the run rotated, the post one."""
    _, rotation, detach, pre, pre_right, post, post_right = rules[:7]
    before, run, after = parts[p - 1][-1], parts[p], parts[p + 1][0]
    lead = ""
    if before == chr(SEPARATOR_CODE):
        key = run[0] + (run[1] if len(run) > 1 else after)
        added = detach.get(key)
        if added is None:
            raise InternalStateError(
                f"link {sum(map(len, parts[:p]))}: run after a separator starts "
                f"{code_link(ord(key[0]))} -> {code_link(ord(key[1]))}, "
                f"which no detachment case covers"
            )
        before = lead = added[0]
        run = added[1:] + run  # rotated with the run
    return (lead + pre.get(before, pre_right) + run.translate(rotation)
            + post.get(after, post_right))


def step(text: str, index: int, sign: int) -> tuple[str, int, int]:
    """reduce_codes(twist(text, index, sign)), text and counters, with each
    distinct run block reduced once, in a dict local to the call, and each
    block seen in the frame of index 1 reduced once per process.

    A block, the text _twist_run puts in place of one run, is fixed by the
    link before the run, the run and the link after it. It reduces on its
    own as in the whole letter: its links lie at points i and i+1 and the
    links around it outside; the one before is no endpoint (a reduced list
    follows one with the separator), and the block ends in an endpoint only
    if the one after is the separator, so no rule pairs a block link with
    either. A block after a separator is reduced behind it, which no rule
    deletes or reaches past. The gaps between runs are slices of the reduced
    input, so they are copied unweighed, each link counted once in
    `visited` as the whole letter's scan counts it. A block that reduces to
    nothing would bring its two neighbours together, so then the whole
    letter is reduced instead.

    A block whose neighbours are separators or lie at points i-1..i+2 is
    also looked up, by sign and its key shifted into the frame of index 1,
    in _FRAME_BLOCKS, shared by every call: shifting the codes of those
    points by 3(i-1) turns _twist_rules(i, sign) into _twist_rules(1, sign),
    and reduce_codes compares codes only for equality, point, position and
    the separator. A block that raises or vanishes is never stored.
    """
    rules = _twist_rules(index, sign)
    to_frame, from_frame = rules[7:]
    parts = rules[0].split(text)
    blocks: dict[tuple[str, str, str], tuple[str, int, int]] = {}
    out = [parts[0]]
    visited, deleted = len(text), 0  # each input link once; blocks add inserts, retries
    for p in range(1, len(parts), 2):
        key = parts[p - 1][-1], parts[p], parts[p + 1][0]
        block = blocks.get(key)
        if block is None:
            window = ord(key[0]) in to_frame and ord(key[2]) in to_frame
            frame = (sign, "".join(key).translate(to_frame)) if window else None
            block = _FRAME_BLOCKS.get(frame)
            if block is not None:
                block = block[0].translate(from_frame), block[1], block[2]
            else:
                lead = chr(SEPARATOR_CODE) if key[0] == chr(SEPARATOR_CODE) else ""
                reduced, seen, gone = reduce_codes(lead + _twist_run(rules, parts, p))
                block = reduced[len(lead):], seen - len(lead) - len(parts[p]), gone
                if not block[0]:
                    return reduce_codes(twist(text, index, sign))
                if frame and len(_FRAME_BLOCKS) < MAX_BLOCKS:
                    _FRAME_BLOCKS[frame] = block[0].translate(to_frame), block[1], block[2]
            blocks[key] = block
        out += (block[0], parts[p + 1])
        visited += block[1]
        deleted += block[2]
    return "".join(out), visited, deleted
