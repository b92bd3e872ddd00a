"""Shared strategies and generators for the suite."""

from __future__ import annotations

import dataclasses
import itertools
import random

from hypothesis import strategies as st

from braidnf.braidword import BraidWord, Letter
from braidnf.errors import InternalStateError
from braidnf.gbase import GBaseWord, Link, code_link, link_code

SEPARATOR = Link(-1, 0)


def word_from_ints(strand_count: int, values: tuple[int, ...] | list[int]) -> BraidWord:
    return BraidWord(
        strand_count,
        tuple(Letter(abs(v), 1 if v > 0 else -1) for v in values),
    )


def rewritten(values: list[int], rng: random.Random, attempts: int) -> list[int]:
    """An equal word, reached by random commutation and braid-relation moves.

    Letters on generators at least two apart swap; a triple a b a with |a|,
    |b| adjacent and one sign throughout becomes b a b. Other positions are
    left alone.
    """
    out = list(values)
    for _ in range(attempts if len(out) >= 2 else 0):
        k = rng.randrange(len(out) - 1)
        a, b = out[k], out[k + 1]
        if abs(abs(a) - abs(b)) >= 2:
            out[k], out[k + 1] = b, a
        elif (
            k + 2 < len(out)
            and out[k + 2] == a
            and abs(abs(a) - abs(b)) == 1
            and (a > 0) == (b > 0)
        ):
            out[k:k + 3] = [b, a, b]
    return out


def reference_reduced(letters) -> list[int]:
    """Positions left once no sigma_i ... sigma_i^-1 pair with only far letters
    (generators at least two away) between them remains, found by rescanning.

    Each scan takes the first letter whose nearest earlier letter on a
    generator within one of its own is its inverse, cancels the two, and
    starts again from the beginning, so it costs O(L^2) per cancellation.
    """
    kept = list(range(len(letters)))
    while True:
        for b, right in enumerate(kept):
            index, sign = letters[right]
            a = b - 1
            while a >= 0 and abs(letters[kept[a]].index - index) >= 2:
                a -= 1
            if a >= 0 and letters[kept[a]] == (index, -sign):
                del kept[b]
                del kept[a]
                break
        else:
            return kept


# -- reference free-group action: substitute letter by letter, left to right --

def _letter_image_syllables(letter: Letter, gen: int) -> tuple[tuple[int, int], ...]:
    i = letter.index
    if letter.sign > 0:
        if gen == i:
            return ((i, 1), (i + 1, 1), (i, -1))
        if gen == i + 1:
            return ((i, 1),)
    else:
        if gen == i:
            return ((i + 1, 1),)
        if gen == i + 1:
            return ((i + 1, -1), (i, 1), (i + 1, 1))
    return ((gen, 1),)


def reference_word_image(word: BraidWord, gen: int) -> tuple[tuple[int, int], ...]:
    """Syllables of the image of x_gen, rewriting the whole image through
    each letter in turn and freely reducing as it is built."""
    image = [(gen, 1)]
    for letter in word.letters:
        out = []
        for g, e in image:
            target = _letter_image_syllables(letter, g)
            if e < 0:
                target = tuple((h, -f) for h, f in reversed(target))
            for syllable in target:
                if out and out[-1] == (syllable[0], -syllable[1]):
                    out.pop()
                else:
                    out.append(syllable)
        image = out
    return tuple(image)


# -- Dynnikov coordinates: a polynomial-time witness for braid equality ------

def dynnikov(word: BraidWord) -> tuple[int, ...]:
    """The coordinates (x_1, y_1, ..., x_n, y_n) the word reaches from
    (0, 1, ..., 0, 1), letters acting left to right; two words are the same
    braid iff their coordinates are equal (Dehornoy, Dynnikov, Rolfsen and
    Wiest, "Ordering Braids", AMS 2008, ch. 12). They count intersections of
    curves in the punctured disk with fixed arcs, so they grow only linearly
    in bits with the word length.
    """
    coords = (0, 1) * word.strand_count
    for index, sign in word.letters:
        coords = dynnikov_step(coords, index, sign)
    return coords


def dynnikov_step(coords: tuple[int, ...], index: int, sign: int) -> tuple[int, ...]:
    """The coordinates after one letter: only x_i, y_i, x_i+1, y_i+1 change."""
    k = 2 * index - 2
    return coords[:k] + _dynnikov_moved(*coords[k:k + 4], sign) + coords[k + 4:]


def _dynnikov_moved(a: int, b: int, c: int, d: int, sign: int) -> tuple[int, int, int, int]:
    """(x_i, y_i, x_i+1, y_i+1) after sigma_i^sign, from their values before."""
    b_minus, b_plus, d_minus, d_plus = min(b, 0), max(b, 0), min(d, 0), max(d, 0)
    if sign > 0:
        t = a - b_minus - c + d_plus
        return (a + b_plus + max(d_plus - t, 0), d - max(t, 0),
                c + d_minus + min(b_minus + t, 0), b + max(t, 0))
    t = a + b_minus - c - d_plus
    return (a - b_plus - max(d_plus + t, 0), d + min(t, 0),
            c - d_minus - min(b_minus - t, 0), b - min(t, 0))


def predicted_passes(word: BraidWord) -> list[int]:
    """The number of passes (links of position +-1) in each path of the
    word's normal form, in list order, from Dynnikov coordinates alone.

    The rule is empirical: it matches the engine on every word checked, but
    no proof is in hand. For path m, start from x_m = 1 and every other
    coordinate 0, and apply the letters in word order with each sign
    negated. With s_k = y_1 + ... + y_(k-1) and best the largest
    |x_k| + max(y_k, 0) + s_k, the path holds max(raw - 1, 0) passes, where
    raw is the sum over i of best - s_i + max(-y_i, 0), less n. It costs
    O(L + n) integer steps per path and builds no list, so it is a cheap,
    independent check where the lists are big.
    """
    n = word.strand_count
    counts = []
    for m in range(n):
        coords = [0] * (2 * n)
        coords[2 * m] = 1
        for index, sign in word.letters:
            k = 2 * index - 2
            coords[k:k + 4] = _dynnikov_moved(*coords[k:k + 4], -sign)
        xs, ys = coords[0::2], coords[1::2]
        sums = list(itertools.accumulate(ys[:-1], initial=0))
        best = max(abs(x) + max(y, 0) + below for x, y, below in zip(xs, ys, sums))
        raw = sum(best - below + max(-y, 0) for y, below in zip(ys, sums)) - n
        counts.append(max(raw - 1, 0))
    return counts


# -- Link <-> code conversion for tests written in terms of links -------------

def codes_of(links) -> list[int]:
    """Packed codes of Links or (point, position) pairs."""
    return [link_code(point, position) for point, position in links]


def text_of(links) -> str:
    """The text GBaseWord holds for Links or (point, position) pairs."""
    return "".join(map(chr, codes_of(links)))


def links_of(codes) -> list[Link]:
    return [code_link(code) for code in codes]


def gbase_of(strand_count: int, links) -> GBaseWord:
    return GBaseWord(strand_count, text_of(links))


def paths_of(gbase: GBaseWord) -> list[tuple[Link, ...]]:
    """The separator-delimited paths, in list order."""
    links = gbase.links
    starts = [k for k, link in enumerate(links) if link == SEPARATOR]
    return [links[start + 1:stop] for start, stop in zip(starts, starts[1:])]


@st.composite
def braid_words(draw, min_strands=2, max_strands=8, max_length=16) -> BraidWord:
    n = draw(st.integers(min_strands, max_strands))
    length = draw(st.integers(0, max_length))
    values = [
        draw(st.integers(1, n - 1)) * draw(st.sampled_from((1, -1)))
        for _ in range(length)
    ]
    return word_from_ints(n, values)


def random_valid_gbase(rng: random.Random, max_strands=6) -> GBaseWord:
    """A structurally valid, usually unreduced, list: random walks with
    optional sentinel blocks after separators and debris after endpoints."""
    n = rng.randint(1, max_strands)
    endpoints = list(range(1, n + 1))
    rng.shuffle(endpoints)
    links = [SEPARATOR]
    for endpoint in endpoints:
        if rng.random() < 0.25:  # sentinel block, below-passes only
            links.append(Link(rng.choice((0, n + 1)), -1))
            for _ in range(rng.randint(0, 2)):
                links.append(Link(rng.randint(1, n), -1))
        for _ in range(rng.randint(0, 6)):
            links.append(Link(rng.randint(1, n), rng.choice((-1, 1))))
        links.append(Link(endpoint, 0))
        for _ in range(rng.randint(0, 3) if rng.random() < 0.3 else 0):  # debris
            links.append(Link(rng.randint(1, n), rng.choice((-1, 1))))
        links.append(SEPARATOR)
    return gbase_of(n, links)


@st.composite
def valid_gbases(draw, max_strands=6) -> GBaseWord:
    return random_valid_gbase(random.Random(draw(st.integers(0, 2**48))), max_strands)


# -- Link-level reference twist, run by run, for the engine's twist ---------

@dataclasses.dataclass(frozen=True)
class LocalRun:
    """A maximal block links[start..end] with points in {i, i+1} and its neighbours."""
    start: int
    end: int
    before: int  # index of the link just before the run
    after: int   # index of the link just after the run


def find_local_runs(gbase: GBaseWord, index: int) -> list[LocalRun]:
    """Maximal runs of links with point in {index, index+1}, left to right."""
    if not 1 <= index <= gbase.strand_count - 1:
        raise ValueError(f"generator index {index} out of range for {gbase.strand_count} strands")
    runs = []
    points = (index, index + 1)
    start = None
    for k, link in enumerate(gbase.links):
        if link.point in points:
            if start is None:
                start = k
        elif start is not None:
            runs.append(LocalRun(start, k - 1, start - 1, k))
            start = None
    # the list ends with a separator, so a run never reaches the last index
    return runs


def twist_link(link: Link, index: int) -> Link:
    """Rotate one link by the half-twist at index: reflect its point across
    index + 1/2 and flip its position."""
    return Link(2 * index + 1 - link.point, -link.position)


def detach(first: Link, second: Link, index: int) -> list[Link]:
    """Below-passes inserted after a separator that directly precedes a run.

    `first` is the run's first link, `second` the following link of the path.
    A reduced path leaves the basepoint into the region at q = first.point
    only as the endpoint (q,0) before the separator, or as an above-pass
    (q,1) heading to the other twisted point or back to q's outer neighbour
    (index-1 for q = index, index+2 for q = index+1). It is nudged under
    that outer neighbour first, and under q as well when it turns back.
    """
    q = first.point
    if q in (index, index + 1):
        outer = index - 1 if q == index else index + 2
        if first.position == 0 and second == SEPARATOR:
            return [Link(outer, -1)]
        if first.position == 1 and second.point == 2 * index + 1 - q:
            return [Link(outer, -1)]
        if first.position == 1 and second.point == outer:
            return [Link(outer, -1), Link(q, -1)]
    raise InternalStateError(
        f"run after a separator starts {first} -> {second}, "
        f"which no detachment case covers"
    )


def prefix(index: int, sign: int, before_point: int) -> list[Link]:
    """The connector before a rotated run: passes at index and index+1,
    ordered away from the link before the run, below when that link is at
    index-1 and above otherwise, mirrored for a negative twist."""
    if before_point == index - 1:
        return [Link(index, -sign), Link(index + 1, -sign)]
    return [Link(index + 1, sign), Link(index, sign)]


def postfix(index: int, sign: int, after_point: int) -> list[Link]:
    """The connector after a rotated run: the prefix for the link after it,
    reversed."""
    return prefix(index, sign, after_point)[::-1]


def reference_apply(gbase: GBaseWord, letter: Letter) -> tuple[Link, ...]:
    """The unreduced twist of a reduced g-base, composed run by run from Links."""
    i = letter.index
    links = gbase.links
    out = []
    cursor = 0
    for run in find_local_runs(gbase, i):
        out.extend(links[cursor:run.start])
        run_links = list(links[run.start:run.end + 1])
        before = links[run.before]
        if before == SEPARATOR:
            added = detach(run_links[0], links[run.start + 1], i)
            before = added[0]
            out.append(before)
            run_links = added[1:] + run_links
        out.extend(prefix(i, letter.sign, before.point))
        out.extend(twist_link(link, i) for link in run_links)
        out.extend(postfix(i, letter.sign, links[run.after].point))
        cursor = run.end + 1
    out.extend(links[cursor:])
    return tuple(out)


# -- independent fixpoint oracle: apply rules atomically in random order -----

def rule_matches(out: list[Link]) -> list[tuple[str, int]]:
    matches = []
    for c in range(len(out) - 1):
        here, nxt = out[c], out[c + 1]
        if here == nxt and here.position != 0:
            matches.append(("R1", c))
        if here.position != 0 and nxt == Link(here.point, 0):
            matches.append(("R2", c))
        if here.position == 0 and here != SEPARATOR and nxt != SEPARATOR:
            matches.append(("R3", c))
        if here == SEPARATOR and nxt.position == -1:
            matches.append(("R4", c))
    return matches


def apply_rule(out: list[Link], rule: str, c: int) -> None:
    if rule == "R1":
        del out[c:c + 2]
    elif rule == "R2":
        del out[c]
    elif rule == "R3":
        stop = c + 1
        while out[stop] != SEPARATOR:
            stop += 1
        del out[c + 1:stop]
    else:
        stop = c + 1
        while stop < len(out) and out[stop].position == -1:
            stop += 1
        del out[c + 1:stop]


def chaotic_reduce(seq, rng: random.Random) -> list[Link]:
    """Reduce by firing random applicable rules until none applies."""
    out = list(seq)
    while matches := rule_matches(out):
        rule, c = rng.choice(matches)
        apply_rule(out, rule, c)
    return out


def find_forbidden_sequence(links) -> int | None:
    """Index of the first (p-1,e)(p,+-1)(p,-+1)(p+1,e) window, or None.

    Reachable reduced lists never wrap a puncture with an above-below pair
    this way; the scan backs the uniqueness claim in the suite.
    """
    for k in range(len(links) - 3):
        a, b, c, d = links[k:k + 4]
        if (
            b.point == c.point
            and b.position == -c.position
            and b.position != 0
            and a.point == b.point - 1
            and d.point == b.point + 1
            and a.position == d.position
        ):
            return k
    return None
