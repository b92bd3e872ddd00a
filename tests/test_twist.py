import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidnf import engine
from braidnf.braidword import Letter
from braidnf.errors import InternalStateError, MalformedGBaseError
from braidnf.gbase import Link, standard_gbase, validate
from braidnf.solver import apply_letter, process_word, reduce

from conftest import (
    SEPARATOR,
    LocalRun,
    braid_words,
    detach,
    find_local_runs,
    gbase_of,
    paths_of,
    postfix,
    prefix,
    reference_apply,
    text_of,
    twist_link,
    word_from_ints,
)

SIGMA1_UNREDUCED_N2 = (
    "(-1,0) (0,-1) (1,-1) (2,-1) (2,0) (1,1) (2,1) "
    "(-1,0) (3,-1) (2,1) (1,1) (1,0) (1,1) (2,1) (-1,0)"
)


def links(*pairs):
    return tuple(Link(p, q) for p, q in pairs)


def test_find_runs_standard():
    runs = find_local_runs(standard_gbase(4), 2)
    assert runs == [LocalRun(3, 3, 2, 4), LocalRun(5, 5, 4, 6)]


def test_find_runs_spanning_two_points():
    g = gbase_of(3, links((-1, 0), (3, 1), (2, 0), (-1, 0), (1, 0), (-1, 0), (3, 0), (-1, 0)))
    runs = find_local_runs(g, 2)
    assert runs[0] == LocalRun(1, 2, 0, 3)
    assert g.links[runs[0].before] == SEPARATOR


def test_find_runs_locality():
    # the path ending at puncture 4 holds no run for the first generator
    runs = find_local_runs(standard_gbase(4), 1)
    assert all(run.start <= 3 for run in runs)
    assert len(runs) == 2


def test_find_runs_rejects_bad_index():
    with pytest.raises(ValueError):
        find_local_runs(standard_gbase(3), 3)


@pytest.mark.parametrize(
    "first, second, i, expected",
    [
        # run is the endpoint itself; boundary generators force virtual points
        ((1, 0), (-1, 0), 1, [(0, -1)]),
        ((3, 0), (-1, 0), 3, [(2, -1)]),
        ((3, 0), (-1, 0), 2, [(4, -1)]),
        ((4, 0), (-1, 0), 3, [(5, -1)]),
        # above-pass turning right/left at either twisted point
        ((3, 1), (2, 0), 2, [(4, -1)]),
        ((2, 1), (1, 0), 2, [(1, -1), (2, -1)]),
        ((2, 1), (3, 1), 2, [(1, -1)]),
        ((3, 1), (4, -1), 2, [(4, -1), (3, -1)]),
    ],
)
def test_separator_detach_cases(first, second, i, expected):
    out = detach(Link(*first), Link(*second), i)
    assert out == [Link(*pair) for pair in expected]


def test_separator_detach_rejects_uncovered_pattern():
    with pytest.raises(InternalStateError):
        detach(Link(2, -1), Link(1, 0), 2)
    with pytest.raises(InternalStateError):
        detach(Link(2, 1), Link(2, -1), 2)


def test_twist_names_the_run_with_no_detach_case():
    # a separator followed by (2,-1): no reduced path leaves the basepoint so
    with pytest.raises(InternalStateError, match="link 1"):
        engine.twist("".join(map(chr, [1, 9, 7, 1, 10, 1])), 1, 1)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_every_detach_pair_matches_the_reference(n):
    # right after a separator, every region link first and every link at
    # points i-1..i+2 or the separator second: the 14 pairs of the detach
    # table detach as the reference does, and every other pair raises in
    # both (a below-pass first, which R4 deletes after a separator; an
    # endpoint not followed by the separator, which R3 forbids; an
    # above-pass followed by its own point or by the separator, which a
    # reduced path never is). None is skipped: the table pairs a reduced
    # list cannot hold, those with a second link at the virtual point 0 or
    # n+1, agree too.
    for i in range(1, n):
        firsts = [Link(p, q) for p in (i, i + 1) for q in (-1, 0, 1)]
        seconds = [SEPARATOR] + [Link(p, q) for p in range(i - 1, i + 3) for q in (-1, 0, 1)]
        for sign in (1, -1):
            detached = 0
            for first in firsts:
                for second in seconds:
                    pairs = [SEPARATOR, first, second] + [SEPARATOR] * (second != SEPARATOR)
                    text = text_of(pairs)
                    try:
                        expected = reference_apply(gbase_of(n, pairs), Letter(i, sign))
                    except InternalStateError:
                        with pytest.raises(InternalStateError, match="no detachment case"):
                            engine.twist(text, i, sign)
                        continue
                    assert engine.twist(text, i, sign) == text_of(expected)
                    detached += 1
            assert detached == 14


@pytest.mark.parametrize(
    "link, i, expected",
    [((2, 0), 2, (3, 0)), ((3, 1), 2, (2, -1)), ((2, -1), 2, (3, 1)), ((2, 1), 2, (3, -1))],
)
def test_twist_link(link, i, expected):
    assert twist_link(Link(*link), i) == Link(*expected)


@given(st.integers(1, 9), st.integers(-1, 1), st.integers(1, 8))
def test_twist_link_involution(point, position, i):
    link = Link(point, position)
    assert twist_link(twist_link(link, i), i) == link


def test_connector_tables():
    assert prefix(1, 1, 0) == [Link(1, -1), Link(2, -1)]
    assert prefix(1, 1, 3) == [Link(2, 1), Link(1, 1)]
    assert prefix(2, -1, 1) == [Link(2, 1), Link(3, 1)]
    assert prefix(2, -1, 4) == [Link(3, -1), Link(2, -1)]
    assert postfix(2, 1, 1) == [Link(3, -1), Link(2, -1)]
    assert postfix(2, 1, 4) == [Link(2, 1), Link(3, 1)]
    assert postfix(1, -1, 0) == [Link(2, 1), Link(1, 1)]
    # successor is the separator: routed right, reduced away afterwards
    assert postfix(1, -1, -1) == [Link(1, -1), Link(2, -1)]


def test_apply_letter_full_trace():
    unreduced, stats = apply_letter(standard_gbase(2), Letter(1, 1))
    assert " ".join(str(l) for l in unreduced.links) == SIGMA1_UNREDUCED_N2
    assert stats.links_visited == 5
    assert stats.links_inserted == 10
    assert stats.pre_reduce_length == 15


def test_apply_negative_letter_reduces_to_expected():
    unreduced, _ = apply_letter(standard_gbase(2), Letter(1, -1))
    assert reduce(unreduced).links == links(
        (-1, 0), (1, 1), (2, 0), (-1, 0), (1, 0), (-1, 0)
    )


@pytest.mark.parametrize(
    "letter",
    [Letter(2, 1), Letter(0, 1), Letter(1, 0), Letter(1, 2), Letter(1, -7)],
    ids=["index2", "index0", "sign0", "sign2", "sign-7"],
)
def test_apply_letter_rejects_out_of_range_index(letter):
    # Letter checks nothing itself, so apply_letter must reject a bad sign
    with pytest.raises(ValueError):
        apply_letter(standard_gbase(2), letter)


@pytest.mark.parametrize(
    "pairs",
    [
        [(1, 0), (-1, 0), (2, 0), (-1, 0)],  # no leading separator
        [(-1, 0), (1, 0), (-1, 0), (2, 0)],  # no trailing separator
        [(-1, 0), (1, -1), (1, 0), (-1, 0), (2, 0), (-1, 0)],  # unreduced
    ],
)
def test_apply_letter_rejects_malformed_input(pairs):
    with pytest.raises(MalformedGBaseError):
        apply_letter(gbase_of(2, pairs), Letter(1, 1))


def test_apply_letter_rejects_a_start_no_detach_case_covers():
    # reduced in every other sense, but the third path leaves the basepoint
    # (1,1)(4,1), which no word reaches and the twist cannot detach
    pairs = [
        (-1, 0), (3, 0), (-1, 0), (2, 1), (1, -1), (2, 0), (-1, 0), (1, 1), (4, 1),
        (2, 1), (1, 0), (-1, 0), (4, 0), (-1, 0),
    ]
    with pytest.raises(MalformedGBaseError, match="more than one point apart"):
        apply_letter(gbase_of(4, pairs), Letter(1, 1))


def test_apply_letter_leaves_untouched_paths_alone():
    # a path holding no link with point in {i, i+1} is not affected at all
    g, _ = process_word(word_from_ints(4, [3, -2, 3]))
    unreduced, _ = apply_letter(g, Letter(1, 1))
    touched = {1, 2}
    before = [p for p in paths_of(g) if not any(l.point in touched for l in p)]
    after = list(paths_of(unreduced))
    assert before and all(path in after for path in before)


@given(braid_words(max_strands=6, max_length=10))
def test_apply_letter_conserves_separators_and_endpoints(word):
    g, _ = process_word(word)
    for index in range(1, word.strand_count):
        for sign in (1, -1):
            unreduced, stats = apply_letter(g, Letter(index, sign))
            assert sum(1 for l in unreduced.links if l == SEPARATOR) == word.strand_count + 1
            assert sorted(
                l.point for l in unreduced.links if l.position == 0 and l != SEPARATOR
            ) == list(range(1, word.strand_count + 1))
            assert stats.pre_reduce_length <= 4 * stats.links_visited + 6
            assert stats.pre_reduce_length == stats.links_visited + stats.links_inserted
            assert validate(unreduced) is None


@given(braid_words(max_strands=6, max_length=10))
def test_positive_then_negative_twist_is_identity(word):
    g, _ = process_word(word)
    for index in (1, word.strand_count - 1):
        for first in (1, -1):
            once = reduce(apply_letter(g, Letter(index, first))[0])
            back = reduce(apply_letter(once, Letter(index, -first))[0])
            assert back == g


@given(braid_words(max_strands=7, max_length=12))
def test_apply_letter_matches_reference_composition(word):
    g, _ = process_word(word)
    for index in range(1, word.strand_count):
        for sign in (1, -1):
            unreduced, _ = apply_letter(g, Letter(index, sign))
            assert unreduced.links == reference_apply(g, Letter(index, sign))
