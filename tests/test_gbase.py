import sys

import pytest
from hypothesis import given

from braidnf.errors import MalformedGBaseError, ResourceLimitError
from braidnf.gbase import (
    MAX_LINKS,
    MAX_TEXT_STRANDS,
    GBaseWord,
    Link,
    Violation,
    endpoints_permutation,
    format_gbase,
    parse_gbase,
    standard_gbase,
    twist_violation,
    validate,
)
from braidnf.solver import process_word, reduce

from conftest import SEPARATOR, braid_words, gbase_of, paths_of, valid_gbases

FIGURE_TEXT = (
    "(-1,0) (1,1) (2,0) (-1,0) (1,0) (-1,0) (4,0) (-1,0) (4,1) (3,0) (-1,0)"
)


def links(*pairs):
    return tuple(Link(p, q) for p, q in pairs)


def test_standard_gbase_small():
    assert standard_gbase(1).links == links((-1, 0), (1, 0), (-1, 0))
    assert standard_gbase(2).links == links((-1, 0), (1, 0), (-1, 0), (2, 0), (-1, 0))


def test_standard_gbase_shape():
    g = standard_gbase(4)
    assert sum(1 for l in g.links if l == SEPARATOR) == 5
    assert [l.point for l in g.links if l.position == 0 and l != SEPARATOR] == [1, 2, 3, 4]


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_standard_gbase_is_reduced_straight_segment_encoding(n):
    # encoding each straight segment with its below-passes and reducing
    # must land on the emitted form: rule 4 deletes every below-pass
    raw = [SEPARATOR]
    for point in range(1, n + 1):
        raw.extend(Link(j, -1) for j in range(1, point))
        raw.append(Link(point, 0))
        raw.append(SEPARATOR)
    assert reduce(gbase_of(n, raw)) == standard_gbase(n)
    assert validate(standard_gbase(n), reduced_expected=True) is None


def test_standard_gbase_rejects_bad_strand_count():
    with pytest.raises(MalformedGBaseError):
        standard_gbase(0)


def test_validate_accepts_standard():
    assert validate(standard_gbase(3), reduced_expected=True) is None


def test_validate_flags_below_pass_after_separator():
    g = gbase_of(1, links((-1, 0), (1, -1), (1, 0), (-1, 0)))
    assert validate(g) is None  # structurally fine, just unreduced
    violation = validate(g, reduced_expected=True)
    assert violation is not None and violation.index == 1
    assert "below-pass" in violation.reason


def test_validate_flags_repeated_endpoint():
    g = gbase_of(2, links((-1, 0), (1, 0), (-1, 0), (1, 0), (-1, 0)))
    violation = validate(g)
    assert violation is not None and "permutation" in violation.reason


VIOLATION_ROWS = [
    # (n, pairs, reduced_expected, index, fragment): each reaches one reason
    (1, [(1, 0)], False, 0, "start with"),
    (1, [(-1, 0), (1, 0)], False, 1, "end with"),
    (1, [(-1, 0), (-1, 0)], False, 1, "no endpoint"),
    (1, [(-1, 0), (1, 1), (-1, 0)], False, 2, "no endpoint"),
    (2, [(-1, 0), (1, 0), (2, 0), (-1, 0)], False, 2, "second position-0"),
    (1, [(-1, 0), (1, 0), (-1, 0), (1, 0), (-1, 0)], False, 4, "separators"),
    (1, [(-1, 0), (3, 1), (1, 0), (-1, 0)], False, 1, "out of range"),
    (1, [(-1, 0), (1, 1), (0, -1), (1, 0), (-1, 0)], False, 2, "not adjacent to a separator"),
    (1, [(-1, 0), (2, 1), (1, 0), (-1, 0)], False, 1, "virtual point 2 must have position -1"),
    (1, [(-1, 0), (-1, 1), (1, 0), (-1, 0)], False, 1,
     "basepoint link must be (-1,0), got (-1,1)"),
    (2, [(-1, 0), (1, 1), (1, 1), (2, 0), (-1, 0), (1, 0), (-1, 0)], True, 1,
     "adjacent equal links"),
    (1, [(-1, 0), (1, 1), (1, 0), (-1, 0)], True, 1, "directly before its endpoint"),
    (2, [(-1, 0), (1, 0), (2, 1), (-1, 0), (2, 0), (-1, 0)], True, 2,
     "link between an endpoint and the next separator"),
    # a sentinel always follows a separator, so the below-pass check fires first
    (1, [(-1, 0), (0, -1), (1, 0), (-1, 0)], True, 1, "below-pass directly after a separator"),
]


@pytest.mark.parametrize(
    "n, pairs, reduced, index, fragment",
    VIOLATION_ROWS,
    ids=[f"{row[0]}-pairs{k}-{row[4]}" for k, row in enumerate(VIOLATION_ROWS)],
)
def test_validate_flags_structural_violations(n, pairs, reduced, index, fragment):
    violation = validate(gbase_of(n, pairs), reduced_expected=reduced)
    assert violation is not None
    assert violation.index == index
    assert fragment in violation.reason


@pytest.mark.parametrize(
    "n, pairs, reason",
    [
        (3, [(-1, 0), (1, 1), (3, 0), (-1, 0), (1, 0), (-1, 0), (2, 0), (-1, 0)],
         "(1,1)(3,0) lie more than one point apart"),
        (2, [(-1, 0), (1, 1), (1, -1), (2, 0), (-1, 0), (1, 0), (-1, 0)],
         "path starts (1,1)(1,-1) at one point"),
    ],
    ids=["jump", "doubled-start"],
)
def test_twist_violation_flags_reduced_lists_no_word_reaches(n, pairs, reason):
    g = gbase_of(n, pairs)
    assert validate(g, reduced_expected=True) is None
    assert twist_violation(g) == Violation(2, reason)


def test_twist_violation_reports_reduced_mode_first():
    g = gbase_of(1, links((-1, 0), (1, -1), (1, 0), (-1, 0)))
    violation = validate(g, reduced_expected=True)
    assert violation is not None and twist_violation(g) == violation


def test_figure_list_parses_and_round_trips():
    g = parse_gbase(FIGURE_TEXT, 4)
    assert validate(g, reduced_expected=True) is None
    assert format_gbase(g) == FIGURE_TEXT
    assert endpoints_permutation(g) == (2, 1, 4, 3)


def test_format_standard():
    assert format_gbase(standard_gbase(2)) == "(-1,0) (1,0) (-1,0) (2,0) (-1,0)"


@pytest.mark.parametrize(
    "text",
    ["(0,2)", "(1;0)", "1,0", "(a,b)", "(1,0,2)"]
    # int() reads each of these tokens as (1,0), which would make the list
    # valid; only ASCII digits count
    + [f"(-1,0) {token} (-1,0) (2,0) (-1,0) (3,0) (-1,0)"
       for token in ("(0_1,0)", "(\u0661,0)", "(1,\uff10)")],
)
def test_parse_rejects_malformed_tokens(text):
    with pytest.raises(MalformedGBaseError):
        parse_gbase(text, 3)


@pytest.mark.parametrize(
    "token", [f"({'1' * 5000},0)", f"(1,{'0' * 5000})"], ids=["point", "position"]
)
def test_parse_rejects_integers_past_the_digit_limit(token):
    # int() refuses more than 4,300 digits with the interpreter's ValueError
    with pytest.raises(MalformedGBaseError, match=r"5004 characters starting '\(1"):
        parse_gbase(f"(-1,0) {token} (-1,0)", 3)


@pytest.mark.parametrize(
    "n, text",
    [
        # code 3 * (n + 2) + 2 is past sys.maxunicode: no character holds it
        (MAX_TEXT_STRANDS, f"(-1,0) ({MAX_TEXT_STRANDS + 1},1) (-1,0)"),
        (MAX_TEXT_STRANDS, f"(-1,0) ({MAX_TEXT_STRANDS + 2},-1) (1,0) (-1,0)"),
        (2, "(-1,0) (1,0) (-1,0) (4,-1) (2,0) (-1,0)"),
    ],
    ids=["virtual-above-at-ceiling", "past-virtual-at-ceiling", "past-virtual"],
)
def test_parse_rejects_points_past_the_virtual_point(n, text):
    with pytest.raises(MalformedGBaseError, match="out of range"):
        parse_gbase(text, n)


def test_text_range_is_the_strand_ceiling():
    # a below-pass at the virtual point n + 1 is the largest code
    assert 3 * (MAX_TEXT_STRANDS + 2) <= sys.maxunicode < 3 * (MAX_TEXT_STRANDS + 3)
    n = MAX_TEXT_STRANDS + 1
    # each check comes before anything is built
    for build in (lambda: GBaseWord(n, "\x01"), lambda: standard_gbase(n),
                  lambda: parse_gbase("(-1,0)", n)):
        with pytest.raises(ResourceLimitError, match=str(n)):
            build()


def test_link_ceiling_holds_every_standard_gbase():
    # so no list is checked against MAX_LINKS before it is built
    assert MAX_LINKS >= 2 * MAX_TEXT_STRANDS + 1


def test_parse_rejects_structurally_invalid():
    with pytest.raises(MalformedGBaseError):
        parse_gbase("(-1,0) (1,0) (-1,0) (1,0) (-1,0)", 2)


def test_parse_rejects_out_of_range_pair_that_aliases_a_valid_code():
    # (0,2) packs to the code of (1,-1), which would make this a valid list
    assert gbase_of(1, [(0, 2)]) == gbase_of(1, [(1, -1)])
    with pytest.raises(MalformedGBaseError):
        parse_gbase("(-1,0) (0,2) (1,0) (-1,0)", 1)


@given(valid_gbases())
def test_parse_format_round_trip(gbase):
    assert parse_gbase(format_gbase(gbase), gbase.strand_count) == gbase


@given(braid_words(max_strands=6, max_length=10))
def test_links_and_text_rebuild_equal_values(word):
    g, _ = process_word(word)
    rebuilt = gbase_of(g.strand_count, g.links)
    assert rebuilt == g and hash(rebuilt) == hash(g)
    assert parse_gbase(format_gbase(g), g.strand_count) == g


def test_endpoints_permutation_standard_is_identity():
    for n in (1, 2, 5):
        assert endpoints_permutation(standard_gbase(n)) == tuple(range(1, n + 1))


def test_paths_iteration():
    g = parse_gbase(FIGURE_TEXT, 4)
    assert [len(p) for p in paths_of(g)] == [2, 1, 1, 2]
