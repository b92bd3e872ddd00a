import random

import pytest
from hypothesis import given, settings

from braidnf import engine
from braidnf.errors import InternalStateError, MalformedGBaseError
from braidnf.gbase import Link, standard_gbase, validate
from braidnf.solver import reduce

from conftest import (
    chaotic_reduce,
    find_forbidden_sequence,
    gbase_of,
    links_of,
    random_valid_gbase,
    text_of,
    valid_gbases,
)


def links(*pairs):
    return [Link(p, q) for p, q in pairs]


def reduce_fragment(fragment):
    """The engine's reducer on a separator-delimited fragment of a list."""
    out, _, _ = engine.reduce_codes(text_of(fragment))
    return links_of(map(ord, out))


# -- spec'd example behavior --------------------------------------------------

def test_reduce_twist_debris_path():
    # path 1 of the positive-first-generator trace on two strands
    fragment = links(
        (-1, 0), (0, -1), (1, -1), (2, -1), (2, 0), (1, 1), (2, 1), (-1, 0)
    )
    assert reduce_fragment(fragment) == links((-1, 0), (2, 0), (-1, 0))


def test_reduce_equal_pair_path():
    fragment = links((-1, 0), (3, 1), (3, 1), (2, 0), (-1, 0))
    assert reduce_fragment(fragment) == links((-1, 0), (2, 0), (-1, 0))
    # same rewrite inside a complete list
    g = gbase_of(
        3,
        links((-1, 0), (3, 1), (3, 1), (2, 0), (-1, 0), (1, 0), (-1, 0), (3, 0), (-1, 0)),
    )
    assert reduce(g).links == tuple(
        links((-1, 0), (2, 0), (-1, 0), (1, 0), (-1, 0), (3, 0), (-1, 0))
    )


def test_reduce_near_pass_before_endpoint():
    fragment = links((-1, 0), (2, 1), (2, 0), (-1, 0))
    assert reduce_fragment(fragment) == links((-1, 0), (2, 0), (-1, 0))


def test_reduce_fixpoint_on_reduced_input():
    g = standard_gbase(3)
    assert reduce(g) == g


def test_reduce_rejects_structurally_invalid():
    g = gbase_of(2, links((-1, 0), (1, 0), (-1, 0), (1, 0), (-1, 0)))
    with pytest.raises(MalformedGBaseError):
        reduce(g)


def test_reduce_core_raises_on_equal_position0_links():
    with pytest.raises(InternalStateError, match="at output offset 1"):
        reduce_fragment(links((-1, 0), (-1, 0)))


@settings(max_examples=300)
@given(valid_gbases())
def test_reduce_idempotent_and_valid(gbase):
    once = reduce(gbase)
    assert validate(once, reduced_expected=True) is None
    assert reduce(once) == once


@settings(max_examples=200)
@given(valid_gbases())
def test_reduce_conserves_path_structure(gbase):
    reduced = reduce(gbase)
    position0 = [l for l in gbase.links if l.position == 0]
    assert [l for l in reduced.links if l.position == 0] == position0


@settings(max_examples=200)
@given(valid_gbases())
def test_reduce_matches_randomized_rule_order(gbase):
    rng = random.Random(sum(l.point for l in gbase.links))
    expected = chaotic_reduce(gbase.links, rng)
    assert list(reduce(gbase).links) == expected


@settings(max_examples=200)
@given(valid_gbases())
def test_reduce_visit_budget(gbase):
    _, visited, deleted = engine.reduce_codes(gbase.text)
    assert visited <= 2 * len(gbase) + 2 * deleted


def test_reduce_visit_budget_large_random():
    rng = random.Random(11)
    for _ in range(500):
        g = random_valid_gbase(rng)
        _, visited, deleted = engine.reduce_codes(g.text)
        assert visited <= 2 * len(g) + 2 * deleted


def test_forbidden_sequence_scan():
    assert find_forbidden_sequence(links((1, 1), (2, 1), (2, -1), (3, 1))) == 0
    assert find_forbidden_sequence(links((1, 0), (2, -1), (2, 1), (3, 0))) == 0
    assert find_forbidden_sequence(links((1, 1), (2, 1), (2, -1), (3, -1))) is None
    assert find_forbidden_sequence(links((1, 1), (2, 1), (2, 1), (3, 1))) is None
    assert find_forbidden_sequence(links((1, 1), (3, 1), (3, -1), (4, 1))) is None
    assert find_forbidden_sequence(standard_gbase(5).links) is None
