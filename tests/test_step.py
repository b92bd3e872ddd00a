"""engine.step_text against an independent twist and reduction: the Link-level
reference_apply (conftest) followed by engine.reduce_codes; and engine._push
on stacks of text pieces."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidnf import engine
from braidnf.braidword import Letter
from braidnf.errors import InternalStateError
from braidnf.gbase import GBaseWord, format_gbase, parse_gbase
from braidnf.solver import process_word

from conftest import reference_apply, text_of, valid_gbases, word_from_ints


def two_pass(n, text, index, sign):
    """(text, inserted, visited, deleted) of reduce_codes on the reference twist."""
    unreduced = text_of(reference_apply(GBaseWord(n, text), Letter(index, sign)))
    out, visited, deleted = engine.reduce_codes(unreduced)
    return out, len(unreduced) - len(text), visited, deleted


@st.composite
def reduced_lists(draw):
    """A process_word output at a strand count from a fixed set, the strand
    count, and a generator index."""
    n = draw(st.sampled_from((2, 3, 4, 8, 20, 90)))
    length = draw(st.integers(0, 24 if n <= 4 else 48))
    values = [
        draw(st.integers(1, n - 1)) * draw(st.sampled_from((1, -1)))
        for _ in range(length)
    ]
    return process_word(word_from_ints(n, values))[0].text, n, draw(st.integers(1, n - 1))


@settings(max_examples=150, deadline=None)
@given(reduced_lists())
def test_step_text_matches_twist_then_reduce(case):
    text, n, drawn = case
    # letters 1 and n-1 reach the detach cases that make points 0 and n+1
    for index in sorted({1, n - 1, drawn}):
        for sign in (1, -1):
            assert engine.step_text(text, index, sign) == two_pass(n, text, index, sign)


@pytest.mark.parametrize("n", [90, 20000])
def test_step_text_holds_wide_codes(n):
    # codes pass 255 at 90 strands, so the str needs two bytes per link, and
    # reach the surrogate range (0xD800) at 20000
    gbase = process_word(word_from_ints(n, [n - 1, -1, n // 2, n - 2, 2, 1 - n]))[0]
    assert max(map(ord, gbase.text)) > (255 if n == 90 else 0xD800)
    for index in (1, n // 2, n - 1):
        assert engine.step_text(gbase.text, index, -1) == two_pass(n, gbase.text, index, -1)
    # the text form and a list rebuilt from its links give an equal value
    for rebuilt in (parse_gbase(format_gbase(gbase), n), GBaseWord(n, text_of(gbase.links))):
        assert rebuilt == gbase and hash(rebuilt) == hash(gbase)


@pytest.mark.parametrize(
    "pairs, message, fused_prefix",
    [
        # a separator followed by (2,-1): no detach case covers it; step_text
        # names the link, the Link-level reference does not
        (
            [(-1, 0), (2, -1), (1, 0), (-1, 0), (2, 0), (-1, 0)],
            r"no detachment case covers$",
            "link 1: ",
        ),
        # a gap of two separators: not reduced, so outside step_text's
        # contract; step_text trusts a gap past its first link and only the
        # full scan of the two single steps sees the pair
        (
            [(-1, 0), (1, 0), (-1, 0), (-1, 0), (2, 0), (-1, 0)],
            r"^adjacent equal position-0 links \(-1,0\) at output offset 3$",
            None,
        ),
        # an endpoint outside the region directly before a run
        (
            [(-1, 0), (3, 0), (1, 0), (-1, 0), (2, 0), (-1, 0)],
            r"^position-0 link \(2,0\) in endpoint debris at output offset 2$",
            "",
        ),
    ],
    ids=["detach", "equal-position-0", "endpoint-debris"],
)
def test_step_text_raises_what_the_single_steps_raise(pairs, message, fused_prefix):
    text = text_of(pairs)
    with pytest.raises(InternalStateError, match=message) as two_steps:
        two_pass(2, text, 1, 1)
    if fused_prefix is not None:
        with pytest.raises(InternalStateError) as fused:
            engine.step_text(text, 1, 1)
        assert str(fused.value) == fused_prefix + str(two_steps.value)


def cut(text, rng):
    """`text` cut at random points into consecutive pieces, some of them empty."""
    points = sorted(rng.randint(0, len(text)) for _ in range(rng.randint(0, 6)))
    return [text[a:b] for a, b in zip([0, *points], [*points, len(text)])]


@settings(max_examples=200)
@given(valid_gbases(), st.integers(0, 2**32))
def test_push_onto_a_stack_of_text_pieces(gbase, salt):
    # the stack reduce_codes holds after a prefix, held as text cut into
    # random pieces, takes the rest of the list as one-link pieces: cascades
    # pop across the piece boundaries
    rng = random.Random(salt)
    text = gbase.text
    split = rng.randint(1, len(text))
    stack, visited, deleted = engine.reduce_codes(text[:split])
    pieces = cut(stack, rng)
    more_visited, more_deleted = engine._push(pieces, text[split:])
    expected = engine.reduce_codes(text)
    assert ("".join(pieces), visited + more_visited, deleted + more_deleted) == expected


@settings(max_examples=150, deadline=None)
@given(reduced_lists(), st.integers(0, 2**32))
def test_push_keeps_a_reduced_list_in_pieces(case, salt):
    # each piece is weighed once and copied; none of its links is deleted
    text, _, _ = case
    stack = [text[0]]
    visited, deleted = engine._push(stack, cut(text[1:], random.Random(salt)))
    assert ("".join(stack), visited, deleted) == (text, len(text) - 1, 0)
