"""One letter of the solver's loop, engine.reduce_codes on the output of
engine.twist, against an independent twist and a full reduction: the
Link-level reference_apply (conftest) followed by engine.reduce_codes;
engine.reduce_codes resumed on a reduced prefix; and the loop over every
short word against Dynnikov coordinates. engine.step, which the loop runs,
must give that letter exactly, text and counters, on all of these lists and
on long ones where run blocks repeat."""

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidnf import engine
from braidnf.braidword import BraidWord, Letter, permutation_of_word
from braidnf.errors import InternalStateError
from braidnf.gbase import (
    GBaseWord,
    code_link,
    endpoints_permutation,
    format_gbase,
    parse_gbase,
    standard_gbase,
    twist_violation,
)
from braidnf.solver import TwistStats, apply_letter, process_word

from conftest import (
    braid_words,
    dynnikov_step,
    random_valid_gbase,
    reference_apply,
    text_of,
    valid_gbases,
    word_from_ints,
)


def whole_letter(text, index, sign):
    """One letter on a reduced list's text, the whole list twisted and then
    reduced link by link, as engine.step must reproduce it.

    Returns (text, inserted, visited, deleted): the reduced list after the
    letter, the links the twist added and the counters of reduce_codes on
    the output of engine.twist.
    """
    unreduced = engine.twist(text, index, sign)
    out, visited, deleted = engine.reduce_codes(unreduced)
    return out, len(unreduced) - len(text), visited, deleted


@settings(max_examples=150, deadline=None)
@given(braid_words(max_strands=12, max_length=24))
def test_step_text_is_the_solver_loop(word):
    # the tests below check this copy of one letter; process_word must run
    # the same step, letter for letter, with the same counters
    gbase, per_letter = process_word(word)
    text, steps = standard_gbase(word.strand_count).text, []
    for index, sign in word.letters:
        previous = text
        text, inserted, visited, deleted = whole_letter(text, index, sign)
        assert engine.step(previous, index, sign) == (text, visited, deleted)
        steps.append(TwistStats(len(previous), inserted, visited, deleted))
    assert (gbase.text, per_letter) == (text, steps)


def test_step_reduces_repeated_blocks_once():
    # long n=4 lists, where one run between the same two links recurs many
    # times in a letter: the blocks engine.step copies give the whole
    # letter's text and counters
    rng = random.Random(25)
    repeats = 0
    for _ in range(3):
        text = standard_gbase(4).text
        for _ in range(48):
            index, sign = rng.randint(1, 3), rng.choice((1, -1))
            parts = engine._twist_rules(index, sign)[0].split(text)
            keys = [(parts[p - 1][-1], parts[p], parts[p + 1][0]) for p in range(1, len(parts), 2)]
            repeats += len(keys) - len(set(keys))
            out, _, visited, deleted = whole_letter(text, index, sign)
            assert engine.step(text, index, sign) == (out, visited, deleted)
            text = out
    assert repeats > 10_000


def test_step_is_the_letter_on_any_reduced_list():
    # reduced lists that no word need reach: the links beside a run may lie
    # at any point, so a block's post connector and detach link depend on
    # the link after the run as well as on the run. step must give the
    # letter's text and counters, or raise what twist raises when no
    # detach case covers a run start
    outcomes = []
    for seed in range(400):
        gbase = random_valid_gbase(random.Random(seed))
        text = engine.reduce_codes(gbase.text)[0]
        for index in range(1, gbase.strand_count):
            for sign in (1, -1):
                try:
                    out, _, visited, deleted = whole_letter(text, index, sign)
                except InternalStateError as error:
                    with pytest.raises(InternalStateError) as raised:
                        engine.step(text, index, sign)
                    assert str(raised.value) == str(error)
                    outcomes.append("raised")
                else:
                    assert engine.step(text, index, sign) == (out, visited, deleted)
                    outcomes.append("stepped")
    assert min(outcomes.count("raised"), outcomes.count("stepped")) > 500


@pytest.mark.parametrize(
    "values, lead",
    # at index 1 the first run of the list of sigma_1 follows a separator,
    # that of sigma_1 sigma_2 the link (3,1)
    [([1], "\x01"), ([1, 2], "")],
    ids=["separator-led", "link-led"],
)
def test_step_reduces_the_whole_letter_when_a_block_vanishes(monkeypatch, values, lead):
    # no list that a word reaches has shown a block that reduces to nothing
    # (CHANGES.md gives the search), so the first block is made to:
    # reduce_codes hands back only the separator that leads it, if any. step
    # must then reduce the whole letter's twist output, in one more call, and
    # store nothing in the frame table, which starts empty so that the first
    # block is reduced rather than served from it
    text = process_word(word_from_ints(3, values))[0].text
    expected = {sign: whole_letter(text, 1, sign) for sign in (1, -1)}
    real_reduce, calls = engine.reduce_codes, []

    def reduce_codes(unreduced):
        calls.append(unreduced)
        return (lead, 0, 0) if len(calls) == 1 else real_reduce(unreduced)

    monkeypatch.setattr(engine, "_FRAME_BLOCKS", {})
    monkeypatch.setattr(engine, "reduce_codes", reduce_codes)
    for sign, (out, _, visited, deleted) in expected.items():
        calls.clear()
        assert engine.step(text, 1, sign) == (out, visited, deleted)
        rules = engine._twist_rules(1, sign)
        assert calls[0] == lead + engine._twist_run(rules, rules[0].split(text), 1)
        assert calls[1:] == [engine.twist(text, 1, sign)]
        assert engine._FRAME_BLOCKS == {}


def test_step_falls_back_on_a_list_whose_block_vanishes(monkeypatch):
    # a reduced list that twist_violation accepts, though no word is known to
    # reach it: under sigma_2 the run (2,1)(3,1)(2,-1)(3,-1) twists and
    # cancels with its connectors, so step reaches its fallback unpatched
    text = text_of([
        (-1, 0), (1, 1), (2, 1), (3, 1), (2, -1), (3, -1), (4, 1), (3, 0), (-1, 0),
        (1, 0), (-1, 0), (2, 0), (-1, 0), (4, 0), (-1, 0),
    ])
    assert twist_violation(GBaseWord(4, text)) is None
    out, _, visited, deleted = whole_letter(text, 2, 1)
    real_reduce, calls = engine.reduce_codes, []

    def reduce_codes(unreduced):
        calls.append(unreduced)
        return real_reduce(unreduced)

    monkeypatch.setattr(engine, "reduce_codes", reduce_codes)
    assert engine.step(text, 2, 1) == (out, visited, deleted)
    assert calls[-1] == engine.twist(text, 2, 1)


def n4_words():
    """Three 48-letter words at n=4, as (index, sign) pairs: long lists where
    run blocks repeat within and across letters."""
    rng = random.Random(25)
    return [
        [(rng.randint(1, 3), rng.choice((1, -1))) for _ in range(48)] for _ in range(3)
    ]


def counting_reduce(patch):
    """Patch engine.reduce_codes to record each text it reduces; returns the
    list of those texts."""
    real_reduce, calls = engine.reduce_codes, []

    def reduce_codes(unreduced):
        calls.append(unreduced)
        return real_reduce(unreduced)

    patch.setattr(engine, "reduce_codes", reduce_codes)
    return calls


def letter_steps(n, letters):
    """(text, index, sign, expected step result) for each letter of a word
    applied from the standard g-base, expected from whole_letter."""
    steps, text = [], standard_gbase(n).text
    for index, sign in letters:
        out, _, visited, deleted = whole_letter(text, index, sign)
        steps.append((text, index, sign, (out, visited, deleted)))
        text = out
    return steps


def assert_steps_empty_then_warm(n, letters):
    """Step each letter from the standard g-base, first with an empty frame
    table and then with the table that pass filled: each letter is
    whole_letter's, text and counters, and the second pass reduces nothing."""
    steps = letter_steps(n, letters)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_FRAME_BLOCKS", {})
        calls = counting_reduce(patch)
        for warm in (False, True):
            calls.clear()
            for text, index, sign, expected in steps:
                assert engine.step(text, index, sign) == expected
            assert len(engine._FRAME_BLOCKS) < engine.MAX_BLOCKS
            assert not (warm and calls)


@settings(max_examples=150, deadline=None)
@given(braid_words(max_strands=12, max_length=24))
def test_step_is_the_letter_with_an_empty_and_a_warm_table(word):
    assert_steps_empty_then_warm(word.strand_count, word.letters)


@pytest.mark.parametrize("word", range(3))
def test_step_is_the_letter_on_long_lists_with_an_empty_and_a_warm_table(word):
    assert_steps_empty_then_warm(4, n4_words()[word])


def test_step_serves_a_block_reduced_at_one_index_at_another(monkeypatch):
    # the standard g-base's two runs at index 1, (1,0) and (2,0) between
    # separators, are its runs at every other index in the frame of index 1:
    # once sigma_1 has reduced them, no other letter reduces a block
    n = 6
    text = standard_gbase(n).text
    expected = {
        (index, sign): whole_letter(text, index, sign)
        for index in range(1, n) for sign in (1, -1)
    }
    monkeypatch.setattr(engine, "_FRAME_BLOCKS", {})
    calls = counting_reduce(monkeypatch)
    for (index, sign), (out, _, visited, deleted) in expected.items():
        calls.clear()
        assert engine.step(text, index, sign) == (out, visited, deleted)
        assert len(calls) == (2 if index == 1 else 0), (index, sign)
    assert len(engine._FRAME_BLOCKS) == 2 * 2


def test_step_stays_exact_when_the_table_is_full(monkeypatch):
    monkeypatch.setattr(engine, "_FRAME_BLOCKS", {})
    monkeypatch.setattr(engine, "MAX_BLOCKS", 3)
    for letters in n4_words():
        for text, index, sign, expected in letter_steps(4, letters):
            assert engine.step(text, index, sign) == expected
            assert len(engine._FRAME_BLOCKS) <= 3
    assert len(engine._FRAME_BLOCKS) == 3


def test_step_stays_exact_when_threads_share_the_table(monkeypatch):
    # threads that fill one table at once, switched every microsecond so
    # that they interleave inside step, each get every letter exactly; a
    # thread checks the size before it inserts, so each can push the table
    # at most one entry past MAX_BLOCKS
    steps = [step for letters in n4_words() for step in letter_steps(4, letters)]
    monkeypatch.setattr(engine, "_FRAME_BLOCKS", {})
    monkeypatch.setattr(engine, "MAX_BLOCKS", 64)
    wrong = []

    def work():
        wrong.extend(step for step in steps if engine.step(*step[:3]) != step[3])

    threads = [threading.Thread(target=work) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert 64 <= len(engine._FRAME_BLOCKS) <= 64 + len(threads)


def frame_keys(text, index, sign):
    """The frame keys step may store for a letter: (sign, key) for each run
    whose neighbours are separators or lie at points i-1..i+2, the key being
    the link before, the run and the link after with every code but the
    separator's shifted down by 3(i-1); and the number of runs with a
    neighbour outside those points."""
    separator, shift = chr(1), 3 * (index - 1)
    keys, outside = set(), 0
    parts = engine._twist_rules(index, sign)[0].split(text)
    for p in range(1, len(parts), 2):
        key = parts[p - 1][-1] + parts[p] + parts[p + 1][0]
        if all(c == separator or index - 1 <= code_link(ord(c)).point <= index + 2
               for c in (key[0], key[-1])):
            keys.add((sign, "".join(c if c == separator else chr(ord(c) - shift) for c in key)))
        else:
            outside += 1
    return keys, outside


def test_step_stores_no_block_with_a_neighbour_outside_the_window(monkeypatch):
    # reduced lists that no word need reach, where the link before or after
    # a run may lie anywhere: step stays exact with the table shared by all
    # of them, and stores only the blocks whose neighbours lie in the window
    monkeypatch.setattr(engine, "_FRAME_BLOCKS", {})
    outside = 0
    for seed in range(400):
        gbase = random_valid_gbase(random.Random(seed))
        text = engine.reduce_codes(gbase.text)[0]
        for index in range(1, gbase.strand_count):
            for sign in (1, -1):
                try:
                    out, _, visited, deleted = whole_letter(text, index, sign)
                except InternalStateError:
                    continue
                before = set(engine._FRAME_BLOCKS)
                assert engine.step(text, index, sign) == (out, visited, deleted)
                keys, skipped = frame_keys(text, index, sign)
                assert set(engine._FRAME_BLOCKS) - before <= keys
                outside += skipped
    assert outside > 500


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
            out, inserted, visited, deleted = two_pass(n, text, index, sign)
            assert whole_letter(text, index, sign) == (out, inserted, visited, deleted)
            assert engine.step(text, index, sign) == (out, visited, deleted)


@pytest.mark.parametrize("n", [90, 20000])
def test_step_text_holds_wide_codes(n):
    # codes pass 255 at 90 strands, so the str needs two bytes per link, and
    # reach the surrogate range (0xD800) at 20000
    gbase = process_word(word_from_ints(n, [n - 1, -1, n // 2, n - 2, 2, 1 - n]))[0]
    assert max(map(ord, gbase.text)) > (255 if n == 90 else 0xD800)
    for index in (1, n // 2, n - 1):
        out, inserted, visited, deleted = two_pass(n, gbase.text, index, -1)
        assert whole_letter(gbase.text, index, -1) == (out, inserted, visited, deleted)
        assert engine.step(gbase.text, index, -1) == (out, visited, deleted)
    # the text form and a list rebuilt from its links give an equal value
    for rebuilt in (parse_gbase(format_gbase(gbase), n), GBaseWord(n, text_of(gbase.links))):
        assert rebuilt == gbase and hash(rebuilt) == hash(gbase)


@pytest.mark.parametrize(
    "pairs, message, fused_prefix, step_raises",
    [
        # a separator followed by (2,-1): no detach case covers it;
        # whole_letter and step name the link, the Link-level reference does
        # not
        (
            [(-1, 0), (2, -1), (1, 0), (-1, 0), (2, 0), (-1, 0)],
            r"no detachment case covers$",
            "link 1: ",
            True,
        ),
        # a gap of two separators: not reduced, but whole_letter reduces
        # the whole twist output, so it sees the pair; step copies that gap
        # unweighed, so it returns without an error
        (
            [(-1, 0), (1, 0), (-1, 0), (-1, 0), (2, 0), (-1, 0)],
            r"^adjacent equal position-0 links \(-1,0\) at output offset 3$",
            "",
            False,
        ),
        # an endpoint outside the region directly before a run: whole_letter
        # weighs the run's output after it, but step reduces the block apart
        # from that gap, which it copies unweighed, so it returns without an
        # error
        (
            [(-1, 0), (3, 0), (1, 0), (-1, 0), (2, 0), (-1, 0)],
            r"^position-0 link \(2,0\) in endpoint debris at output offset 2$",
            "",
            False,
        ),
    ],
    ids=["detach", "equal-position-0", "endpoint-debris"],
)
def test_whole_letter_raises_the_reference_error_and_step_the_detach_one(
    pairs, message, fused_prefix, step_raises
):
    text = text_of(pairs)
    with pytest.raises(InternalStateError, match=message) as two_steps:
        two_pass(2, text, 1, 1)
    with pytest.raises(InternalStateError) as fused:
        whole_letter(text, 1, 1)
    assert str(fused.value) == fused_prefix + str(two_steps.value)
    if step_raises:
        with pytest.raises(InternalStateError) as stepped:
            engine.step(text, 1, 1)
        assert str(stepped.value) == str(fused.value)


@settings(max_examples=200)
@given(valid_gbases(), st.integers(0, 2**32))
def test_reduce_resumes_on_a_reduced_prefix(gbase, salt):
    # reduce_codes on the stack it holds after a prefix, then the rest of
    # the list: cascades pop back into the prefix, and each link of the
    # reduced prefix is weighed once more
    text = gbase.text
    split = random.Random(salt).randint(1, len(text))
    stack, visited, deleted = engine.reduce_codes(text[:split])
    out, more_visited, more_deleted = engine.reduce_codes(stack + text[split:])
    assert (out, visited + more_visited - len(stack), deleted + more_deleted) == (
        engine.reduce_codes(text)
    )


@settings(max_examples=150, deadline=None)
@given(reduced_lists())
def test_reduce_weighs_a_reduced_list_once_per_link(case):
    # each link is weighed once and pushed; none is deleted
    text, _, _ = case
    assert engine.reduce_codes(text) == (text, len(text), 0)


def test_validated_lists_take_every_letter():
    # twist_violation refuses every reduced list the twist cannot take, so
    # on a list it accepts neither apply_letter nor step raises
    # InternalStateError, whether or not a word reaches the list
    accepted = 0
    for seed in range(1000):
        gbase = random_valid_gbase(random.Random(seed))
        text = engine.reduce_codes(gbase.text)[0]
        if twist_violation(GBaseWord(gbase.strand_count, text)) is not None:
            continue
        accepted += 1
        for index in range(1, gbase.strand_count):
            for sign in (1, -1):
                apply_letter(GBaseWord(gbase.strand_count, text), Letter(index, sign))
                engine.step(text, index, sign)
    assert accepted > 300


@pytest.mark.parametrize(
    "n, depth, freely_reduced",
    [(3, 7, False), (4, 5, False), (4, 6, True), (6, 4, True), (8, 4, True)],
)
def test_prefix_tree_agrees_with_dynnikov(n, depth, freely_reduced):
    # every word up to `depth` letters (with no letter right after its
    # inverse, if freely_reduced), one letter per node: each child steps its
    # parent's text and coordinates. Equal braids have equal coordinates, so
    # the normal forms are a complete invariant iff text -> coordinates is a
    # bijection over the nodes
    inverse = {Letter(i, sign): Letter(i, -sign) for i in range(1, n) for sign in (1, -1)}
    coords_of, text_of_coords = {}, {}
    nodes = [(standard_gbase(n).text, (0, 1) * n, ())]
    while nodes:
        text, coords, letters = nodes.pop()
        assert coords_of.setdefault(text, coords) == coords, letters
        assert text_of_coords.setdefault(coords, text) == text, letters
        assert endpoints_permutation(GBaseWord(n, text)) == permutation_of_word(
            BraidWord(n, letters)
        )
        if len(letters) == depth:
            continue
        for letter in inverse:
            if not (freely_reduced and letters and letters[-1] == inverse[letter]):
                out, _, visited, deleted = whole_letter(text, *letter)
                assert engine.step(text, *letter) == (out, visited, deleted), letters
                nodes.append((out, dynnikov_step(coords, *letter), letters + (letter,)))
