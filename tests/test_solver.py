import dataclasses
import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidnf import engine, solver
from braidnf.braidword import Letter, concat, inverse, parse_word, permutation_of_word
from braidnf.errors import InternalStateError, ResourceLimitError
from braidnf.gbase import (
    MAX_TEXT_STRANDS,
    GBaseWord,
    endpoints_permutation,
    format_gbase,
    standard_gbase,
    validate,
)
from braidnf.oracle import oracle_equal
from braidnf.solver import TwistStats, is_identity, normal_form, process_word, words_equal

from conftest import (
    braid_words,
    find_forbidden_sequence,
    reference_reduced,
    rewritten,
    word_from_ints,
)


def test_empty_word_is_standard_base():
    gbase, stats = process_word(parse_word("", 3))
    assert gbase == standard_gbase(3)
    assert stats == []


def test_positive_generator_trace():
    gbase, _ = process_word(parse_word("1", 2))
    assert format_gbase(gbase) == "(-1,0) (2,0) (-1,0) (2,1) (1,0) (-1,0)"
    assert endpoints_permutation(gbase) == (2, 1)


def test_negative_generator_trace():
    gbase, _ = process_word(parse_word("-1", 2))
    assert format_gbase(gbase) == "(-1,0) (1,1) (2,0) (-1,0) (1,0) (-1,0)"


@pytest.mark.parametrize("text", ["1", "-1"])
def test_one_letter_counts_one_r2_retry(text):
    # Derived by hand from the standard list (-1,0) (1,0) (-1,0) (2,0) (-1,0).
    # Both runs follow a separator, so each gets a detach link and two
    # connectors: 10 inserted, 15 unreduced links. R4 drops the detach links
    # and the below-passes after them, R3 the debris after each endpoint: 8
    # deletions. The ninth is one R2 near-pass, the pre connector's last link
    # right before a rotated endpoint: (1,1) before (1,0) for "1", (2,1)
    # before (2,0) for "-1". The pop re-weighs the endpoint against the new
    # top, so 15 + 1 weighings, leaving the 6-link normal form.
    assert process_word(parse_word(text, 2))[1] == [TwistStats(5, 10, 16, 9)]


def test_inverse_pair_returns_standard_base():
    assert process_word(parse_word("1 -1", 2))[0] == standard_gbase(2)


@pytest.mark.parametrize(
    "w1, w2, n, expected",
    [
        ("1 2 1", "2 1 2", 3, True),
        ("1 3", "3 1", 4, True),
        ("1", "-1", 2, False),
    ],
)
def test_words_equal_examples(w1, w2, n, expected):
    assert words_equal(parse_word(w1, n), parse_word(w2, n)) is expected


def test_words_equal_rejects_mismatched_strand_counts():
    with pytest.raises(ValueError):
        words_equal(parse_word("1", 2), parse_word("1", 3))


def test_is_identity_examples():
    assert is_identity(parse_word("", 4))
    assert is_identity(parse_word("1 1 -1 -1", 2))
    commutator = parse_word("1 2 -1 -2", 3)
    assert not is_identity(commutator)
    assert not oracle_equal(commutator, parse_word("", 3))  # nontrivial indeed


def test_sigma1_positive_pure_words_are_not_trivial():
    # Dehornoy's property A: a sigma-positive braid is never trivial. Blocks
    # v sigma_1^2 v^-1, v over sigma_2..sigma_{n-1}, make a pure word, so
    # is_identity passes the permutation test and must decide on the g-base
    rng = random.Random(20261020)
    for n, length in ((3, 32), (8, 48), (20, 96), (80, 128)):
        for _ in range(10):
            values = []
            while length - len(values) >= 2:
                k = rng.randint(0, min(4, (length - len(values) - 2) // 2))
                v = [rng.randint(2, n - 1) * rng.choice((1, -1)) for _ in range(k)]
                values += v + [1, 1] + [-g for g in reversed(v)]
            word = word_from_ints(n, values)
            assert permutation_of_word(word) == tuple(range(1, n + 1))
            assert is_identity(word) is False, values


def test_process_word_is_deterministic():
    word = word_from_ints(5, [1, -3, 2, 2, -1, 4, -2])
    first = process_word(word)
    second = process_word(word)
    assert first[0] == second[0]
    assert first[1] == second[1]


@settings(max_examples=120, deadline=None)
@given(braid_words(max_strands=8, max_length=16))
def test_relation_invariance(word):
    n = word.strand_count
    relators = []
    if n >= 3:
        i = (len(word.letters) % (n - 2)) + 1
        relators.append(word_from_ints(n, [i, i + 1, i, -(i + 1), -i, -(i + 1)]))
    if n >= 4:
        relators.append(word_from_ints(n, [1, 3, -1, -3]))
    base, _ = process_word(word)
    for relator in relators:
        assert process_word(concat(word, relator))[0] == base
        assert process_word(concat(word, inverse(relator)))[0] == base


@settings(max_examples=120, deadline=None)
@given(braid_words(max_strands=8, max_length=16))
def test_inverse_law(word):
    assert process_word(concat(word, inverse(word)))[0] == standard_gbase(
        word.strand_count
    )


@settings(max_examples=120, deadline=None)
@given(braid_words(max_strands=8, max_length=16))
def test_outputs_reduced_lemma_clean_and_permutation_consistent(word):
    gbase, stats = process_word(word)
    assert validate(gbase, reduced_expected=True) is None
    assert find_forbidden_sequence(gbase.links) is None
    assert endpoints_permutation(gbase) == permutation_of_word(word)
    for s in stats:
        assert 0 <= s.links_inserted
        assert s.pre_reduce_length == s.links_visited + s.links_inserted
        assert s.reduce_links_visited <= 2 * s.pre_reduce_length + 2 * s.reduce_links_deleted


@settings(max_examples=60, deadline=None)
@given(braid_words(max_strands=5, max_length=8), st.integers(0, 10**6))
def test_agrees_with_free_group_action(word, salt):
    # compare against an unrelated word over the same strands
    other = word_from_ints(
        word.strand_count,
        [
            (k % (word.strand_count - 1)) + 1 if (salt >> k) & 1 else -((k % (word.strand_count - 1)) + 1)
            for k in range(salt % 7)
        ],
    )
    assert words_equal(word, other) == oracle_equal(word, other)


def step_failing_on_call(monkeypatch, failing):
    """Make engine.step raise on its `failing`-th call, one call per letter."""
    real_step = engine.step
    calls = []

    def step(text, index, sign):
        calls.append(None)
        if len(calls) == failing:
            raise InternalStateError("broken invariant")
        return real_step(text, index, sign)

    monkeypatch.setattr(engine, "step", step)


def test_internal_error_names_the_letter(monkeypatch):
    step_failing_on_call(monkeypatch, 4)
    with pytest.raises(InternalStateError, match=r"^letter 3 \(-2\): broken invariant$"):
        process_word(parse_word("1 2 -1 -2 1", 3))


def test_normal_form_names_the_letter_of_the_input_word(monkeypatch):
    step_failing_on_call(monkeypatch, 2)
    # 1 and -1 cancel across 3, so the second letter stepped is input letter 3
    with pytest.raises(InternalStateError, match=r"^letter 3 \(2\): broken invariant$") as info:
        normal_form(parse_word("1 3 -1 2 2", 4))
    assert isinstance(info.value.__cause__, InternalStateError)


def test_words_equal_names_the_letter_of_the_input_word(monkeypatch):
    step_failing_on_call(monkeypatch, 2)
    # 1 and -1 cancel across 3 in the first word, and the common prefix 3 3
    # goes, so the remainders are 2 2 (first letters 4, 5) and -2 -2; the
    # second letter stepped is letter 5 of the first word, not letter 1 of
    # its remainder
    first, second = parse_word("1 3 -1 3 2 2", 4), parse_word("3 3 -2 -2", 4)
    with pytest.raises(InternalStateError, match=r"^letter 5 \(2\): broken invariant$") as info:
        words_equal(first, second)
    assert isinstance(info.value.__cause__, InternalStateError)


def test_link_ceiling_names_the_letter_of_the_input_word(monkeypatch):
    # at n=3, 1 -2 1 -2 1 ... grows the list to 8, 12, 21, 37, 63 links
    monkeypatch.setattr("braidnf.gbase.MAX_LINKS", 63)
    assert len(process_word(parse_word("2 -2 1 -2 1 -2 1", 3))[0]) == 63
    monkeypatch.setattr("braidnf.gbase.MAX_LINKS", 62)
    refused = r"\): list of 63 links exceeds MAX_LINKS \(62\)$"
    # 2 -2 cancel (in the list for process_word, before the loop for
    # normal_form), and both name letter 6 of the word, not 4 of what follows
    word = parse_word("2 -2 1 -2 1 -2 1 -2 1", 3)
    for decide in (process_word, normal_form):
        with pytest.raises(ResourceLimitError, match=r"^letter 6 \(1" + refused):
            decide(word)
    # the common prefix 2 goes, and the first word's remainder 1 -2 1 -2 1
    # ... passes 62 links at letter 5 of the first word
    first = parse_word("2 1 -2 1 -2 1 -2 1 2 2", 3)
    second = parse_word("2 2 2 1 -2 1 -2 1 -2 1", 3)
    with pytest.raises(ResourceLimitError, match=r"^letter 5 \(1" + refused):
        words_equal(first, second)
    # a pure braid whose 1 1 -2 -2 1 1 grows the list to 8, 11, 18, 29, 49, 77
    with pytest.raises(ResourceLimitError, match=r"^letter 7 \(1\): list of 77 links"):
        is_identity(parse_word("2 -2 1 1 -2 -2 1 1 -2 -2", 3))


def test_visit_ceiling_names_the_letter_of_the_input_word(monkeypatch):
    # at n=3, 1 -2 1 -2 1 visits 25, 33, 46, 73 and 117 links, 294 in all
    word = parse_word("1 -2 1 -2 1", 3)
    monkeypatch.setattr("braidnf.gbase.MAX_VISITS", 294)
    assert len(process_word(word)[1]) == 5
    monkeypatch.setattr("braidnf.gbase.MAX_VISITS", 293)
    refused = r" links visited exceed MAX_VISITS \(293\)$"
    with pytest.raises(ResourceLimitError, match=r"^letter 4 \(1\): 294" + refused):
        process_word(word)
    # 2 -2 cancel before normal_form's loop, so it visits the same 294
    # links; process_word runs them too and visits 51 more; both name letter 6
    longer = parse_word("2 -2 1 -2 1 -2 1", 3)
    with pytest.raises(ResourceLimitError, match=r"^letter 6 \(1\): 294" + refused):
        normal_form(longer)
    with pytest.raises(ResourceLimitError, match=r"^letter 6 \(1\): 345" + refused):
        process_word(longer)
    # no common prefix or suffix: the first word runs whole
    first, second = parse_word("1 -2 1 -2 1 2 2", 3), parse_word("2 2 1 -2 1 -2 1", 3)
    with pytest.raises(ResourceLimitError, match=r"^letter 4 \(1\): 294" + refused):
        words_equal(first, second)


def test_twist_stats_are_frozen():
    stats = process_word(parse_word("1 2", 3))[1][0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        stats.links_visited = -5
    assert stats.links_visited == 7


def test_strand_count_beyond_the_text_range_is_refused():
    # raised before the standard g-base is built
    with pytest.raises(ResourceLimitError, match=str(MAX_TEXT_STRANDS)):
        process_word(parse_word("1", MAX_TEXT_STRANDS + 1))


def test_reduce_refuses_strands_beyond_the_text_range_first():
    # no GBaseWord holds more strands than its text can code, so reduce never
    # sees one: the two adjacent separators would fail require_valid, but
    # the constructor refuses first
    with pytest.raises(ResourceLimitError, match=str(MAX_TEXT_STRANDS)):
        solver.reduce(GBaseWord(MAX_TEXT_STRANDS + 1, "\x01\x01"))


def test_apply_letter_refuses_strands_beyond_the_text_range_first():
    # the same holds for the twist
    with pytest.raises(ResourceLimitError, match=str(MAX_TEXT_STRANDS)):
        solver.apply_letter(GBaseWord(MAX_TEXT_STRANDS + 1, "\x01\x01"), Letter(1, 1))


@pytest.fixture
def process_word_calls(monkeypatch):
    """Numbers of letters words_equal hands to process_word, one per call."""
    lengths = []

    def counting(word, *, _positions=None):
        lengths.append(len(word) if _positions is None else len(_positions))
        return process_word(word, _positions=_positions)

    monkeypatch.setattr(solver, "process_word", counting)
    return lengths


def test_different_permutations_skip_the_gbase(process_word_calls):
    assert not words_equal(parse_word("1 2 -3 1", 4), parse_word("2 2 -3 1", 4))
    assert not is_identity(parse_word("1 2 -1 -2 3", 4))
    assert process_word_calls == []


def test_same_word_skips_the_gbase(process_word_calls):
    word = word_from_ints(6, [1, -3, 2, 5, -4, 2, 2, -1])
    assert words_equal(word, word)
    # free reduction cancels in cascades
    assert words_equal(word, concat(word, word_from_ints(6, [3, 4, -4, -3])))
    assert words_equal(word_from_ints(3, [1, 2, -2, -1, 2]), word_from_ints(3, [2]))
    assert is_identity(word_from_ints(6, [1, 2, 3, -3, -2, -1]))
    assert process_word_calls == []


def test_cancellation_across_commuting_letters_skips_the_gbase(process_word_calls):
    assert words_equal(parse_word("1 3 -1", 4), parse_word("3", 4))
    assert is_identity(parse_word("1 3 2 -2 -1 -3", 4))
    assert process_word_calls == []


@pytest.mark.parametrize("n", [2, 3, 4, 8, 80])
def test_reduced_agrees_with_the_rescanning_reference(n):
    rng = random.Random(n)
    for _ in range(40):
        length = rng.randint(0, 256 if n == 80 else 40)
        word = word_from_ints(
            n, [rng.randint(1, n - 1) * rng.choice((1, -1)) for _ in range(length)]
        )
        assert solver._reduced(word.letters) == reference_reduced(word.letters)


def test_reduced_cancels_across_far_letters_only():
    word = parse_word("1 3 5 -1 2 -3 -5", 6)
    # 1 meets -1 across 3 and 5; 2 blocks 3 from -3, and -5 meets 5 across 2
    # and -3
    assert solver._reduced(word.letters) == [1, 4, 5]


def test_normal_form_matches_process_word_on_random_words():
    rng = random.Random(11)
    for n, length in [(2, 24), (3, 20), (4, 16), (8, 40), (20, 64), (80, 256)]:
        for _ in range(4):
            values = [rng.randint(1, n - 1) * rng.choice((1, -1)) for _ in range(length)]
            word = word_from_ints(n, values)
            assert normal_form(word) == process_word(word)[0]


@settings(max_examples=120, deadline=None)
@given(braid_words(max_strands=8, max_length=16), st.integers(0, 15), st.integers(1, 7))
def test_normal_form_matches_process_word(word, at, index):
    # wrap an inverse pair round a stretch of the word, so that far letters
    # often sit between the two
    n = word.strand_count
    index = min(index, n - 1)
    values = [letter.index * letter.sign for letter in word.letters]
    at = min(at, len(values))
    values[at:at + 2] = [index, *values[at:at + 2], -index]
    padded = word_from_ints(n, values)
    assert normal_form(padded) == process_word(padded)[0]
    assert normal_form(word) == process_word(word)[0]


def test_normal_form_at_the_text_range_allocates_nothing_per_strand():
    # _reduced keys its stacks by strand, so only the g-base itself is O(n)
    n = MAX_TEXT_STRANDS
    start = time.perf_counter()
    gbase = normal_form(parse_word(f"{n - 1} 1 {1 - n}", n))
    assert time.perf_counter() - start < 5
    assert len(gbase) == len(standard_gbase(n)) + 1


def test_common_prefix_and_suffix_are_stripped(process_word_calls):
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(3, 8)
        i = rng.randint(1, n - 1)
        # no letter on generator i next to the middle, so nothing cancels there
        p = [rng.randint(1, n - 1) * rng.choice((1, -1)) for _ in range(rng.randint(0, 12))]
        s = [rng.randint(1, n - 1) * rng.choice((1, -1)) for _ in range(rng.randint(0, 12))]
        p = [g for g in p if abs(g) != i]
        s = [g for g in s if abs(g) != i]
        first = word_from_ints(n, p + [i] + s)
        second = word_from_ints(n, p + [-i] + s)
        assert not words_equal(first, second)
    assert process_word_calls and set(process_word_calls) == {1}


def test_stripped_prefix_and_suffix_never_overlap():
    # here one reduced word is both a prefix and a suffix of the other, so the
    # prefix strip takes all of the shorter one; a suffix strip counting past
    # it would take the same letters again and call sigma_1^3 = sigma_1^5
    assert not words_equal(parse_word("1 1 1", 2), parse_word("1 1 1 1 1", 2))
    rng = random.Random(5)

    def values(n, length):
        return [rng.randint(1, n - 1) * rng.choice((1, -1)) for _ in range(length)]

    for n in (2, 3, 5):
        pairs = []
        # powers w^a against w^b, a != b
        for w in [[1], [-1]] + [values(n, rng.randint(1, 3)) for _ in range(4)]:
            pairs += [(w * a, w * b) for a, b in itertools.combinations(range(6), 2)]
        # p s against p v s, both ways round: v is a pure braid, so the
        # permutations agree
        for _ in range(10):
            p, s, v = values(n, rng.randint(0, 3)), values(n, rng.randint(0, 3)), values(n, 1) * 2
            pairs += [(p + s, p + v + s), (p + v + s, p + s)]
        for x, y in pairs:
            first, second = word_from_ints(n, x), word_from_ints(n, y)
            assert words_equal(first, second) == oracle_equal(first, second)


def test_strand_limit_comes_before_the_pre_pass():
    # the word refuses the strand count when it is built, so neither
    # verdict function sees one past the ceiling
    for text in ("1", "1 -1"):
        with pytest.raises(ResourceLimitError, match=f"exceeds {MAX_TEXT_STRANDS}$"):
            parse_word(text, MAX_TEXT_STRANDS + 1)
    with pytest.raises(ValueError):
        words_equal(parse_word("1", 3), parse_word("1", 2))


def test_long_words_agree_with_the_oracle(process_word_calls):
    # n=8, L=48: past the lengths where the acceptance sweeps check the oracle
    rng = random.Random(20260808)
    start = time.perf_counter()
    for k in range(40):
        values = [rng.randint(1, 7) * rng.choice((1, -1)) for _ in range(48)]
        calls_before = len(process_word_calls)
        if k % 2 == 0:
            other, expected = rewritten(values, rng, 4 * len(values)), True
        else:
            # invert two letters of one sign: the exponent sum moves by 4, so
            # the braid changes, while the permutation stays and the middle
            # segment between them still reaches process_word
            sign = rng.choice((1, -1))
            a, b = rng.sample([p for p, g in enumerate(values) if g * sign > 0], 2)
            other = list(values)
            other[a], other[b] = -other[a], -other[b]
            expected = False
        first, second = word_from_ints(8, values), word_from_ints(8, other)
        assert words_equal(first, second) is expected
        assert oracle_equal(first, second) is expected
        if not expected:
            assert len(process_word_calls) == calls_before + 2
    assert time.perf_counter() - start < 5
