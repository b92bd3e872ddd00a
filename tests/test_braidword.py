import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidnf.braidword import (
    BraidWord,
    Letter,
    concat,
    format_word,
    inverse,
    parse_word,
    permutation_of_word,
)
from braidnf.errors import MalformedWordError, ResourceLimitError
from braidnf.gbase import MAX_TEXT_STRANDS
from braidnf.oracle import oracle_equal
from braidnf.prng import SplitMix64, random_word
from braidnf.solver import words_equal

from conftest import braid_words, word_from_ints


def test_parse_figure_word():
    word = parse_word("1 -2 1 3", 4)
    assert word.letters == (Letter(1, 1), Letter(2, -1), Letter(1, 1), Letter(3, 1))
    assert word.strand_count == 4


def test_parse_empty():
    assert parse_word("", 5) == BraidWord(5, ())
    assert parse_word("   ", 5) == BraidWord(5, ())


@pytest.mark.parametrize(
    "text, n",
    # int() takes the last four as 10, 3, 1 and 3; only ASCII digits count
    [("3", 3), ("0", 4), ("x", 4), ("5", 2), ("1 2 9", 4),
     ("1_0", 12), ("\u0663", 4), ("1 \uff11", 3), ("-\u0663", 4)],
)
def test_parse_rejects_bad_tokens(text, n):
    with pytest.raises(MalformedWordError) as excinfo:
        parse_word(text, n)
    assert text.split()[-1] in str(excinfo.value)


@pytest.mark.parametrize(
    "token", ["1" * 5000, "-" + "0" * 4998 + "1"], ids=["digits", "sign-and-zeros"]
)
def test_parse_rejects_integers_past_the_digit_limit(token):
    # int() refuses more than 4,300 digits with the interpreter's ValueError
    with pytest.raises(MalformedWordError, match="5000 characters starting") as excinfo:
        parse_word(f"1 {token}", 3)
    assert token[:10] in str(excinfo.value)


def test_parse_rejects_any_letter_on_one_strand():
    with pytest.raises(MalformedWordError):
        parse_word("1", 1)
    assert parse_word("", 1).letters == ()


@pytest.mark.parametrize(
    "text", ["1 -2 1 3", "", "-2", "1 1 1", "-3 3"]
)
def test_format_round_trip(text):
    assert format_word(parse_word(text, 4)) == text


@given(braid_words())
def test_parse_format_identity(word):
    assert parse_word(format_word(word), word.strand_count) == word


def test_inverse_examples():
    assert format_word(inverse(parse_word("1 -2", 3))) == "2 -1"
    assert format_word(inverse(parse_word("", 3))) == ""
    assert format_word(inverse(parse_word("3 3", 4))) == "-3 -3"


@given(braid_words())
def test_inverse_is_involution(word):
    assert inverse(inverse(word)) == word


def test_constructor_rejects_out_of_range_letters():
    with pytest.raises(MalformedWordError):
        BraidWord(3, (Letter(3, 1),))
    with pytest.raises(MalformedWordError):
        BraidWord(2, (Letter(1, 2),))


def test_constructor_refuses_strands_past_the_text_range(monkeypatch):
    # the one strand ceiling of both routes, held by the word itself
    n = MAX_TEXT_STRANDS + 1
    for build in (lambda: BraidWord(n, ()), lambda: parse_word("", n),
                  lambda: random_word(n, 0, SplitMix64(1))):
        with pytest.raises(ResourceLimitError, match=f"^strand count {n} exceeds {n - 1}$"):
            build()
    assert BraidWord(MAX_TEXT_STRANDS, ()).strand_count == MAX_TEXT_STRANDS
    # read at each call, after the word's own check of n >= 1
    monkeypatch.setattr("braidnf.gbase.MAX_TEXT_STRANDS", 3)
    assert len(parse_word("1 2", 3)) == 2
    with pytest.raises(ResourceLimitError, match="^strand count 4 exceeds 3$"):
        parse_word("1 2", 4)
    with pytest.raises(MalformedWordError, match="strand count must be >= 1"):
        BraidWord(0, ())


@pytest.mark.parametrize("combine", [words_equal, oracle_equal, concat])
def test_mismatched_strand_counts_are_refused(combine):
    with pytest.raises(MalformedWordError, match="over 2 and 3 strands"):
        combine(parse_word("1", 2), parse_word("1", 3))


def brute_permutation(word: BraidWord) -> tuple[int, ...]:
    # independent route: push each puncture through the transpositions
    images = []
    for start in range(1, word.strand_count + 1):
        p = start
        for letter in word.letters:
            if p == letter.index:
                p = letter.index + 1
            elif p == letter.index + 1:
                p = letter.index
        images.append(p)
    return tuple(images)


def test_permutation_examples():
    assert permutation_of_word(parse_word("", 3)) == (1, 2, 3)
    assert permutation_of_word(parse_word("1", 2)) == (2, 1)
    # derived by composing the transpositions (1 2) then (2 3)
    assert permutation_of_word(parse_word("1 2", 3)) == brute_permutation(parse_word("1 2", 3))
    assert permutation_of_word(parse_word("1 2", 3)) == (3, 1, 2)


def test_permutation_exhaustive_small():
    for n, length in ((2, 6), (3, 4)):
        gens = [s * i for i in range(1, n) for s in (1, -1)]
        for values in itertools.chain.from_iterable(
            itertools.product(gens, repeat=r) for r in range(length + 1)
        ):
            word = word_from_ints(n, values)
            assert permutation_of_word(word) == brute_permutation(word)
            assert permutation_of_word(concat(word, inverse(word))) == tuple(
                range(1, n + 1)
            )


@given(braid_words(max_strands=6, max_length=12))
def test_permutation_sign_blind(word):
    flipped = BraidWord(
        word.strand_count, tuple(Letter(l.index, -l.sign) for l in word.letters)
    )
    assert permutation_of_word(word) == permutation_of_word(flipped)


@given(braid_words(max_strands=6, max_length=12))
def test_permutation_inverse_law(word):
    assert permutation_of_word(concat(word, inverse(word))) == tuple(
        range(1, word.strand_count + 1)
    )


def naive_permutation(word: BraidWord) -> tuple[int, ...]:
    # the double loop: every letter rescans the whole image, O(n*L)
    image = list(range(1, word.strand_count + 1))
    for letter in word.letters:
        i = letter.index
        for p, v in enumerate(image):
            if v == i:
                image[p] = i + 1
            elif v == i + 1:
                image[p] = i
    return tuple(image)


def test_permutation_matches_naive_double_loop():
    rng = random.Random(84)
    for _ in range(300):
        n = rng.randint(1, 80)
        values = [
            rng.randint(1, n - 1) * rng.choice((1, -1))
            for _ in range(rng.randint(0, 256) if n > 1 else 0)
        ]
        word = word_from_ints(n, values)
        assert permutation_of_word(word) == naive_permutation(word)
