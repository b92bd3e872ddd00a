import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidnf import oracle
from braidnf.braidword import BraidWord, Letter, concat, inverse, parse_word, permutation_of_word
from braidnf.errors import ResourceLimitError
from braidnf.gbase import MAX_TEXT_STRANDS
from braidnf.oracle import oracle_equal, word_image
from braidnf.prng import SplitMix64, random_word

from conftest import braid_words, reference_word_image, word_from_ints


def letter_image(letter, gen, strand_count):
    """Image of x_gen under one letter, through word_image."""
    return word_image(BraidWord(strand_count, (letter,)), gen)


@given(braid_words(max_strands=4, max_length=6), st.integers(1, 4), st.integers(0, 2**32))
def test_free_reduce_confluent(word, gen, seed):
    # substitute letter by letter without cancelling, then cancel adjacent
    # inverse pairs in random order; the fixpoint must be word_image's
    gen = min(gen, word.strand_count)
    work = [(gen, 1)]
    for letter in word.letters:
        out = []
        for g, e in work:
            target = letter_image(letter, g, word.strand_count)
            out += target if e > 0 else [(h, -f) for h, f in reversed(target)]
        work = out
    rng = random.Random(seed)
    while True:
        cancellable = [
            k
            for k in range(len(work) - 1)
            if work[k] == (work[k + 1][0], -work[k + 1][1])
        ]
        if not cancellable:
            break
        k = rng.choice(cancellable)
        del work[k:k + 2]
    assert tuple(work) == word_image(word, gen)


@given(braid_words(max_strands=6, max_length=12), st.integers(1, 6))
def test_word_image_is_freely_reduced_syllables(word, gen):
    gen = min(gen, word.strand_count)
    image = word_image(word, gen)
    assert all(1 <= g <= word.strand_count and e in (1, -1) for g, e in image)
    assert all(image[k - 1] != (g, -e) for k, (g, e) in enumerate(image) if k)


def test_letter_image_formulas():
    assert letter_image(Letter(1, 1), 1, 2) == ((1, 1), (2, 1), (1, -1))
    assert letter_image(Letter(1, 1), 2, 2) == ((1, 1),)
    assert letter_image(Letter(1, 1), 3, 3) == ((3, 1),)
    assert letter_image(Letter(1, -1), 1, 2) == ((2, 1),)
    assert letter_image(Letter(1, -1), 2, 2) == ((2, -1), (1, 1), (2, 1))


def test_letter_image_rejects_bad_indices():
    with pytest.raises(ValueError):
        letter_image(Letter(1, 1), 3, 2)
    with pytest.raises(ValueError):
        letter_image(Letter(2, 1), 1, 2)


def test_word_image_examples():
    assert word_image(parse_word("", 3), 2) == ((2, 1),)
    assert word_image(parse_word("1 -1", 2), 1) == ((1, 1),)
    assert word_image(parse_word("1 1", 2), 1) == (
        (1, 1), (2, 1), (1, 1), (2, -1), (1, -1)
    )


@given(st.integers(1, 7), st.sampled_from((1, -1)), st.integers(1, 8))
def test_letter_then_inverse_fixes_generators(index, sign, gen):
    n = 8
    word = parse_word(f"{index * sign} {-index * sign}", n)
    assert word_image(word, gen) == ((gen, 1),)


@pytest.mark.parametrize(
    "w1, w2, n, expected",
    [
        ("1 2 1", "2 1 2", 3, True),
        ("1 3", "3 1", 4, True),
        ("1", "", 2, False),
        ("1", "-1", 2, False),
    ],
)
def test_oracle_equal_examples(w1, w2, n, expected):
    assert oracle_equal(parse_word(w1, n), parse_word(w2, n)) is expected


def test_oracle_equal_respects_relations_everywhere():
    for n in range(2, 9):
        for i in range(1, n - 1):
            assert oracle_equal(
                parse_word(f"{i} {i + 1} {i}", n), parse_word(f"{i + 1} {i} {i + 1}", n)
            )
        for i in range(1, n):
            for j in range(i + 2, n):
                assert oracle_equal(parse_word(f"{i} {j}", n), parse_word(f"{j} {i}", n))


def test_oracle_equal_rejects_mismatched_strand_counts():
    with pytest.raises(ValueError):
        oracle_equal(parse_word("1", 2), parse_word("1", 3))


@given(braid_words(max_strands=5, max_length=10))
def test_oracle_inverse_law(word):
    trivial = concat(word, inverse(word))
    for gen in range(1, word.strand_count + 1):
        assert word_image(trivial, gen) == ((gen, 1),)


def test_syllable_ceiling_raises(monkeypatch):
    # positive powers of one generator grow the image of x_1 without bound
    word = parse_word(" ".join(["1"] * 40), 2)
    assert oracle_equal(word, word)
    monkeypatch.setattr(oracle, "MAX_SYLLABLES", 50)
    with pytest.raises(ResourceLimitError):
        word_image(word, 1)


def test_oracle_equal_ceiling_raises(monkeypatch):
    word = parse_word(" ".join(["1"] * 40), 2)
    monkeypatch.setattr(oracle, "MAX_SYLLABLES", 50)
    with pytest.raises(ResourceLimitError):
        oracle_equal(word, parse_word("", 2))


def test_ceiling_covers_the_starting_images(monkeypatch):
    # the n starting images hold n syllables between them, and no word holds
    # more than MAX_TEXT_STRANDS strands, so they always fit
    assert MAX_TEXT_STRANDS < oracle.MAX_SYLLABLES
    monkeypatch.setattr(oracle, "MAX_SYLLABLES", 10)
    wide, empty = BraidWord(11, ()), BraidWord(10, ())
    assert word_image(empty, 1) == ((1, 1),)
    assert oracle_equal(empty, empty)
    # bad arguments are named first
    with pytest.raises(ValueError):
        word_image(wide, 12)
    with pytest.raises(ValueError):
        oracle_equal(wide, empty)


def test_ceiling_bounds_all_images_together(monkeypatch):
    # sigma_1 sends x_1 to x_1 x_2 x_1^-1 and x_2 to x_1: no image passes 3
    # syllables, but the two hold 4
    word = parse_word("1", 2)
    monkeypatch.setattr(oracle, "MAX_SYLLABLES", 3)
    with pytest.raises(ResourceLimitError, match="exceeded 3 syllables in total"):
        word_image(word, 2)
    with pytest.raises(ResourceLimitError, match="exceeded 3 syllables in total"):
        oracle_equal(word, word)
    monkeypatch.setattr(oracle, "MAX_SYLLABLES", 4)
    assert word_image(word, 1) == ((1, 1), (2, 1), (1, -1))


def test_strand_ceiling_keeps_every_code_a_character():
    # x_n^-1 is held as chr(2n + 1), and the word refuses more strands than
    # the g-base text can code, which is fewer
    assert 2 * MAX_TEXT_STRANDS + 1 <= sys.maxunicode
    n = MAX_TEXT_STRANDS
    assert word_image(BraidWord(n, (Letter(n - 1, -1),)), n) == ((n, -1), (n - 1, 1), (n, 1))
    with pytest.raises(ResourceLimitError, match=f"strand count {n + 1} exceeds {n}"):
        BraidWord(n + 1, ())


def verdict_size_word():
    rng = random.Random(48)
    values = [rng.randint(1, 7) * rng.choice((1, -1)) for _ in range(48)]
    return word_from_ints(8, values)


def assert_images_match_reference(word):
    for gen in range(1, word.strand_count + 1):
        assert word_image(word, gen) == reference_word_image(word, gen)


@settings(max_examples=150, deadline=None)
@given(braid_words(min_strands=2, max_strands=8, max_length=24))
def test_images_match_left_to_right_reference(word):
    assert_images_match_reference(word)


def test_images_match_reference_at_verdict_size():
    assert_images_match_reference(verdict_size_word())


def test_images_match_reference_through_long_cancellations():
    # at n=4, L=48 the images of these 11 words hold ~5.5e4 syllables, and
    # about one junction in five of the substitution cancels 64 or more
    # syllables (up to ~4,600), where the conjugators' common prefixes are long
    words = [random_word(4, 48, SplitMix64(seed)) for seed in range(11)]
    images = [[word_image(w, gen) for gen in range(1, 5)] for w in words]
    assert sum(len(image) for row in images for image in row) >= 10**4
    for word, row in zip(words, images):
        assert row == [reference_word_image(word, gen) for gen in range(1, 5)]


def assert_conjugates_of_generators(word):
    # Artin: a braid sends each x_g to W x_h W^-1, h running over a
    # permutation of the generators, the word's permutation of the punctures
    middles = []
    for gen in range(1, word.strand_count + 1):
        image = word_image(word, gen)
        half, odd = divmod(len(image), 2)
        assert odd == 1
        assert image[half + 1:] == tuple((g, -e) for g, e in reversed(image[:half]))
        assert image[half][1] == 1
        middles.append(image[half][0])
    assert tuple(middles) == permutation_of_word(word)


@settings(max_examples=150, deadline=None)
@given(braid_words(min_strands=2, max_strands=8, max_length=24))
def test_images_are_conjugates_of_generators(word):
    assert_conjugates_of_generators(word)


def test_images_are_conjugates_of_generators_at_verdict_size():
    assert_conjugates_of_generators(verdict_size_word())
