"""The Dynnikov-coordinate witness (conftest.dynnikov) against the free-group
oracle where both are cheap, then against words_equal on words long enough
that only the witness stays cheap; and the per-path size rule
(conftest.predicted_passes) against the normal forms, up to lists of ~10^4
links."""

import itertools
import random

import pytest
from hypothesis import given, settings

from braidnf.braidword import concat, inverse
from braidnf.errors import ResourceLimitError
from braidnf.oracle import word_image
from braidnf.prng import SplitMix64, random_word
from braidnf.solver import normal_form, words_equal

from conftest import (
    braid_words,
    dynnikov,
    paths_of,
    predicted_passes,
    rewritten,
    word_from_ints,
)


def classes(key, words):
    """The partition of `words` into classes of equal key, as sorted letter tuples."""
    groups = {}
    for word in words:
        groups.setdefault(key(word), []).append(word.letters)
    return sorted(sorted(group) for group in groups.values())


def oracle_key(word):
    return tuple(word_image(word, gen) for gen in range(1, word.strand_count + 1))


@pytest.mark.parametrize("n, max_length", [(2, 8), (3, 6), (4, 4), (5, 3)])
def test_dynnikov_classes_match_the_oracle_exhaustively(n, max_length):
    generators = [g for i in range(1, n) for g in (i, -i)]
    words = [
        word_from_ints(n, values)
        for length in range(max_length + 1)
        for values in itertools.product(generators, repeat=length)
    ]
    assert classes(dynnikov, words) == classes(oracle_key, words)


@pytest.mark.parametrize("n", [3, 8, 20])
def test_dynnikov_of_word_times_inverse_is_the_start(n):
    rng = random.Random(n)
    word = word_from_ints(n, [rng.randint(1, n - 1) * rng.choice((1, -1)) for _ in range(256)])
    assert dynnikov(concat(word, inverse(word))) == (0, 1) * n


@pytest.mark.parametrize(
    "n, length", [(8, 48), (8, 96), (20, 48), (20, 96), (20, 128), (20, 192)]
)
def test_words_equal_agrees_with_dynnikov(n, length):
    # three kinds of pair, each keeping the permutation so the g-base route
    # runs: an equal word reached by braid moves, a word with two letters of
    # one sign inverted, and a word with some sigma_i^2 inserted. A pair
    # past MAX_LINKS counts as refused; none is re-drawn
    rng = random.Random(1000 * n + length)
    verdicts = []
    for k in range(12):
        values = [rng.randint(1, n - 1) * rng.choice((1, -1)) for _ in range(length)]
        if k % 3 == 0:
            other = rewritten(values, rng, 4 * length)
        elif k % 3 == 1:
            sign = rng.choice((1, -1))
            a, b = rng.sample([p for p, g in enumerate(values) if g * sign > 0], 2)
            other = list(values)
            other[a], other[b] = -other[a], -other[b]
        else:
            at, g = rng.randint(0, length), rng.randint(1, n - 1) * rng.choice((1, -1))
            other = values[:at] + [g, g] + values[at:]
        first, second = word_from_ints(n, values), word_from_ints(n, other)
        try:
            verdict = words_equal(first, second)
        except ResourceLimitError:
            verdicts.append(None)
            continue
        assert verdict is (dynnikov(first) == dynnikov(second)), (k, values, other)
        verdicts.append(verdict)
    refused = verdicts.count(None)
    assert verdicts.count(True) == 4 and not refused, (
        f"{verdicts}: MAX_LINKS refused {refused} of 12 pairs"
    )


def passes_per_path(word):
    """The links of position +-1 in each path of normal_form(word), in list order."""
    return [sum(link.position != 0 for link in path) for path in paths_of(normal_form(word))]


@settings(max_examples=150, deadline=None)
@given(braid_words(max_strands=12, max_length=30))
def test_predicted_passes_match_the_normal_form(word):
    assert predicted_passes(word) == passes_per_path(word)


@pytest.mark.parametrize("seed", range(6))
def test_predicted_passes_match_tangle_sized_words(seed):
    # n=4, L=64, the tangle workload's shape: lists of 2,000 to 42,000 links
    word = random_word(4, 64, SplitMix64(seed))
    assert predicted_passes(word) == passes_per_path(word)
