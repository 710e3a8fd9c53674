"""SplitMix64 streams, and the batched words and residue rows that match them."""

import pytest

from biasrank import laws
from biasrank.gf import PrimeField
from biasrank.rng import SplitMix64, residue_rows, substream, substream_seed, words
from biasrank.tensor import random_tensor

GAMMA = 0x9E3779B97F4A7C15
STATES = [0, 1, 2 ** 64 - 1, 2 ** 64 - GAMMA] + [substream_seed(9, i) for i in range(60)]


def sequential(seed, count):
    gen = SplitMix64(seed)
    return [gen.next_u64() for _ in range(count)]


def test_splitmix64_reference_words():
    assert [f"{w:016x}" for w in sequential(0, 4)] == [
        "e220a8397b1dcdaf", "6e789e6aa1b965f4", "06c45d188009454f", "f88bb8a8724c81ec"]


def test_substream_seed_is_the_substream_state():
    for i in (0, 1, 64, 2 ** 70):
        gen = substream(5, i)
        assert sequential(substream_seed(5, i), 3) == [gen.next_u64() for _ in range(3)]


@pytest.mark.parametrize("count", [1, 2, 8, 27, 64])
def test_words_equal_sequential_next_u64(count):
    assert words(STATES, count) == [w for s in STATES for w in sequential(s, count)]
    assert words(STATES[2:3], count) == sequential(2 ** 64 - 1, count)


@pytest.mark.parametrize("bound", [2, 3, 5, 7, 257, 2 ** 63 + 1])
@pytest.mark.parametrize("count", [1, 27])
def test_residue_rows_equal_per_seed_residues(bound, count):
    assert residue_rows(bound, count, STATES) == [SplitMix64(s).residues(bound, count)
                                                  for s in STATES]


def test_residue_rows_fall_back_when_a_word_is_rejected():
    # at 2^63 + 1 about half the words are rejected, so a row reads past `count` words
    bound, count = 2 ** 63 + 1, 8
    limit = 2 ** 64 - 2 ** 64 % bound
    assert any(w >= limit for w in words(STATES, count))
    rows = residue_rows(bound, count, STATES)
    assert rows != [tuple(w % bound for w in words([s], count)) for s in STATES]
    assert all(len(row) == count for row in rows)


def test_empty_seed_lists_and_count_zero():
    assert words([], 5) == [] and words(STATES, 0) == []
    assert residue_rows(3, 5, []) == []
    assert residue_rows(3, 0, STATES[:3]) == [(), (), ()]
    with pytest.raises(ValueError, match="bound must be positive"):
        residue_rows(0, 3, STATES)


@pytest.mark.parametrize("p,n,d", [(2, 2, 3), (3, 2, 3), (5, 3, 2)])
def test_seeded_universe_equals_the_per_trial_draw(p, n, d):
    field, seed, trials = PrimeField(p), 17, 131
    singles = list(laws._universe(field, n, d, trials=trials, seed=seed))
    pairs = list(laws._universe(field, n, d, trials=trials, seed=seed, pairs=True))
    assert len(singles) == len(pairs) == trials
    for i in (0, 1, 63, 64, 65, 130):
        gen = substream(seed, i)
        assert singles[i] == random_tensor(field, n, d, substream(seed, i).next_u64())
        assert pairs[i] == (random_tensor(field, n, d, gen.next_u64()),
                            random_tensor(field, n, d, gen.next_u64()))
