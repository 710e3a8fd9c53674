"""SplitMix64 streams, and the batched words and residue rows that match them."""

import pytest

from biasrank import laws, rng
from biasrank.gf import PrimeField
from biasrank.rng import SplitMix64, residue_rows, substream, substream_seed, words
from biasrank.rng import residue_cells, skip
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
    pairs = [tuple(map(tuple, rows)) for chunk in laws._row_pairs(p, n, d, trials, seed)
             for rows in zip(*chunk)]
    assert len(singles) == len(pairs) == trials
    for i in (0, 1, 63, 64, 65, 130):
        gen = substream(seed, i)
        assert singles[i] == random_tensor(field, n, d, substream(seed, i).next_u64())
        t, s = (random_tensor(field, n, d, gen.next_u64()) for _ in range(2))
        assert pairs[i] == (t.coeffs, s.coeffs, (t + s).coeffs)


def per_seed_cells(bound, count, seeds):
    return bytes(c for s in seeds for c in SplitMix64(s).residues(bound, count))


def lanes(ws):
    """The words ws as the low halves of 128-bit lanes of one int, as rng mixes them."""
    return int.from_bytes(b"".join(w.to_bytes(16, "little") for w in ws), "little")


@pytest.mark.parametrize("bound", [2, 3, 5, 7, 11, 127, 251, 255, 256])
@pytest.mark.parametrize("count", [1, 8, 27, 64])
def test_lane_residues_equal_per_seed_residues(monkeypatch, bound, count):
    # every word of STATES is accepted at these bounds, so the byte path itself answers
    expected = per_seed_cells(bound, count, STATES)
    assert max(words(STATES, count)) < 2 ** 64 - 2 ** 64 % bound
    monkeypatch.setattr(rng.SplitMix64, "residues", None)  # no per-seed fallback
    assert residue_cells(bound, count, STATES) == expected
    assert residue_rows(bound, count, STATES[3:9]) == [tuple(expected[i * count:(i + 1) * count])
                                                       for i in range(3, 9)]


def test_residue_cells_above_256_are_a_tuple_of_the_per_seed_residues():
    for bound in (257, 2 ** 63 + 1):  # about half the words of 2^63 + 1 are rejected
        expected = tuple(c for s in STATES for c in SplitMix64(s).residues(bound, 5))
        assert residue_cells(bound, 5, STATES) == expected
    assert residue_cells(3, 0, STATES) == b"" and residue_cells(257, 4, []) == ()


@pytest.mark.parametrize("bound", [3, 255, 256])
def test_a_rejected_lane_sends_the_batch_to_the_per_seed_draw(monkeypatch, bound):
    # crafted words at limit - 1, limit and 2^64 - 1 in the first, a middle and the last lane
    limit, seeds, count = 2 ** 64 - 2 ** 64 % bound, STATES[:6], 4
    per_seed = per_seed_cells(bound, count, seeds)
    for bad in sorted({limit - 1, limit, 2 ** 64 - 1} - {2 ** 64}):  # at 256 none is rejected
        for at in (0, 7, len(seeds) * count - 1):
            crafted = [substream_seed(5, i) for i in range(len(seeds) * count)]
            crafted[at] = bad
            monkeypatch.setattr(rng, "_mixed", lambda s, c: lanes(crafted))
            batched = bytes(w % bound for w in crafted)
            assert batched != per_seed
            assert residue_cells(bound, count, seeds) == (per_seed if bad >= limit else batched)


def test_lane_division_is_exact_at_the_largest_quotients(monkeypatch):
    # v = (2^32 mod bound) (w >> 32) + (w mod 2^32) is largest at w >> 32 = 2^32 - 1; the top
    # 2 bound low halves there give every remainder, bound - 1 among them, where a reciprocal
    # that is too short rounds the quotient up
    for bound in range(1, 257):
        limit = 2 ** 64 - 2 ** 64 % bound
        crafted = [w for w in range(2 ** 64 - 2 * bound, 2 ** 64) if w < limit]
        monkeypatch.setattr(rng, "_mixed", lambda s, c: lanes(crafted))
        assert residue_cells(bound, 1, list(range(len(crafted)))) == bytes(
            w % bound for w in crafted), bound


@pytest.mark.parametrize("start", [0, 1, 2, 17, 73])
def test_skip_gives_the_words_from_word_start_on(start):
    for s in STATES[:8]:
        assert words([skip(s, start)], 5) == sequential(s, start + 5)[start:]
