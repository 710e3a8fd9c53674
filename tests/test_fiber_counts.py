"""Batched fiber counts: every lane of a packed walk against the naive oracle."""

from itertools import product

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from biasrank import bias  # noqa: E402
from biasrank.bias import bias_fiber, bias_histogram, fiber_counts  # noqa: E402
from biasrank.gf import PrimeField, rank_mod_p  # noqa: E402
from biasrank.rng import substream  # noqa: E402
from biasrank.tensor import Tensor, random_tensor  # noqa: E402
from test_bias import oracle_zero_fibers  # noqa: E402

SETTINGS = settings(max_examples=80, deadline=None, database=None)

# Shapes whose p^(n(d-1)) fixings the oracle walks quickly.  They include the
# order-2 memo at p = 2 and odd p, memo-off zero-set leaves at (3,3,3), ranked
# leaves at (7,3,2), (5,2,3)'s wide reduced walk, order-4 walks, n <= 1, and
# the bit-sliced leaf at (2,4,3).
SHAPES = [(p, n, d) for p in (2, 3, 5, 7) for n in range(5) for d in range(1, 5)
          if p ** (n * (d - 1)) <= 1 << 10]


@st.composite
def batches(draw):
    """A shape and a batch of rows in which some are zero and some repeat."""
    p, n, d = draw(st.sampled_from(SHAPES))
    cells = n ** d
    fresh = st.lists(st.integers(0, p - 1), min_size=cells, max_size=cells).map(tuple)
    rows = []
    for kind in draw(st.lists(st.sampled_from(["fresh", "zero", "repeat"]), min_size=1,
                              max_size=9)):
        if kind == "zero":
            rows.append((0,) * cells)
        elif kind == "repeat" and rows:
            rows.append(draw(st.sampled_from(rows)))
        else:
            rows.append(draw(fresh))
    return PrimeField(p), n, d, rows


def oracle(field, n, d, row):
    return oracle_zero_fibers(Tensor(field, n, d, row))


@SETTINGS
@given(batches(), st.booleans())
def test_every_lane_matches_the_oracle(batch, cold):
    field, n, d, rows = batch
    if cold:  # a fresh kernel, so its memo misses
        bias._KERNEL_CACHE.pop((field.p, n), None)
    assert fiber_counts(field, n, d, rows) == [oracle(field, n, d, row) for row in rows]


@SETTINGS
@given(batches(), st.lists(st.integers(0, 9), max_size=4))
def test_any_split_into_batches_gives_the_same_list(batch, cuts):
    field, n, d, rows = batch
    bounds = [0] + sorted(min(c, len(rows)) for c in cuts) + [len(rows)]
    pieces = [fiber_counts(field, n, d, rows[a:b]) for a, b in zip(bounds, bounds[1:])]
    assert sum(pieces, []) == fiber_counts(field, n, d, rows)


@pytest.mark.parametrize("p,n,d", [(2, 2, 3), (2, 3, 3), (3, 2, 3), (2, 5, 3), (3, 3, 3),
                                   (2, 4, 4), (2, 6, 2), (13, 2, 2)])
def test_batches_past_one_walk_match_single_rows(p, n, d):
    # 150 rows take three walks of at most 64 lanes each
    field = PrimeField(p)
    tensors = [random_tensor(field, n, d, substream(982, i).next_u64()) for i in range(150)]
    assert fiber_counts(field, n, d, [t.coeffs for t in tensors]) == [
        bias_fiber(t).numerator for t in tensors]


def test_lane_bound_splits_bit_sliced_batches(monkeypatch):
    # at a limit of 2^7 (tensor, y) lanes an (2,4,3) walk holds 8 tensors
    field = PrimeField(2)
    tensors = [random_tensor(field, 4, 3, substream(983, i).next_u64()) for i in range(20)]
    expected = [oracle_zero_fibers(t) for t in tensors]
    lanes = []
    slice_fibers = bias._Packed.slice_fibers

    def counted(self, leaves, count, stride):
        lanes.append(count)
        return slice_fibers(self, leaves, count, stride)

    monkeypatch.setattr(bias, "_CACHE_LIMIT", 1 << 7)
    monkeypatch.setattr(bias._Packed, "slice_fibers", counted)
    assert fiber_counts(field, 4, 3, [t.coeffs for t in tensors]) == expected
    assert lanes == [8, 8, 4]


def test_budget_is_checked_only_for_a_row():
    field = PrimeField(2)
    assert fiber_counts(field, 3, 3, [], budget=1) == []
    with pytest.raises(bias.BudgetExceededError, match="zero-fiber enumeration needs 64"):
        fiber_counts(field, 3, 3, [(0,) * 27], budget=63)


def zero_set_keys(p, n, count, seed):
    """`count` seeded reduced n x n matrices as leaf keys, a third of them
    with a zero row and a third with a repeated row."""
    gen = substream(seed, 0)
    keys = []
    for i in range(count):
        rows = [bytes(gen.residues(p, n)) for _ in range(n)]
        if i % 3 == 1:
            rows[gen.next_u64() % n] = bytes(n)
        elif i % 3 == 2:
            rows[0] = rows[-1]
        keys.append(b"".join(rows))
    return keys


@pytest.mark.parametrize("p,n,keys", [
    (3, 3, [bytes(cells) for cells in product(range(3), repeat=9)]),
    (3, 4, zero_set_keys(3, 4, 600, 984)),
    (3, 5, zero_set_keys(3, 5, 600, 985)),
    (5, 3, zero_set_keys(5, 3, 600, 986)),
], ids=["every-3-3", "seeded-3-4", "seeded-3-5", "seeded-5-3"])
def test_zero_set_leaves_count_as_the_rank(p, n, keys):
    kernel = bias._Packed(p, n)
    assert kernel.zero_sets == {}
    expected = [p ** (n - rank_mod_p(p, [key[j:j + n] for j in range(0, n * n, n)]))
                for key in keys]
    assert kernel._key_fibers(keys) == expected
    assert 0 < len(kernel.zero_sets) <= p ** n
    assert kernel._key_fibers(keys[::-1]) == expected[::-1]  # every row now filled


@pytest.mark.parametrize("p,n,on", [(3, 1, True), (3, 5, True), (5, 3, True), (7, 2, True),
                                    (11, 2, True), (2, 3, False), (7, 3, False),
                                    (5, 4, False), (3, 6, False), (13, 2, False)])
def test_zero_sets_are_on_for_one_byte_cells_within_the_lane_bound(p, n, on):
    # (7,3), (5,4) and (3,6) have p^(2n) > _CACHE_LIMIT; (13,2) has two-byte cells
    assert (bias._Packed(p, n).zero_sets is not None) is on


def lane_rows(field, n, d, distinct, seed):
    """64 rows for one walk: `distinct` seeded tensors, a sparse one and the
    zero row, placed by a seeded draw so that each recurs in several lanes."""
    gen = substream(seed, 0)
    tensors = [random_tensor(field, n, d, gen.next_u64()) for _ in range(distinct)]
    sparse = [c if i % 7 == 0 else 0 for i, c in enumerate(tensors[0].coeffs)]
    choices = [t.coeffs for t in tensors] + [tuple(sparse), (0,) * n ** d]
    return [choices[gen.next_u64() % len(choices)] for _ in range(64)]


@pytest.mark.parametrize("cold", [True, False], ids=["fresh-kernel", "warm-kernel"])
def test_zero_set_walk_matches_the_oracle(cold):
    field, n, d = PrimeField(3), 4, 3
    rows = lane_rows(field, n, d, 3, 987)
    expected = {row: oracle(field, n, d, row) for row in set(rows)}
    if cold:
        bias._KERNEL_CACHE.pop((3, n), None)
    assert fiber_counts(field, n, d, rows) == [expected[row] for row in rows]


@pytest.mark.parametrize("cold", [True, False], ids=["fresh-kernel", "warm-kernel"])
@pytest.mark.parametrize("p,n,d", [(3, 5, 3), (5, 3, 3), (3, 3, 4)])
def test_zero_set_walk_matches_the_histogram(p, n, d, cold):
    # the histogram takes no rank and never reads a zero set
    field = PrimeField(p)
    rows = lane_rows(field, n, d, 8, 988 + p * n * d)
    expected = {row: bias_histogram(Tensor(field, n, d, row))[1].numerator for row in set(rows)}
    if cold:
        bias._KERNEL_CACHE.pop((p, n), None)
    assert fiber_counts(field, n, d, rows) == [expected[row] for row in rows]
