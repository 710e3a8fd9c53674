"""Batched fiber counts: every lane of a packed walk against the naive oracle."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from biasrank import bias  # noqa: E402
from biasrank.bias import bias_fiber, fiber_counts  # noqa: E402
from biasrank.gf import PrimeField  # noqa: E402
from biasrank.rng import substream  # noqa: E402
from biasrank.tensor import Tensor, random_tensor  # noqa: E402
from test_bias import oracle_zero_fibers  # noqa: E402

SETTINGS = settings(max_examples=80, deadline=None, database=None)

# Shapes whose p^(n(d-1)) fixings the oracle walks quickly.  They include the
# order-2 memo at p = 2 and odd p, memo-off matrices at (3,3,3), (5,2,3)'s wide
# reduced walk, order-4 walks, n <= 1, and the bit-sliced leaf at (2,4,3).
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
