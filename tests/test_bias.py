"""Bias engines against each other, a naive oracle, and closed-form values."""

import math
from fractions import Fraction
from itertools import product

import pytest

from biasrank import bias
from biasrank.bias import (
    AnalyticRank,
    BiasValue,
    BudgetExceededError,
    analytic_rank,
    arank_ceil,
    bias_all_engines,
    bias_fiber,
    bias_histogram,
    bias_multiform,
    bias_recursive,
    c_constant,
    chi,
    diagonal_bias_numerator,
    gray_steps,
)
from biasrank.gf import PrimeField, matrix_rank
from biasrank.rng import substream
from biasrank.tensor import (
    MultiComponentForm,
    Tensor,
    all_tensors,
    diagonal_tensor,
    direct_sum,
    from_entries,
    identity_tensor,
    random_multiform,
    random_tensor,
    zero_tensor,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def oracle_zero_fibers(t):
    """Naive count: every fixing recomputed from scratch, no sharing."""
    n, d, p = t.dim, t.order, t.field.p
    entries = list(t.nonzero_entries())
    vectors = list(product(range(p), repeat=n))
    count = 0
    for fixing in product(vectors, repeat=d - 1):
        coeffs = [0] * n
        for idx, term in entries:
            for slot, j in enumerate(idx[1:]):
                term *= fixing[slot][j]
            coeffs[idx[0]] += term
        count += all(c % p == 0 for c in coeffs)
    return count


def planted_tensor(field, n, d, r, gen):
    """A sum of r products of random vectors: every contraction has rank <= r."""
    p = field.p
    coeffs = [0] * n ** d
    for _ in range(r):
        vectors = [[gen.below(p) for _ in range(n)] for _ in range(d)]
        for flat, idx in enumerate(product(range(n), repeat=d)):
            term = 1
            for slot, i in enumerate(idx):
                term *= vectors[slot][i]
            coeffs[flat] = (coeffs[flat] + term) % p
    return Tensor(field, n, d, coeffs)


class TestBiasValue:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            BiasValue(5, 2, 2)  # 5 > 2^2
        with pytest.raises(ValueError):
            BiasValue(-1, 2, 2)

    def test_cross_multiplied_equality(self):
        assert BiasValue(1, 1, 2) == BiasValue(2, 2, 2)
        assert BiasValue(3, 2, 2) != BiasValue(1, 1, 2)
        assert BiasValue(1, 2, 3) < BiasValue(1, 1, 3)
        assert BiasValue(2, 2, 3) <= BiasValue(6, 3, 3)

    def test_different_bases_refuse_comparison(self):
        with pytest.raises(ValueError):
            BiasValue(1, 1, 2) == BiasValue(1, 1, 3)

    def test_product(self):
        v = BiasValue(3, 2, 2) * BiasValue(3, 2, 2)
        assert v.numerator == 9 and v.exponent == 4

    def test_fraction_and_str(self):
        v = BiasValue(3, 2, 2)
        assert v.as_fraction() == Fraction(3, 4)
        assert str(v) == "3 / 2^2"


class TestKnownValues:
    def test_rank_one_bilinear_over_f3(self):
        # T(x, y) = x_1 y_1 on F_3^2 has bias 1/3
        t = from_entries(F3, 2, 2, [((0, 0), 1)])
        for value in (bias_fiber(t), bias_recursive(t), bias_histogram(t)[1]):
            assert value.as_fraction() == Fraction(1, 3)
            assert value.exponent == 2

    def test_zero_tensor_bias_one(self):
        for t in (zero_tensor(F2, 2, 3), zero_tensor(F5, 2, 2), zero_tensor(F3, 0, 3)):
            assert bias_fiber(t).as_fraction() == 1
            assert bias_recursive(t).as_fraction() == 1
            assert bias_histogram(t)[1].as_fraction() == 1

    def test_identity_closed_form_small(self):
        # (1 - (1 - 1/q)^(d-1))^n at q=2, d=3: 3/4, 9/16, 27/64
        for n, expected in ((1, Fraction(3, 4)), (2, Fraction(9, 16)), (3, Fraction(27, 64))):
            t = identity_tensor(F2, n, 3)
            assert bias_fiber(t).as_fraction() == expected
            assert bias_recursive(t).as_fraction() == expected

    def test_diagonal_closed_form_f3(self):
        # three nonzero diagonal entries at q=3, d=3: (5/9)^3
        t = diagonal_tensor(F3, 3, (1, 2, 1))
        assert bias_fiber(t).as_fraction() == Fraction(5, 9) ** 3
        assert bias_fiber(t).numerator == diagonal_bias_numerator(3, 3, 3, 3)

    def test_order_one_forms(self):
        zero = zero_tensor(F3, 2, 1)
        assert bias_fiber(zero).as_fraction() == 1
        nonzero = from_entries(F3, 2, 1, [((0,), 1)])
        assert bias_fiber(nonzero).is_zero()
        assert bias_recursive(nonzero).is_zero()
        assert analytic_rank(bias_fiber(nonzero)).infinite

    def test_matrix_bias_is_q_to_minus_rank(self):
        for trial in range(30):
            t = random_tensor(F3, 3, 2, substream(50, trial).next_u64())
            rows = [t.coeffs[i * 3:(i + 1) * 3] for i in range(3)]
            r = matrix_rank(F3, rows)
            assert bias_recursive(t) == BiasValue(3 ** (3 - r), 3, 3)
            assert bias_fiber(t) == BiasValue(3 ** (3 - r), 3, 3)


class TestEngineTriangle:
    def test_exhaustive_tiny_cube(self):
        for t in all_tensors(F2, 2, 2):
            assert bias_fiber(t) == bias_recursive(t) == bias_histogram(t)[1]

    @pytest.mark.parametrize("p,n,d", [(2, 3, 3), (3, 2, 3), (5, 2, 2), (2, 2, 4)])
    def test_random_tensors(self, p, n, d):
        field = PrimeField(p)
        for trial in range(40):
            t = random_tensor(field, n, d, substream(7 * p + d, trial).next_u64())
            values = bias_all_engines(t)
            assert values["fiber"] == values["recursive"] == values["histogram"]

    # Fiber and recursive share the Gray walk, so only an oracle that shares
    # nothing with them can catch a fault in it.
    # At odd p and d >= 4 the walk reduces every intermediate tensor.
    # Order 2 runs with the memo off at (2, 4, 2), at odd p at (3, 3, 2), and
    # on two-byte cells at (13, 2, 2).
    @pytest.mark.parametrize("p,n,d", [(2, 3, 3), (2, 2, 4), (5, 2, 2), (3, 1, 3), (3, 2, 3),
                                       (7, 2, 3), (3, 2, 4), (3, 1, 5), (7, 1, 4), (2, 4, 2),
                                       (3, 3, 2), (13, 2, 2)])
    def test_fiber_matches_naive_oracle(self, p, n, d):
        field = PrimeField(p)
        for trial in range(15):
            t = random_tensor(field, n, d, substream(321, trial).next_u64())
            expected = oracle_zero_fibers(t)
            assert bias_fiber(t).numerator == expected
            assert bias_recursive(t).numerator == expected
            assert bias_histogram(t)[1].numerator == expected

    def test_fiber_matches_naive_oracle_through_the_order_two_memo(self):
        # (5, 2, 4) walks one-byte cells, so its order-2 leaves use the memo
        assert bias._kernel(5, 2).memo is not None
        for trial in range(3):
            t = random_tensor(F5, 2, 4, substream(321, trial).next_u64())
            expected = oracle_zero_fibers(t)
            assert bias_fiber(t).numerator == expected
            assert bias_recursive(t).numerator == expected
            assert bias_histogram(t)[1].numerator == expected

    # At p = 2 where the order-2 memo is off, the walk stops at order-3
    # leaves and counts each by one bit-sliced elimination over all 2^n
    # fixings of its leading slot; n = 1 and n = 0 are its smallest cases.
    @pytest.mark.parametrize("n,d,count", [(4, 3, 4), (5, 3, 3), (4, 4, 2), (1, 4, 4),
                                           (0, 3, 1)])
    def test_bit_sliced_leaves_match_naive_oracle(self, n, d, count):
        gen = substream(977, 10 * n + d)
        tensors = [zero_tensor(F2, n, d)]
        for _ in range(count):
            sparse = [(tuple(gen.below(n) for _ in range(d)), 1) for _ in range(n)] if n else []
            tensors += [random_tensor(F2, n, d, gen.next_u64()), from_entries(F2, n, d, sparse),
                        planted_tensor(F2, n, d, 1, gen), planted_tensor(F2, n, d, 2, gen)]
        for t in tensors:
            expected = oracle_zero_fibers(t)
            assert bias_fiber(t).numerator == expected
            assert bias_recursive(t).numerator == expected
            assert bias_histogram(t)[1].numerator == expected

    def test_bit_sliced_leaves_take_no_matrix_count(self, monkeypatch):
        tensors = [random_tensor(F2, 5, 3, substream(978, trial).next_u64()) for trial in range(3)]
        expected = [oracle_zero_fibers(t) for t in tensors]

        def refuse(self, *leaves):
            raise AssertionError("an order-2 leaf was counted")

        monkeypatch.setattr(bias._Packed, "matrix_counts", refuse)
        assert [bias_fiber(t).numerator for t in tensors] == expected

    def test_memo_shapes_keep_the_matrix_walk(self, monkeypatch):
        tensors = [random_tensor(F2, 3, 3, substream(979, trial).next_u64()) for trial in range(3)]
        expected = [oracle_zero_fibers(t) for t in tensors]

        def refuse(self, x):
            raise AssertionError("an order-3 leaf was bit-sliced")

        monkeypatch.setattr(bias._Packed, "slice_fibers", refuse)
        assert [bias_fiber(t).numerator for t in tensors] == expected

    def test_lane_bound_keeps_large_leaves_on_the_matrix_walk(self, monkeypatch):
        # slice_fibers holds n^2 planes of 2^n bits, so past 2^n > _CACHE_LIMIT
        # (n >= 17 at the module's limit) a leaf is walked down to matrices;
        # a lowered limit puts n = 5 past it.  The order-4 tensor is sparse, so
        # the naive oracle's 2^15 fixings each multiply out a few entries.
        gen = substream(980, 4)
        entries = [(tuple(gen.below(5) for _ in range(4)), 1) for _ in range(24)]
        tensors = [random_tensor(F2, 5, 3, substream(980, 3).next_u64()),
                   from_entries(F2, 5, 4, entries)]
        expected = [oracle_zero_fibers(t) for t in tensors]

        def refuse(self, x):
            raise AssertionError("a leaf past the lane bound was bit-sliced")

        monkeypatch.setattr(bias, "_CACHE_LIMIT", 1 << 4)
        monkeypatch.setattr(bias._Packed, "slice_fibers", refuse)
        assert [bias_fiber(t).numerator for t in tensors] == expected
        assert [bias_recursive(t).numerator for t in tensors] == expected

    def test_positive_for_order_two_and_up(self):
        for trial in range(20):
            t = random_tensor(F2, 3, 3, substream(11, trial).next_u64())
            assert bias_fiber(t).numerator >= 1


def oracle_counts(f, p, n, d):
    """Value counts of a tensor or multi-component form, evaluated on every input."""
    counts = [0] * p
    for xs in product(list(product(range(p), repeat=n)), repeat=d):
        counts[f.evaluate(xs)] += 1
    return counts


# The value walk runs on F_p^(n+1).  Where n >= 2, d >= 2 and p^(2n) <=
# _CACHE_LIMIT it evaluates the last two slots in lanes: at p = 2, at odd p
# on order-2 inputs with one byte cells (3, 3, 2) and two (13, 2, 2), on one
# order-3 node (5, 2, 3) and on the nodes of an order-4 walk (3, 2, 4).
# Elsewhere it keys its forms by the int at p = 2, by reduced bytes up to
# (11, 1, 3), and by residue tuples where cells are two bytes wide
# (13, 1, 3) or residues exceed a byte (257, 1, 2).
ORACLE_SHAPES = [(2, 0, 3), (2, 2, 1), (3, 2, 1), (2, 3, 3), (2, 2, 4), (3, 2, 3), (5, 2, 2),
                 (7, 2, 3), (11, 1, 3), (13, 1, 3), (257, 1, 2), (3, 3, 2), (5, 2, 3), (3, 2, 4),
                 (2, 4, 3), (2, 2, 2), (13, 2, 2)]
LANE_SHAPES = [(2, 3, 3), (2, 2, 2), (3, 3, 2), (3, 2, 4), (13, 2, 2)]


def refuse_path(*args):
    raise AssertionError("a refused path was taken")


class TestValueWalk:
    """The histogram and multiform engines against evaluation on every input."""

    @pytest.mark.parametrize("p,n,d", ORACLE_SHAPES)
    def test_histogram_matches_naive_oracle(self, p, n, d):
        field = PrimeField(p)
        for trial in range(3 if p ** (n * d) <= 5000 else 1):
            t = random_tensor(field, n, d, substream(808, trial).next_u64())
            assert list(bias_histogram(t)[0].counts) == oracle_counts(t, p, n, d)

    @pytest.mark.parametrize("p,n,d", ORACLE_SHAPES)
    def test_multiform_matches_naive_oracle(self, p, n, d):
        form = random_multiform(PrimeField(p), n, d, substream(909, 0).next_u64())
        if p ** (n * d) > 5000:
            # the top, constant and first-slot components keep the oracle fast
            keep = {frozenset(range(d)), frozenset(), frozenset({0})}
            form = MultiComponentForm(form.field, n, d, {s: c for s, c in form.components.items()
                                                         if s in keep})
        assert list(bias_multiform(form).histogram.counts) == oracle_counts(form, p, n, d)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_constant_component_and_zero_form(self, p):
        field = PrimeField(p)
        const = Tensor(field, 2, 0, (p - 1,))
        top = random_tensor(field, 2, 3, 77)
        for comps in ({}, {frozenset(): const}, {frozenset(): const, frozenset({0, 1, 2}): top}):
            form = MultiComponentForm(field, 2, 3, comps)
            assert list(bias_multiform(form).histogram.counts) == oracle_counts(form, p, 2, 3)

    def test_oracle_shapes_reach_every_key_kind(self):
        assert bias._kernel(11, 2).reduce is not None
        assert bias._kernel(13, 2).width == 2 and bias._kernel(13, 2).reduce is None
        assert bias._kernel(257, 2).reduce is None

    @pytest.mark.parametrize("p,n,d", [(2, 3, 3), (3, 2, 3)])
    def test_no_rank_is_taken(self, monkeypatch, p, n, d):
        field = PrimeField(p)
        t = random_tensor(field, n, d, 5)
        form = random_multiform(field, n, d, 6)
        expected = oracle_counts(t, p, n, d), oracle_counts(form, p, n, d)

        def refuse(*args):
            raise AssertionError("a rank was taken")

        for name in ("gf2_rank", "rank_mod_p", "matrix_rank"):
            monkeypatch.setattr(bias, name, refuse)
        assert list(bias_histogram(t)[0].counts) == expected[0]
        assert list(bias_multiform(form).histogram.counts) == expected[1]

    @staticmethod
    def assert_counts_match_oracle(p, n, d):
        field = PrimeField(p)
        t = random_tensor(field, n, d, 15)
        form = random_multiform(field, n, d, 16)
        assert list(bias_histogram(t)[0].counts) == oracle_counts(t, p, n, d)
        assert list(bias_multiform(form).histogram.counts) == oracle_counts(form, p, n, d)

    @pytest.mark.parametrize("p,n,d", LANE_SHAPES)
    def test_lane_shapes_take_no_keyed_walk(self, monkeypatch, p, n, d):
        monkeypatch.setattr(bias, "_keyed_counts", refuse_path)
        self.assert_counts_match_oracle(p, n, d)

    # Lanes hold (n+1)^2 p p^(2n) bits, so past p^(2n) > _CACHE_LIMIT (n >= 9
    # at p = 2 at the module's limit) the keyed walk serves; a lowered limit
    # puts these shapes past it.  n <= 1 and order 1 never take lanes.
    @pytest.mark.parametrize("p,n,d,limit", [(2, 3, 3, 1 << 5), (3, 2, 4, 1 << 6),
                                             (3, 3, 2, 1 << 4), (11, 1, 3, None),
                                             (3, 2, 1, None), (2, 0, 3, None)])
    def test_lane_bound_keeps_the_keyed_walk(self, monkeypatch, p, n, d, limit):
        if limit is not None:
            monkeypatch.setattr(bias, "_CACHE_LIMIT", limit)
        monkeypatch.setattr(bias._Packed, "lane_products", refuse_path)
        self.assert_counts_match_oracle(p, n, d)


class TestGrayWalk:
    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_steps_visit_every_vector_once(self, p, n):
        steps = gray_steps(p, n)
        vec = [0] * n
        seen = [tuple(vec)]
        for i, step in enumerate(steps, start=1):
            digit, lower = step % n, step >= n
            vec[digit] += -1 if lower else 1
            assert 0 <= vec[digit] < p
            # the first p^k - 1 steps walk only digits below k
            assert i >= p ** digit
            seen.append(tuple(vec))
        assert len(seen) == p ** n
        assert set(seen) == set(product(range(p), repeat=n))

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_kernel_tables_are_prefixes_of_the_full_code(self, p, n):
        steps = gray_steps(p, n)
        assert bias._Packed(p, n).gray() == [steps[:p ** k - 1] for k in range(n)]


class TestPack:
    def test_binary_cells_round_trip_at_every_length(self):
        kernel = bias._Packed(2, 2)
        gen = substream(2, 131)
        for length in range(131):
            cells = tuple(gen.below(2) for _ in range(length))
            x = kernel.pack(cells)
            assert x == kernel.pack(list(cells)) == int("".join(map(str, cells[::-1])) or "0", 2)
            assert kernel.cells(x, length) == bytes(cells)


class TestOrderTwoMemo:
    """The memoized order-2 fiber count against a fresh rank, and its bound."""

    @staticmethod
    def expected(p, cells):
        rows = [[c % p for c in cells[j * 2:(j + 1) * 2]] for j in range(2)]
        return p ** (2 - matrix_rank(PrimeField(p), rows))

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_every_reduced_matrix(self, p):
        kernel = bias._Packed(p, 2)
        assert kernel.memo is not None
        for cells in product(range(p), repeat=4):
            x = kernel.pack(cells)
            for _ in range(2):  # a miss, then a hit
                assert kernel.matrix_counts([x], 1, 4)[0] == self.expected(p, cells)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_unreduced_cells_of_the_walk(self, p):
        kernel = bias._Packed(p, 2)
        gen = substream(p, 0)
        unreduced = 0
        for _ in range(30):
            x = kernel.pack(random_tensor(PrimeField(p), 2, 3, gen.next_u64()).coeffs)
            for child in kernel.walk(x, 3, lines=False):
                cells = list(kernel.cells(child, 4))
                unreduced += max(cells) >= p
                assert kernel.matrix_counts([child], 1, 4)[0] == self.expected(p, cells)
        assert unreduced > 0

    def test_size_stays_within_its_bound(self):
        p = 3
        kernel = bias._Packed(p, 2)
        top = (p - 1) * 2 * (p - 1)  # largest unreduced cell one contraction deep
        inputs = [kernel.pack(cells) for cells in product(range(top + 1), repeat=4)]
        assert len(inputs) > p ** 4
        for x in inputs:
            kernel.matrix_counts([x], 1, 4)[0]
        assert 0 < len(kernel.memo) <= p ** 4 <= bias._MEMO_KEYS

    @pytest.mark.parametrize("p,n", [(2, 1), (2, 4), (3, 3), (11, 2)])
    def test_off_where_the_key_space_is_large_or_trivial(self, p, n):
        assert bias._Packed(p, n).memo is None


class TestHistogram:
    def test_xy_over_f2(self):
        t = from_entries(F2, 1, 2, [((0, 0), 1)])
        hist, value = bias_histogram(t)
        assert hist.counts == (3, 1)
        assert value.as_fraction() == Fraction(1, 2)

    def test_zero_tensor_counts(self):
        hist, value = bias_histogram(zero_tensor(F2, 1, 2))
        assert hist.counts == (4, 0)
        assert value.as_fraction() == 1

    def test_nonzero_values_equidistributed(self):
        for trial in range(10):
            t = random_tensor(F5, 2, 2, substream(3131, trial).next_u64())
            if t.is_zero():
                continue
            hist, _ = bias_histogram(t)
            nonzero = set(hist.counts[1:])
            assert len(nonzero) == 1

    def test_counts_sum_to_domain(self):
        hist, _ = bias_histogram(random_tensor(F3, 2, 3, 8))
        assert sum(hist.counts) == 3 ** 6


class TestAnalyticRank:
    def test_bias_one_gives_zero(self):
        rank = analytic_rank(bias_fiber(zero_tensor(F3, 2, 2)))
        assert rank.value == 0.0 and not rank.infinite

    def test_exact_integer_for_power_bias(self):
        # bias q^-r must give exactly r
        for r in range(5):
            value = analytic_rank(BiasValue(5 ** (6 - r), 6, 5))
            assert value.value == float(r)

    def test_identity_equals_n_times_constant(self):
        for q, field in ((2, F2), (3, F3)):
            for d in (3, 4):
                for n in (1, 4, 7):
                    rank = analytic_rank(bias_recursive(identity_tensor(field, n, d)))
                    assert abs(rank.value - n * c_constant(d, q)) < 1e-9

    def test_ceiling_is_exact(self):
        assert arank_ceil(BiasValue(3, 2, 2)) == 1  # -log2(3/4) in (0, 1)
        assert arank_ceil(BiasValue(4, 2, 2)) == 0
        assert arank_ceil(BiasValue(1, 6, 2)) == 6
        b = bias_fiber(identity_tensor(F2, 5, 3))
        assert arank_ceil(b) == 3  # ceil(5 * 0.41504) = 3
        with pytest.raises(ValueError):
            arank_ceil(BiasValue(0, 0, 2))


class TestConstant:
    def test_order_two_is_one(self):
        for q in (2, 3, 5, 7):
            assert c_constant(2, q) == 1.0

    def test_known_value(self):
        assert abs(c_constant(3, 2) - math.log2(4 / 3)) < 1e-15
        assert abs(c_constant(3, 2) - 0.415037499279) < 1e-12

    def test_stated_lower_bounds(self):
        for d in range(2, 8):
            for q in (2, 3, 5, 7, 11):
                c = c_constant(d, q)
                assert c >= 2.0 ** (-d)
                if q >= d:
                    assert c >= 1 - math.log(d - 1) / math.log(q)

    def test_sharper_char2_bound(self):
        # the proof's sharper bound at q=2, kept as an extra sanity check
        for d in range(2, 8):
            assert c_constant(d, 2) >= 2.0 ** (-(d - 1))


class TestMultiform:
    def test_top_only_family_matches_plain_bias(self):
        t = random_tensor(F2, 2, 3, 99)
        form = MultiComponentForm(F2, 2, 3, {frozenset({0, 1, 2}): t})
        result = bias_multiform(form)
        assert result.exact == bias_fiber(t).as_fraction()

    def test_constant_one_at_p2_gives_minus_one(self):
        const = Tensor(F2, 2, 0, (1,))
        form = MultiComponentForm(F2, 2, 2, {frozenset(): const})
        result = bias_multiform(form)
        assert result.exact == Fraction(-1)

    def test_bound_by_top_component(self):
        for trial in range(40):
            form = random_multiform(F2, 2, 3, substream(4242, trial).next_u64())
            result = bias_multiform(form)
            top = bias_fiber(form.top())
            assert abs(result.exact) <= top.as_fraction()

    def test_complex_engine_p3(self):
        for trial in range(15):
            form = random_multiform(F3, 2, 2, substream(555, trial).next_u64())
            result = bias_multiform(form)
            assert result.exact is None
            top = bias_fiber(form.top())
            assert result.magnitude <= top.to_float() + 1e-9
            assert result.error_bound <= 1e-10

    def test_chi_values(self):
        assert chi(F2, 0) == 1 and chi(F2, 1) == -1
        root = chi(F3, 1)
        assert abs(root ** 3 - 1) < 1e-12
        assert abs(root - complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))) < 1e-15


def union_find_components(t):
    """The coordinate blocks by union-find over the nonzero entries, each
    sorted, in the order of their least index."""
    parent = list(range(t.dim))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    seen = set()
    for idx, _ in t.nonzero_entries():
        seen.update(idx)
        for i in idx[1:]:
            parent[find(i)] = find(idx[0])
    groups = {}
    for i in sorted(seen):
        groups.setdefault(find(i), []).append(i)
    return [tuple(group) for group in groups.values()]


def shuffled_block_sum(field, d, sizes, dense, seed):
    """A direct sum of seeded blocks (dense, or one corner entry each) on
    coordinates shuffled by a seeded permutation."""
    gen = substream(seed, 0)
    n = sum(sizes)
    perm = sorted(range(n), key=lambda _: gen.next_u64())
    entries, offset = [], 0
    for size in sizes:
        block = random_tensor(field, size, d, gen.next_u64())
        local = block.nonzero_entries() if dense else [((0,) * d, 1 + gen.next_u64() % (field.p - 1))]
        entries += [(tuple(perm[offset + i] for i in idx), c) for idx, c in local]
        offset += size
    return from_entries(field, n, d, entries)


class TestComponents:
    @pytest.mark.parametrize("p,d,sizes,dense", [
        (2, 3, (3, 3, 2), True), (3, 3, (2, 2, 1), True), (3, 3, (1,) * 5, False),
        (2, 1, (2, 1, 3), True), (3, 1, (1,) * 4, False), (2, 4, (2, 1, 2), True),
        (3, 4, (2, 1, 1), True), (2, 2, (3, 1, 2), True),
    ])
    def test_shuffled_block_sums_match_union_find(self, p, d, sizes, dense):
        field = PrimeField(p)
        for seed in range(4):
            t = shuffled_block_sum(field, d, sizes, dense, 990 + seed)
            assert bias._components(t) == union_find_components(t)
            assert bias_recursive(t) == bias_fiber(t)

    @pytest.mark.parametrize("t", [zero_tensor(F3, 4, 3), zero_tensor(F2, 0, 3), Tensor(F2, 0, 1, ()),
                                   identity_tensor(F3, 4, 4), random_tensor(F5, 3, 1, 7)],
                             ids=["zero", "n0-order3", "n0-order1", "identity-order4", "order1"])
    def test_edge_tensors_match_union_find(self, t):
        assert bias._components(t) == union_find_components(t)
        assert bias_recursive(t) == bias_fiber(t)


class TestDirectSumMultiplicativity:
    @pytest.mark.parametrize("p", [2, 3])
    def test_bias_multiplies(self, p):
        field = PrimeField(p)
        for trial in range(20):
            gen = substream(660 + p, trial)
            t = random_tensor(field, 2, 3, gen.next_u64())
            s = random_tensor(field, 2, 3, gen.next_u64())
            assert bias_fiber(direct_sum(t, s)) == bias_fiber(t) * bias_fiber(s)


class TestBudget:
    def test_fiber_refuses_over_budget(self):
        t = random_tensor(F2, 3, 3, 1)
        with pytest.raises(BudgetExceededError):
            bias_fiber(t, budget=10)

    def test_histogram_refuses_over_budget(self):
        t = random_tensor(F2, 3, 3, 1)
        with pytest.raises(BudgetExceededError):
            bias_histogram(t, budget=100)

    def test_recursive_meters_actual_work(self):
        # the identity factors into singleton blocks, so it stays cheap
        # even where dense enumeration would exceed any sane budget
        t = identity_tensor(F3, 8, 4)
        value = bias_recursive(t, budget=10 ** 6)
        assert value.numerator == diagonal_bias_numerator(3, 8, 4, 8)
        dense = random_tensor(F2, 4, 4, 3)
        with pytest.raises(BudgetExceededError):
            bias_recursive(dense, budget=10)

    # The charge is q^m for each node of order >= 3 that the walk of a
    # distinct m-dimensional block expands: 2^10, 3^5, 8 (1 + 7) and 2^3.
    @pytest.mark.parametrize("t, charge", [
        (random_tensor(F2, 10, 3, 1), 1024),
        (random_tensor(F3, 5, 3, 1), 243),
        (random_tensor(F2, 3, 4, 9), 64),
        (direct_sum(random_tensor(F2, 3, 3, 1), random_tensor(F2, 3, 3, 1)), 8),
    ], ids=["dense-2-10-3", "dense-3-5-3", "dense-2-3-4", "equal-blocks-once"])
    def test_recursive_charge_is_pinned(self, t, charge):
        with pytest.raises(BudgetExceededError):
            bias_recursive(t, budget=charge - 1)
        assert bias_recursive(t, budget=charge) == bias_fiber(t)

    @pytest.mark.parametrize("p, dim", [(2, 40), (3, 25)])
    def test_recursive_factors_before_any_walk_of_the_full_dimension(self, p, dim):
        # blocks factor before any walk, so no Gray table of F_p^dim is built
        t = identity_tensor(PrimeField(p), dim, 3)
        value = bias_recursive(t)
        assert value.numerator == diagonal_bias_numerator(p, dim, 3, dim)
