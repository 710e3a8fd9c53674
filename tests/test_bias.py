"""Bias engines against each other, a naive oracle, and closed-form values."""

import math
from fractions import Fraction
from itertools import product

import pytest

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
    vectors = list(product(range(p), repeat=n))
    count = 0
    for fixing in product(vectors, repeat=d - 1):
        coeffs = []
        for i in range(n):
            total = 0
            for idx in product(range(n), repeat=d - 1):
                term = t.entry((i,) + idx)
                for slot, j in enumerate(idx):
                    term *= fixing[slot][j]
                total += term
            coeffs.append(total % p)
        count += all(c == 0 for c in coeffs)
    return count


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
            assert bias_fiber(t).is_one()
            assert bias_recursive(t).is_one()
            assert bias_histogram(t)[1].is_one()

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
        assert bias_fiber(zero).is_one()
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
    # nothing with them can catch a fault in it.  At (7, 2, 3) the histogram
    # packs its cells into two bytes each.
    @pytest.mark.parametrize("p,n,d", [(2, 3, 3), (2, 2, 4), (5, 2, 2), (3, 1, 3), (3, 2, 3),
                                       (7, 2, 3)])
    def test_fiber_matches_naive_oracle(self, p, n, d):
        field = PrimeField(p)
        for trial in range(15):
            t = random_tensor(field, n, d, substream(321, trial).next_u64())
            expected = oracle_zero_fibers(t)
            assert bias_fiber(t).numerator == expected
            assert bias_recursive(t).numerator == expected
            assert bias_histogram(t)[1].numerator == expected

    def test_positive_for_order_two_and_up(self):
        for trial in range(20):
            t = random_tensor(F2, 3, 3, substream(11, trial).next_u64())
            assert bias_fiber(t).numerator >= 1


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


class TestHistogram:
    def test_xy_over_f2(self):
        t = from_entries(F2, 1, 2, [((0, 0), 1)])
        hist, value = bias_histogram(t)
        assert hist.counts == (3, 1)
        assert value.as_fraction() == Fraction(1, 2)

    def test_zero_tensor_counts(self):
        hist, value = bias_histogram(zero_tensor(F2, 1, 2))
        assert hist.counts == (4, 0)
        assert value.is_one()

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

    @pytest.mark.parametrize("p, dim", [(2, 40), (3, 25)])
    def test_recursive_factors_before_any_walk_of_the_full_dimension(self, p, dim):
        # blocks factor before any walk, so no Gray table of F_p^dim is built
        t = identity_tensor(PrimeField(p), dim, 3)
        value = bias_recursive(t)
        assert value.numerator == diagonal_bias_numerator(p, dim, 3, dim)
