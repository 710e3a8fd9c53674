"""Rank search, greedy bounds, and independent sets, with brute-force oracles."""

import functools
import hashlib
import random
import time
from itertools import combinations, product

import pytest

from biasrank.bias import BudgetExceededError, analytic_rank, bias_fiber
from biasrank.gf import Cells, PrimeField, matrix_rank, rank_mod_p
from biasrank import ranks
from biasrank.ranks import (
    KINDS,
    RankReport,
    greedy_decomposition,
    is_independent_set,
    max_independent_set,
    rank_bounds,
    rank_exact,
)
from biasrank.rng import substream
from biasrank.tensor import (
    Tensor,
    all_tensors,
    diagonal_tensor,
    from_entries,
    identity_tensor,
    random_tensor,
    zero_tensor,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def oracle_max_independent_set(t):
    """Exhaustive subset enumeration (sound for n <= 12)."""
    best = ()
    for size in range(t.dim, 0, -1):
        found = None
        for subset in combinations(range(t.dim), size):
            if is_independent_set(t, subset):
                found = subset
                break
        if found:
            best = found
            break
    return best


def _reference_independent_search(t):
    """max_independent_set by a walk of index tuples read through Tensor.entry:
    the set it returns and the index tuples it examines in all."""
    spent = [t.dim]
    candidates = [i for i in range(t.dim) if t.entry((i,) * t.order) != 0]
    best = [()]

    def can_extend(current, new):
        pool = current + (new,)
        for count, tup in enumerate(product(pool, repeat=t.order), 1):
            if new not in tup:
                continue
            if all(i == tup[0] for i in tup):
                continue
            if t.entry(tup) != 0:
                spent[0] += count
                return False
        spent[0] += len(pool) ** t.order
        return True

    def dfs(pos, current):
        if len(current) + (len(candidates) - pos) <= len(best[0]):
            return
        if pos == len(candidates):
            if len(current) > len(best[0]):
                best[0] = current
            return
        v = candidates[pos]
        if can_extend(current, v):
            dfs(pos + 1, current + (v,))
        dfs(pos + 1, current)

    dfs(0, ())
    return best[0], spent[0]


def _sparse_tensor(field, n, d, rng):
    """Diagonal cells mostly nonzero, the others rarely, so independent sets grow."""
    coeffs = [rng.randrange(1, field.p) if rng.random() < (0.75 if len(set(idx)) == 1 else 0.125)
              else 0 for idx in product(range(n), repeat=d)]
    return Tensor(field, n, d, coeffs)


def make_partition_rank_one(field, n, seed):
    """L(x^1) * B(x^2, x^3) from seeded nonzero factors."""
    gen = substream(seed, 0)
    while True:
        lin = tuple(gen.below(field.p) for _ in range(n))
        if any(lin):
            break
    while True:
        mat = tuple(gen.below(field.p) for _ in range(n * n))
        if any(mat):
            break
    entries = []
    for i in range(n):
        if not lin[i]:
            continue
        for j in range(n):
            for k in range(n):
                c = lin[i] * mat[j * n + k] % field.p
                if c:
                    entries.append(((i, j, k), c))
    return from_entries(field, n, 3, entries)


class TestExactSearch:
    def test_zero_tensor_all_kinds(self):
        t = zero_tensor(F2, 2, 3)
        for kind in ("rank", "srank", "prank"):
            report = rank_exact(t, kind)
            assert report.exact and report.value == 0

    def test_partition_rank_one_detected(self):
        for seed in range(10):
            t = make_partition_rank_one(F2, 2, seed)
            report = rank_exact(t, "prank")
            assert report.value == 1

    def test_identity_prank_is_dimension(self):
        report = rank_exact(identity_tensor(F2, 2, 3), "prank")
        assert report.exact and report.value == 2
        assert len(report.certificate) == 2

    def test_certificates_resum(self):
        for trial in range(20):
            t = random_tensor(F2, 2, 3, substream(88, trial).next_u64())
            for kind in ("rank", "srank", "prank"):
                report = rank_exact(t, kind)
                assert report.exact
                total = zero_tensor(F2, 2, 3)
                for term in report.certificate:
                    total = total + term.tensor
                assert total == t

    def test_rank_ordering_exhaustive_cube(self):
        for t in all_tensors(F2, 2, 3):
            prank = rank_exact(t, "prank").value
            srank = rank_exact(t, "srank").value
            rank = rank_exact(t, "rank").value
            assert prank <= srank <= rank
            assert prank == srank  # order 3: bipartitions have a singleton side

    def test_order_two_equals_matrix_rank(self):
        for t in all_tensors(F2, 2, 2):
            rows = [t.coeffs[0:2], t.coeffs[2:4]]
            expected = matrix_rank(F2, rows)
            for kind in ("rank", "srank", "prank"):
                assert rank_exact(t, kind).value == expected

    def test_budget_exhaustion_returns_interval(self):
        # a greedy decomposition of at most two terms is minimal at any budget,
        # even one too small for the bias, and lies inside the certified interval
        t = random_tensor(F3, 2, 3, 5)
        for budget, source in [(100, "analytic-rank"), (10, "trivial")]:
            bounds = rank_bounds(t, "prank", budget)
            assert bounds.lower_source == source and bounds.upper_source == "greedy"
            report = rank_exact(t, "prank", budget)
            assert report == RankReport("prank", bounds.upper, bounds.upper, True,
                                        bounds.certificate, "search", "greedy")
            assert bounds.lower <= report.value <= bounds.upper
            assert all(term == ranks._rank_one_term(term.tensor, "prank")
                       for term in report.certificate)
        with pytest.raises(ValueError):
            rank_bounds(t, "prank", 10).value

    def test_envelope_cap_refuses_oversized_search(self):
        # the duality is admitted at (3,3,3) by its 28^2 leaves and answers
        # inside the certified interval
        t = random_tensor(F3, 3, 3, 1)
        report, bounds = rank_exact(t, "prank"), rank_bounds(t, "prank")
        assert report.exact and report.lower_source == "search"
        assert bounds.lower <= report.value <= bounds.upper
        assert all(term == ranks._rank_one_term(term.tensor, "prank")
                   for term in report.certificate)

    # tensor rank at (2,4,3) runs out of lookups on seeds 0 and 1
    @pytest.mark.parametrize("p,n,kind", [
        (p, n, kind) for p, n in [(3, 3), (5, 3), (7, 3)] for kind in KINDS]
        + [(2, 4, "srank"), (2, 4, "prank")])
    def test_gen_seeds_are_exact_inside_the_bounds(self, p, n, kind):
        for seed in range(3):
            t = random_tensor(PrimeField(p), n, 3, seed)
            report, bounds = rank_exact(t, kind), rank_bounds(t, kind)
            assert report.exact and bounds.lower <= report.value <= bounds.upper
            if report.upper_source == "search":
                assert all(term == ranks._rank_one_term(term.tensor, kind)
                           for term in report.certificate)


class TestGreedy:
    def test_zero(self):
        assert len(greedy_decomposition(zero_tensor(F2, 2, 3), "prank")) == 0

    def test_probe_finds_rank_one(self):
        for seed in range(10):
            t = make_partition_rank_one(F3, 2, seed)
            assert len(greedy_decomposition(t, "prank")) == 1

    def test_greedy_at_least_exact(self):
        for trial in range(25):
            t = random_tensor(F2, 2, 3, substream(123, trial).next_u64())
            for kind in ("rank", "srank", "prank"):
                exact = rank_exact(t, kind).value
                assert len(greedy_decomposition(t, kind)) >= exact

    def test_identity_greedy_equals_dimension(self):
        assert len(greedy_decomposition(identity_tensor(F2, 2, 3), "prank")) == 2
        assert len(greedy_decomposition(identity_tensor(F2, 5, 3), "prank")) == 5

    def test_matrix_peel_is_exact(self):
        for trial in range(20):
            t = random_tensor(F3, 3, 2, substream(321, trial).next_u64())
            rows = [t.coeffs[i * 3:(i + 1) * 3] for i in range(3)]
            assert len(greedy_decomposition(t, "rank")) == matrix_rank(F3, rows)

    def test_full_rank_probe(self):
        # product of three linear forms has rank 1
        entries = []
        for i, j, k in product(range(2), repeat=3):
            c = (i + 1) * (j + 1) * (k + 1) % 3  # (1,2)x(1,2)x(1,2) outer cube
            if c:
                entries.append(((i, j, k), c))
        t = from_entries(F3, 2, 3, entries)
        assert len(greedy_decomposition(t, "rank")) == 1

    @pytest.mark.parametrize("kind", ["srank", "prank"])
    def test_slice_and_partition_terms_are_in_the_normal_form(self, kind):
        # Greedy `rank` terms need not be: the slice recursion and the matrix
        # peel write their own factors, and the certificate pin holds them.
        tensors = list(all_tensors(F2, 2, 3))
        for p, n, d in [(3, 2, 3), (2, 3, 3), (2, 2, 4), (5, 2, 3), (3, 3, 2)]:
            tensors += [random_tensor(PrimeField(p), n, d, substream(41, trial).next_u64())
                        for trial in range(20)]
        for t in tensors:
            for term in greedy_decomposition(t, kind):
                normal = ranks._rank_one_term(term.tensor, kind)
                assert (term.slots_a, term.factors) == (normal.slots_a, normal.factors)


class TestSearchTable:
    def test_none_below_order_two_and_over_the_cap(self):
        # no method lists rank-one arrays, so no listing has a cap
        assert not any(hasattr(ranks, name) for name in (
            "search_table", "_candidates", "_side_candidates", "_candidate_count", "_fits",
            "MAX_SEARCH_CANDIDATES"))

    @pytest.mark.parametrize("kind", ["rank", "srank", "prank"])
    def test_dimension_zero_table_is_empty(self, kind):
        # no array of dimension 0 is nonzero, so none is rank one
        assert _reference_candidates(F2, 0, 3, kind) == {}
        report = rank_exact(zero_tensor(F2, 0, 3), kind)
        assert report.exact and report.value == 0 and report.certificate == ()

    @pytest.mark.parametrize("p,n,d,kind", [
        (p, n, d, kind) for p, n, d in [(2, 2, 3), (3, 2, 3), (2, 2, 4)]
        for kind in ("rank", "srank", "prank")] + [(3, 3, 3, "srank"), (3, 3, 3, "prank"),
                                                   (2, 3, 3, "srank"), (2, 3, 3, "prank")])
    def test_rank_exact_gives_the_same_report_with_the_table(self, p, n, d, kind):
        # tensor rank's terms are read against the reference's full products
        field = PrimeField(p)
        # (3,3,3) has 767,598 slice terms, too many for the reference to list
        arrays = None if (p, n) == (3, 3) else _reference_arrays(p, n, d, kind)
        for trial in range(3):
            t = random_tensor(field, n, d, substream(57, trial).next_u64())
            report = rank_exact(t, kind)
            if arrays is None:  # unlisted, the exact method still answers
                bounds = rank_bounds(t, kind)
                assert report.exact and bounds.lower <= report.value <= bounds.upper
                assert all(term == ranks._rank_one_term(term.tensor, kind)
                           for term in report.certificate)
            else:  # an exact answer, whose terms are all candidate arrays
                assert report.exact
                assert {term.tensor.coeffs for term in report.certificate} <= set(arrays)

    def test_order_four_partition_rank_fits_only_at_n_at_most_two(self):
        # greedy, one slice term per nonzero slot-0 slice, decides every
        # order >= 4 partition rank at n <= 2; past that some get the interval
        for p, n, d in [(2, 1, 4), (2, 2, 4), (3, 2, 4), (5, 2, 4), (2, 2, 5)]:
            for trial in range(4):
                t = random_tensor(PrimeField(p), n, d, substream(65, trial).next_u64())
                report = rank_exact(t, "prank")
                assert report.exact and report.value <= n
        assert not rank_exact(random_tensor(F2, 3, 4, 0), "prank").exact


class TestLazyTable:
    @pytest.mark.parametrize("p,d,kind", [(5, 3, "prank"), (2, 4, "srank"), (2, 4, "prank")])
    def test_greedy_of_two_builds_no_table(self, p, d, kind):
        field = PrimeField(p)
        arrays = set(_reference_arrays(p, 2, d, kind))
        tensors = [random_tensor(field, 2, d, substream(63, trial).next_u64())
                   for trial in range(4)]
        assert not hasattr(ranks, "search_table")
        for t in tensors:
            greedy = greedy_decomposition(t, kind)
            # the probe and the table agree on rank one, so depths 0 and 1 fail past one term
            assert 1 <= len(greedy) <= 2 and (len(greedy) == 1) == (t.coeffs in arrays)
            report = rank_exact(t, kind)
            assert report == RankReport(kind, len(greedy), len(greedy), True, greedy,
                                        "search", "greedy")

    @pytest.mark.parametrize("kind", ["srank", "prank"])
    def test_slice_duality_builds_no_table(self, kind):
        tensors = [random_tensor(F2, 3, 3, seed) for seed in (0, 11, 95)]  # values 3, 2, 2
        assert not hasattr(ranks, "search_table")
        for t in tensors:
            assert len(greedy_decomposition(t, kind)) == 3
            report = rank_exact(t, kind)
            assert report.exact and report.value == len(report.certificate)
            assert all(term == ranks._rank_one_term(term.tensor, kind)
                       for term in report.certificate)

    def test_one_candidate_over_the_cap_gives_the_interval(self):
        # greedy of at most two terms is exact on either side of the budget
        # that once capped a listing of the 135 rank-one arrays
        assert not hasattr(ranks, "search_table")
        for trial in range(4):
            t = random_tensor(F2, 2, 3, substream(64, trial).next_u64())
            greedy = greedy_decomposition(t, "prank")
            assert len(greedy) <= 2
            bounds = rank_bounds(t, "prank", 8 * 134)
            for budget in (8 * 134, 8 * 135):
                report = rank_exact(t, "prank", budget)
                assert report == RankReport("prank", len(greedy), len(greedy), True, greedy,
                                            "search", "greedy")
                assert bounds.lower <= report.value <= bounds.upper


def _refuse_duality(*args, **kwargs):
    raise AssertionError("the duality ran past its leaf bound")


class TestAdmission:
    @pytest.mark.parametrize("p,n", [(2, 6), (2, 7), (2, 8), (3, 5)])
    def test_duality_over_its_leaves_gives_the_bounds_at_once(self, p, n, monkeypatch):
        # (sum_k [n k]_p)^2 leaves over the node limit: 2825^2 > 10^8 // 216
        # at (2,6,3), and 2664^2 > 10^8 // 125 at (3,5,3)
        assert sum(ranks._subspace_count(p, n, k) for k in range(n + 1)) ** 2 > 10 ** 8 // n ** 3
        monkeypatch.setattr(ranks, "_slice_duality", _refuse_duality)
        for seed in range(3):
            t = random_tensor(PrimeField(p), n, 3, seed)
            start = time.perf_counter()
            report = rank_exact(t, "srank")
            assert time.perf_counter() - start < 1.0
            assert report == rank_bounds(t, "srank")

    def test_slice_span_at_3_4_3_spends_its_lookups(self, monkeypatch):
        # 40^2 buckets are admitted; the walk then runs out of lookups
        t = random_tensor(F3, 4, 3, 0)
        span, limits = ranks._slice_span, []

        def recording(t, upper, node_limit, floor):
            try:
                return span(t, upper, node_limit, floor)
            except BudgetExceededError:
                limits.append(node_limit)
                raise

        monkeypatch.setattr(ranks, "_slice_span", recording)
        report = rank_exact(t, "rank")
        assert limits == [10 ** 8 // 64]
        assert report == rank_bounds(t, "rank") and not report.exact

    def test_small_budget_gives_the_bounds(self):
        # the bias costs 2^6 fixings, and the duality 16^2 leaves at 27 cells each
        t = random_tensor(F2, 3, 3, 11)  # slice rank 2, greedy 3
        for budget, source in [(63, "trivial"), (64, "analytic-rank"),
                               (27 * 256 - 1, "analytic-rank")]:
            report = rank_exact(t, "srank", budget)
            assert report == rank_bounds(t, "srank", budget) and not report.exact
            assert report.lower_source == source
        assert rank_exact(t, "srank", 27 * 256).value == 2


def _refuse_exact_method(*args, **kwargs):
    raise AssertionError("a matrix went past the pivot peel")


class TestOrderTwo:
    def test_every_kind_is_the_pivot_peel(self, monkeypatch):
        # every rank of a matrix is its matrix rank, which the peel reaches
        tensors = [identity_tensor(F2, 6, 2)] + [
            random_tensor(F3, 4, 2, substream(75, trial).next_u64()) for trial in range(4)]
        assert not hasattr(ranks, "search_table")
        monkeypatch.setattr(ranks, "_slice_duality", _refuse_exact_method)
        for t in tensors:
            rows = [t.coeffs[i * t.dim:(i + 1) * t.dim] for i in range(t.dim)]
            value = matrix_rank(t.field, rows)
            for kind in ("rank", "srank", "prank"):
                report = rank_exact(t, kind)
                greedy = greedy_decomposition(t, kind)
                assert report == RankReport(kind, value, value, True, greedy, "search", "greedy")
                if kind != "rank":
                    assert all(term == ranks._rank_one_term(term.tensor, kind) for term in greedy)

    def test_bounds_are_exact_over_the_cap(self):
        # (2,8,2) is over the listing cap, but a matrix takes the peel at any
        # size; the analytic rank of a matrix is its rank, and the peel meets it
        for trial in range(3):
            t = random_tensor(F2, 8, 2, substream(76, trial).next_u64())
            rows = [t.coeffs[i * 8:(i + 1) * 8] for i in range(8)]
            for kind in ("rank", "srank", "prank"):
                bounds = rank_bounds(t, kind)
                assert bounds.exact and bounds.lower_source == "analytic-rank"
                report = rank_exact(t, kind)
                assert report.exact and report.value == matrix_rank(F2, rows) == bounds.value
                assert (report.lower_source, report.upper_source) == ("search", "greedy")
                assert len(report.certificate) == report.value


class TestBoundsReport:
    def test_identity_bounds(self):
        report = rank_bounds(identity_tensor(F2, 5, 3), "prank")
        assert report.lower == 3  # ceil(5 * c(3,2)) = ceil(2.075)
        assert report.upper == 5
        assert report.lower_source == "analytic-rank"
        assert report.upper_source == "greedy"

    def test_lower_bound_sound_on_cube(self):
        for t in all_tensors(F2, 2, 3):
            exact = rank_exact(t, "prank").value
            if t.is_zero():
                continue
            report = rank_bounds(t, "prank")
            assert report.lower <= exact <= report.upper

    def test_order_one_and_zero_match_rank_exact(self):
        for t in (Tensor(F3, 3, 1, (0, 2, 1)), zero_tensor(F3, 3, 1), zero_tensor(F2, 2, 3)):
            for kind in ("rank", "srank", "prank"):
                assert rank_bounds(t, kind) == rank_exact(t, kind)

    def test_order_one_terms_have_the_documented_factors(self):
        for t in (Tensor(F3, 3, 1, (0, 2, 1)), Tensor(F5, 2, 1, (3, 4)), Tensor(F2, 1, 1, (1,))):
            for kind in ("rank", "srank", "prank"):
                (term,) = rank_bounds(t, kind).certificate
                assert term.kind == kind and term.tensor == t
                if kind == "rank":  # one linear form, the head
                    assert term.slots_a is None and term.factors == (t.coeffs,)
                    continue
                head, rest = term.factors  # tensors on slots (0,) and on no slot
                assert term.slots_a == (0,) and (head.order, rest.order) == (1, 0)
                assert next(x for x in head.coeffs if x) == 1
                assert tuple(x * rest.coeffs[0] % t.field.p for x in head.coeffs) == t.coeffs


class TestIndependentSets:
    def test_identity_full_set(self):
        t = identity_tensor(F2, 3, 3)
        assert is_independent_set(t, range(3))
        assert max_independent_set(t) == (0, 1, 2)

    def test_zero_tensor(self):
        t = zero_tensor(F2, 3, 3)
        assert not is_independent_set(t, (0,))
        assert is_independent_set(t, ())
        assert max_independent_set(t) == ()

    def test_singleton_iff_diagonal_nonzero(self):
        t = from_entries(F3, 3, 3, [((1, 1, 1), 2)])
        assert is_independent_set(t, (1,))
        assert not is_independent_set(t, (0,))

    def test_order_zero_scalar_is_its_own_diagonal(self):
        # the one entry of an order-0 tensor sits at the empty index, which is diagonal
        for c in (0, 1):
            t = Tensor(F3, 2, 0, (c,))
            assert [is_independent_set(t, s) for s in ((), (0,), (0, 1))] == [c == 1] * 3

    def test_off_diagonal_conflict(self):
        entries = [((0, 0, 0), 1), ((1, 1, 1), 1), ((0, 1, 1), 1)]
        t = from_entries(F2, 2, 3, entries)
        assert not is_independent_set(t, (0, 1))
        assert max_independent_set(t) in ((0,), (1,))
        assert max_independent_set(t) == (0,)  # lexicographic tie-break

    @pytest.mark.parametrize("p,n,d", [(2, 5, 3), (3, 4, 3), (2, 6, 2)])
    def test_matches_exhaustive_oracle(self, p, n, d):
        field = PrimeField(p)
        for trial in range(20):
            t = random_tensor(field, n, d, substream(777 * p + n, trial).next_u64())
            found = max_independent_set(t)
            oracle = oracle_max_independent_set(t)
            assert len(found) == len(oracle)
            assert is_independent_set(t, found)

    @pytest.mark.parametrize("p,n,d", [(2, 6, 3), (3, 4, 3), (2, 3, 3), (2, 5, 2),
                                       (5, 3, 4), (2, 4, 1)])
    def test_charges_the_tuple_walks_budget(self, p, n, d):
        # the least budget that returns, and the set returned, are the tuple walk's
        rng = random.Random(1000 * p + 10 * n + d)
        for _ in range(15):
            t = _sparse_tensor(PrimeField(p), n, d, rng)
            found, spent = _reference_independent_search(t)
            assert max_independent_set(t, budget=spent) == found
            with pytest.raises(BudgetExceededError):
                max_independent_set(t, budget=spent - 1)

    def test_larger_instance(self):
        t = identity_tensor(F2, 12, 3)
        assert max_independent_set(t) == tuple(range(12))

    def test_rejects_bad_indices(self):
        t = identity_tensor(F2, 2, 2)
        with pytest.raises(ValueError):
            is_independent_set(t, (0, 5))
        with pytest.raises(ValueError):
            is_independent_set(t, (0, 0))


def _table_terms(field, n, d, kind):
    """The term of each of the reference's sorted rank-one arrays, as
    certificates write it."""
    arrays = _reference_arrays(field.p, n, d, kind)
    return [ranks._rank_one_term(Tensor(field, n, d, coeffs), kind) for coeffs in arrays]


class TestCandidates:
    def test_arrays_unique_and_sorted(self):
        arrays = [term.tensor.coeffs for term in _table_terms(F2, 2, 3, "prank")]
        assert len(arrays) == len(set(arrays))
        assert arrays == sorted(arrays)

    def test_slice_candidates_subset_of_partition(self):
        slice_arrays = set(_reference_arrays(3, 2, 3, "srank"))
        partition_arrays = set(_reference_arrays(3, 2, 3, "prank"))
        assert slice_arrays <= partition_arrays

    @pytest.mark.parametrize("p,n,d", [(2, 2, 3), (3, 2, 3), (2, 2, 4)])
    def test_greedy_probe_gives_the_table_term(self, p, n, d):
        # one term each: the probe verifies every candidate rank one
        field = PrimeField(p)
        for kind in ("rank", "srank", "prank"):
            for term in _table_terms(field, n, d, kind):
                assert greedy_decomposition(term.tensor, kind) == (term,)


def _reference_merge(p, dim, order, slots_a, arr_a, arr_b):
    """T1(x^A) * T2(x^B) as a full order-d array, decoded one cell at a time."""
    slots_b = tuple(s for s in range(order) if s not in slots_a)
    coeffs = [0] * (dim ** order)
    for fa, ca in enumerate(arr_a):
        for fb, cb in enumerate(arr_b):
            idx = [0] * order
            f = fa
            for s in reversed(slots_a):
                idx[s] = f % dim
                f //= dim
            f = fb
            for s in reversed(slots_b):
                idx[s] = f % dim
                f //= dim
            flat = 0
            for i in idx:
                flat = flat * dim + i
            coeffs[flat] = (coeffs[flat] + ca * cb) % p
    return tuple(coeffs)


def _reference_candidates(field, dim, order, kind):
    """{coeffs: (slots_a, factors)} of the first candidate making each array."""
    p = field.p
    nonzero = [v for v in product(range(p), repeat=dim) if any(v)]
    seen = {}
    if kind == "rank":
        projective = [v for v in nonzero if next(x for x in v if x) == 1]
        for head in nonzero:
            for tail in product(projective, repeat=order - 1):
                vectors = (head,) + tail
                coeffs = (1,)
                for vec in vectors:
                    coeffs = tuple(c * x % p for c in coeffs for x in vec)
                seen.setdefault(coeffs, (None, vectors))
        return seen
    if kind == "srank":
        sides = [(s,) for s in range(order)]
    else:
        sides = [side for size in range(1, order // 2 + 1)
                 for side in combinations(range(order), size)
                 if 2 * size < order or 0 in side]
    for side in sides:
        len_a, len_b = dim ** len(side), dim ** (order - len(side))
        arrays_a = [v for v in product(range(p), repeat=len_a)
                    if any(v) and next(x for x in v if x) == 1]
        arrays_b = [v for v in product(range(p), repeat=len_b) if any(v)]
        for arr_a in arrays_a:
            for arr_b in arrays_b:
                coeffs = _reference_merge(p, dim, order, side, arr_a, arr_b)
                seen.setdefault(coeffs, (side, (arr_a, arr_b)))
    return seen


def _certificate_digest():
    """sha256 over the arrays, slots and factors of seeded exact certificates."""
    h = hashlib.sha256()
    for p, n, d in ((2, 2, 3), (3, 2, 3), (2, 2, 4)):
        field = PrimeField(p)
        for trial in range(4):
            t = random_tensor(field, n, d, substream(41, trial).next_u64())
            for kind in ("rank", "srank", "prank"):
                report = rank_exact(t, kind)
                assert report.exact
                for term in report.certificate:
                    factors = [list(getattr(f, "coeffs", f)) for f in term.factors]
                    h.update(repr((list(term.tensor.coeffs), term.slots_a,
                                   factors)).encode())
                h.update(b"|")
    return h.hexdigest()


def _report_digest():
    """sha256 over the certificates, exact or greedy, of tensors summed from d - 1 seeded
    slice terms, one per slot past 0, so that the duality and the slice span beat greedy's
    slot-0 slices; and the (p, d, kind) at which an exact method won."""
    h, wins = hashlib.sha256(), set()
    for p, n, d in ((2, 3, 3), (3, 3, 3), (5, 3, 3), (2, 4, 3), (3, 3, 4)):
        field = PrimeField(p)
        for trial in range(3):
            gen, coeffs = substream(44, trial), [0] * n ** d
            for slot in range(1, d):
                a, b = gen.residues(p, n), gen.residues(p, n ** (d - 1))
                for k, (fa, fb) in enumerate(ranks._cell_positions(n, d, (slot,))):
                    coeffs[k] = (coeffs[k] + a[fa] * b[fb]) % p
            t = Tensor(field, n, d, coeffs)
            for kind in ("srank", "prank") + (("rank",) if n == d == 3 else ()):
                report = rank_exact(t, kind)
                if report.upper_source == "search":
                    wins.add((p, d, kind))
                for term in report.certificate:
                    factors = [list(getattr(f, "coeffs", f)) for f in term.factors]
                    h.update(repr((list(term.tensor.coeffs), term.slots_a,
                                   factors)).encode())
                h.update(b"|")
    return h.hexdigest(), wins


class TestCandidateTable:
    @pytest.mark.parametrize("kind,p,n,d", [
        (kind, p, n, d) for kind in ("rank", "srank", "prank")
        for p, n, d in [(2, 1, 3), (2, 2, 2), (2, 2, 3), (3, 2, 3), (2, 2, 4)]]
        + [("rank", 5, 2, 3)])
    def test_matches_cell_by_cell_reference(self, p, n, d, kind):
        field = PrimeField(p)
        reference = _reference_candidates(field, n, d, kind)
        # the same arrays, sorted, each factored as the reference's first
        # producer; `rank` lists no table, so only its factors are compared
        terms = _table_terms(field, n, d, kind)
        assert [term.tensor.coeffs for term in terms] == sorted(reference)
        for term in terms:
            slots_a, factors = reference[term.tensor.coeffs]
            assert term.slots_a == slots_a
            assert tuple(getattr(f, "coeffs", f) for f in term.factors) == factors

    def test_build_makes_no_tensors(self, monkeypatch):
        made = []
        init = Tensor.__init__

        def counting_init(self, *args, **kwargs):
            made.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        assert not hasattr(ranks, "search_table")
        assert len(_reference_candidates(F5, 2, 3, "prank")) == 9504
        assert not made

    def test_certificates_are_pinned(self):
        assert _certificate_digest() == (
            "aac061a91f223bfdf9c75adf9a4add5fbd05617bd1f81abbd4f8e827ef84e078")

    def test_duality_certificates_are_pinned(self):
        digest, wins = _report_digest()
        # the duality wins at p = 2, 3 and 5 and at order 4; the slice span at n = d = 3
        assert {(2, 3, "srank"), (3, 3, "srank"), (5, 3, "srank"), (3, 4, "srank"),
                (2, 3, "rank"), (3, 3, "rank"), (5, 3, "rank")} <= wins
        assert digest == "35390387b9a158e1ddf0e05c27673b0448301069c4d21213814aaff43fc9fd4d"


def _reference_search(target, arrays, p, depths):
    """The candidate arrays summing to target at the first depth in `depths`
    that admits them, or None: a depth-limited DFS per depth over the sorted
    distinct `arrays` nonzero at the residual's first nonzero position,
    which is a complete pruning rule, keeping known failures per depth."""
    members = frozenset(arrays)
    by_pos = [[coeffs for coeffs in arrays if coeffs[pos]] for pos in range(len(target))]
    failed = set()

    def dfs(residual, remaining):
        if not any(residual):
            return []
        if remaining == 0 or (residual, remaining) in failed:
            return None
        if remaining == 1:
            return [residual] if residual in members else None
        pos = next(i for i, c in enumerate(residual) if c)
        for coeffs in by_pos[pos]:
            rest = dfs(tuple((a - b) % p for a, b in zip(residual, coeffs)), remaining - 1)
            if rest is not None:
                return [coeffs] + rest
        failed.add((residual, remaining))
        return None

    for depth in depths:
        failed.clear()
        found = dfs(target, depth)
        if found is not None:
            return found
    return None


@functools.lru_cache(maxsize=None)
def _reference_arrays(p, dim, order, kind):
    return sorted(_reference_candidates(PrimeField(p), dim, order, kind))


def _reference_value(t, kind):
    """Least depth below the greedy size at which the reference search writes
    t as rank-one terms of `kind`, or else the greedy size."""
    greedy = len(greedy_decomposition(t, kind))
    arrays = _reference_arrays(t.field.p, t.dim, t.order, kind)
    found = _reference_search(t.coeffs, arrays, t.field.p, range(greedy))
    return greedy if found is None else len(found)


def _duality_srank(t):
    """The duality's minimum, with its certificate re-summed."""
    cuts = ranks._slice_duality(t, t.dim + 1)  # n slices along slot 0 always do
    cert = ranks._slice_certificate(t, cuts, "srank")
    ranks._verify_certificate(t, cert)
    return len(cert)


def _planted_slice_sum(field, dim, order, terms, seed):
    """A sum of `terms` random slice terms, each on a random slot."""
    gen = substream(seed, 0)
    coeffs = [0] * dim ** order
    for _ in range(terms):
        slot = gen.below(order)
        form = gen.residues(field.p, dim)
        rest = gen.residues(field.p, dim ** (order - 1))
        term = _reference_merge(field.p, dim, order, (slot,), form, rest)
        coeffs = [(a + b) % field.p for a, b in zip(coeffs, term)]
    return Tensor(field, dim, order, tuple(coeffs))


class TestSliceDuality:
    @pytest.mark.parametrize("p,n,d", [(2, 2, 3), (2, 3, 2)])
    def test_matches_the_search_exhaustively(self, p, n, d):
        for t in all_tensors(PrimeField(p), n, d):
            assert _duality_srank(t) == _reference_value(t, "srank")

    # Odd-p contractions at (3, 3, 2) and (5, 3, 2), two-byte cells at (13, 2, 2).
    @pytest.mark.parametrize("p,n,d,trials", [(3, 2, 3, 50), (2, 3, 3, 50), (2, 2, 4, 30),
                                              (3, 3, 2, 30), (5, 3, 2, 30), (13, 2, 2, 30)])
    def test_matches_the_search_on_seeded_tensors(self, p, n, d, trials):
        field = PrimeField(p)
        for trial in range(trials):
            t = random_tensor(field, n, d, substream(91, trial).next_u64())
            assert _duality_srank(t) == _reference_value(t, "srank")

    @pytest.mark.parametrize("p,n", [(2, 3), (3, 3), (2, 4), (2, 5)])
    def test_diagonal_slice_rank_counts_its_nonzero_entries(self, p, n):
        for diagonal in product(range(p), repeat=n):
            t = diagonal_tensor(PrimeField(p), 3, diagonal)
            assert _duality_srank(t) == sum(1 for c in diagonal if c)

    @pytest.mark.parametrize("terms", [2, 3])
    def test_planted_slice_sums(self, terms):
        for trial in range(8):
            t = _planted_slice_sum(F2, 3, 3, terms, 100 * terms + trial)
            value = _duality_srank(t)
            assert value <= terms and value == _reference_value(t, "srank")

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("terms", [2, 3])
    def test_planted_slice_sums_past_the_listing_cap(self, p, terms):
        # at n = 4 the reference cannot list the candidates; rank_exact admits
        # the duality, and the value is at most the planted terms
        field = PrimeField(p)
        for trial in range(6):
            t = _planted_slice_sum(field, 4, 3, terms, 100 * terms + trial)
            for kind in ("srank", "prank"):
                report, bounds = rank_exact(t, kind), rank_bounds(t, kind)
                assert report.exact and len(report.certificate) == report.value
                assert bounds.lower <= report.value <= min(terms, bounds.upper)

    @pytest.mark.parametrize("n", [4, 5])
    def test_identity_slice_and_partition_rank_is_the_dimension(self, n):
        # Tao's diagonal lemma; the arank ceiling is below n at n = 4 and 5
        t = identity_tensor(F2, n, 3)
        assert rank_bounds(t, "srank").lower < n
        for kind in ("srank", "prank"):
            report = rank_exact(t, kind)
            assert report.exact and report.value == n

    def test_floor_and_bound_cut_the_walk_short(self):
        t = random_tensor(F2, 3, 3, 11)  # slice rank 2, greedy 3
        assert ranks._slice_duality(t, 2) is None
        assert sum(map(len, ranks._slice_duality(t, 3, floor=2))) == 2

    def test_cuts_and_certificates_are_pinned(self):
        assert _duality_digest() == (
            "606ec99b2cbb6ebc7d4da04f4b8c33aa48d407903acb812de837d339c29bf8df")


def _duality_digest():
    """sha256 over the duality's cuts and slice certificates with no greedy bound."""
    tensors = [random_tensor(F2, 3, 3, seed) for seed in (0, 1, 2, 11)]
    for p, n, d, trials in [(3, 3, 2, 20), (5, 3, 2, 20), (13, 2, 2, 20), (3, 3, 3, 10)]:
        tensors += [random_tensor(PrimeField(p), n, d, substream(97, trial).next_u64())
                    for trial in range(trials)]
    h = hashlib.sha256()
    for t in tensors:
        cuts = ranks._slice_duality(t, t.dim + 1)
        terms = ranks._slice_certificate(t, cuts, "srank")
        h.update(repr(([[(j, list(form)) for j, form in cut] for cut in cuts],
                       [(term.slots_a, [list(f.coeffs) for f in term.factors])
                        for term in terms])).encode())
    return h.hexdigest()


def _reference_subspaces(p, dim):
    """(basis, cut) of every subspace of F_p^n by increasing codimension, as
    the eager list that the lazy enumerator replaced built them."""
    spaces = []
    for rank in range(dim, -1, -1):
        for pivots in combinations(range(dim), rank):
            others = [j for j in range(dim) if j not in pivots]
            free = [(r, j) for r, q in enumerate(pivots) for j in others if j > q]
            for values in product(range(p), repeat=len(free)):
                basis = [[int(j == q) for j in range(dim)] for q in pivots]
                for (r, j), v in zip(free, values):
                    basis[r][j] = v
                cut = []
                for j in others:
                    form = [int(i == j) for i in range(dim)]
                    for q, row in zip(pivots, basis):
                        form[q] = -row[j] % p
                    cut.append((j, tuple(form)))
                spaces.append((basis, cut))
    return spaces


class TestSubspaces:
    @pytest.mark.parametrize("p,n", [(p, n) for p in (2, 3, 5) for n in range(5)])
    def test_each_dimension_matches_the_eager_reference(self, p, n):
        reference = _reference_subspaces(p, n)
        for k in range(n + 2):
            bases = list(ranks._subspaces(p, n, k))
            assert [(basis, ranks._cut(p, n, basis)) for basis in bases] == [
                (basis, cut) for basis, cut in reference if len(basis) == k]
            assert ranks._subspace_count(p, n, k) == len(bases)

    def test_gaussian_binomials(self):
        assert [ranks._subspace_count(2, 4, k) for k in range(6)] == [1, 15, 35, 15, 1, 0]
        assert ranks._subspace_count(3, 6, 2) == 11011
        assert sum(ranks._subspace_count(2, 8, k) for k in range(9)) == 417199


def _planted_rank_sum(field, dim, terms, seed):
    """A sum of `terms` random full products u x v x w at order 3."""
    gen = substream(seed, 0)
    coeffs = [0] * dim ** 3
    for _ in range(terms):
        vectors = [gen.residues(field.p, dim) for _ in range(3)]
        coeffs = [(a + b) % field.p for a, b in zip(coeffs, ranks._outer_product(field, vectors))]
    return Tensor(field, dim, 3, tuple(coeffs))


def _flattening_rank(t):
    """The largest rank of the n x n^2 matricizations along each slot."""
    return max(matrix_rank(t.field, [[t.entry(idx) for idx in product(range(t.dim), repeat=3)
                                      if idx[slot] == i] for i in range(t.dim)])
               for slot in range(3))


def _assert_matches_the_reference(tensors):
    for t in tensors:
        report = rank_exact(t, "rank")
        assert report.exact and report.value == _reference_value(t, "rank")
        if report.upper_source == "search":  # greedy terms past the probe are not
            assert all(term == ranks._rank_one_term(term.tensor, "rank")
                       for term in report.certificate)


class TestSliceSpan:
    @pytest.mark.parametrize("p,trials", [(2, None), (3, 50), (5, 50), (7, 20)])
    def test_matches_the_search_below_greedy(self, p, trials):
        field = PrimeField(p)
        _assert_matches_the_reference(
            all_tensors(field, 2, 3) if trials is None else
            [random_tensor(field, 2, 3, substream(93, trial).next_u64()) for trial in range(trials)])

    @pytest.mark.parametrize("p,trials", [(2, 30), (3, 4)])
    def test_matches_the_search_at_order_four(self, p, trials):
        field = PrimeField(p)
        _assert_matches_the_reference(
            [random_tensor(field, 2, 4, substream(94, trial).next_u64()) for trial in range(trials)])

    def test_odd_p_picks_read_every_point_of_the_span(self):
        # at odd p a pick grows the span by c b + v for every c != 0; a walk
        # that grows it by b + v alone misses points of U and answers 5 on
        # these rank-4 tensors
        _assert_matches_the_reference(
            [random_tensor(F3, 2, 4, substream(99, trial).next_u64()) for trial in (2, 75)])

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("terms", [2, 3, 4])
    def test_planted_sums(self, p, terms):
        field = PrimeField(p)
        for trial in range(6):
            t = _planted_rank_sum(field, 3, terms, 10 * terms + trial)
            report = rank_exact(t, "rank")
            assert report.exact and len(report.certificate) == report.value
            assert _flattening_rank(t) <= report.value <= terms

    def test_order_three_goes_to_no_search(self):
        # and neither does order 4: tensor rank takes the slice span at every order
        tensors = [random_tensor(PrimeField(p), n, d, seed) for p, n, d, seed in [
            (2, 2, 3, 7), (3, 2, 3, 1), (5, 2, 3, 2), (2, 3, 3, 0), (3, 3, 3, 1),
            (2, 2, 4, 0), (3, 2, 4, 0), (5, 2, 4, 0), (7, 2, 4, 0), (2, 2, 5, 0)]]
        assert not hasattr(ranks, "search_table")
        for t in tensors:
            assert len(greedy_decomposition(t, "rank")) > 2
            report = rank_exact(t, "rank")
            assert report.exact and report.value == len(report.certificate)

    def test_small_budget_gives_the_bounds_quickly(self):
        # greedy 13 over an analytic floor of 3: the walk to depth 2 alone passes
        # the 3,375 lookups of this budget
        t = random_tensor(F2, 4, 3, 7)
        budget = 64 * 3375
        start = time.perf_counter()
        report = rank_exact(t, "rank", budget)
        assert time.perf_counter() - start < 1.0
        assert report == rank_bounds(t, "rank", budget) and not report.exact
        with pytest.raises(BudgetExceededError):
            ranks._slice_span(t, 8, 1000)


def _pencil_discriminant(t):
    """The discriminant of det(x A + y B) mod p, for the slot-0 slices A, B of
    an order-3 tensor on F_p^2."""
    p, (a00, a01, a10, a11, b00, b01, b10, b11) = t.field.p, t.coeffs
    middle = a00 * b11 + a11 * b00 - a01 * b10 - a10 * b01
    return (middle * middle - 4 * (a00 * a11 - a01 * a10) * (b00 * b11 - b01 * b10)) % p


class TestLargePrimes:
    # at (p, 2, 3), p odd, a tensor whose pencil has a nonzero discriminant has rank 2
    # if that discriminant is a square mod p and 3 otherwise, which needs no search
    # reference; past p = 127 a quotient cell, which holds 2(p - 1), is wider than a byte
    @pytest.mark.parametrize("p,trials", [
        (11, 8), (13, 8), (17, 8), (127, 3), (131, 3), (251, 2), (257, 2)])
    def test_rank_at_n_two_is_read_off_the_pencil_discriminant(self, p, trials):
        field, seen = PrimeField(p), set()
        for trial in range(trials):
            t = random_tensor(field, 2, 3, substream(95, trial).next_u64())
            if discriminant := _pencil_discriminant(t):
                report = rank_exact(t, "rank")
                assert report.exact and len(report.certificate) == report.value
                assert report.value == (2 if pow(discriminant, (p - 1) // 2, p) == 1 else 3)
                seen.add(report.value)
        # the small fields meet both values in their trials, the large ones at least one
        assert seen == {2, 3} or (p > 17 and seen)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 127, 131, 251, 257])
    def test_cells_arithmetic_is_tuple_arithmetic_mod_p(self, p):
        gen, count = substream(96, p), 5
        cells = Cells(p, count)
        for _ in range(40):
            a, b = gen.residues(p, count), gen.residues(p, count)
            c = 1 + gen.below(p - 1)
            assert cells.cells(cells.pack(a)) == list(a)
            assert cells.cells(cells.add(cells.pack(a), cells.pack(b))) == [
                (x + y) % p for x, y in zip(a, b)]
            assert cells.cells(cells.scale(cells.pack(a), c)) == [c * x % p for x in a]
            assert [cells.cells(m) for m in cells.multiples(cells.pack(a))] == [
                [c * x % p for x in a] for c in range(p)]
        # every cell at p - 1 is the worst carry
        top = cells.pack([p - 1] * count)
        assert cells.cells(cells.add(top, top)) == [p - 2] * count
        assert cells.cells(cells.scale(top, p - 1)) == [1] * count

    def test_packed_cells_sort_as_tuples(self):
        gen = substream(98, 0)
        for p in (2, 3, 131, 257):
            cells = Cells(p, 4)
            rows = sorted({gen.residues(p, 4) for _ in range(60)})
            assert sorted(map(cells.pack, rows)) == list(map(cells.pack, rows))


class TestRankOneTable:
    @pytest.mark.parametrize("p,n,order", [(2, 2, 2), (5, 2, 2), (3, 3, 2), (2, 2, 3)])
    def test_the_table_keeps_the_product_order(self, p, n, order):
        field = PrimeField(p)
        listing = list(product(ranks._projective_vectors(field, n), repeat=order))
        cells, factors, rows = ranks._rank_ones(field, n, order)
        assert list(factors) == listing
        assert [cells.cells(row) for row in rows] == [
            list(ranks._outer_product(field, vectors)) for vectors in listing]
        assert ranks._rank_ones(field, n, order) is ranks._rank_ones(field, n, order)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 257])
    def test_span_terms_are_in_the_normal_form(self, p):
        field, found = PrimeField(p), 0
        for trial in range(6 if p < 257 else 1):
            t = random_tensor(field, 2, 3, substream(92, trial).next_u64())
            report = rank_exact(t, "rank")
            if report.upper_source == "search":  # the slice span wrote these terms
                found += 1
                assert all(term == ranks._rank_one_term(term.tensor, "rank")
                           for term in report.certificate)
        assert found

    def test_verify_certificate_checks_shape_and_sum(self):
        t = random_tensor(F3, 2, 3, 5)
        report = rank_exact(t, "rank")
        ranks._verify_certificate(t, report.certificate)
        with pytest.raises(AssertionError):
            ranks._verify_certificate(t, report.certificate[1:])
        with pytest.raises(ValueError):
            ranks._verify_certificate(random_tensor(F3, 2, 2, 5), report.certificate)


def _reference_echelon_cut(p, dim, rows):
    """(pivot, form) of an echelon basis of the span of `rows`, as the tuple code that the
    packed one replaced built it: the pivot splits peeled off the rows read column-major."""
    positions = [(j, i) for i in range(len(rows)) for j in range(dim)]
    splits = ranks._peel(p, [x for row in rows for x in row], positions)
    return [(form.index(1), form) for form, _ in splits]


def _reference_split(t, side):
    """(A-array, B-array) of a rank-one (A, B) matricization, or None: each
    cell's row and column decoded from its digits, the rank by matrix_rank."""
    field, n, d = t.field, t.dim, t.order
    rows = [[0] * n ** (d - len(side)) for _ in range(n ** len(side))]
    for flat, c in enumerate(t.coeffs):
        fa = fb = 0
        for s in range(d):
            digit = flat // n ** (d - 1 - s) % n
            if s in side:
                fa = fa * n + digit
            else:
                fb = fb * n + digit
        rows[fa][fb] = c
    if matrix_rank(field, rows) != 1:
        return None
    r0 = next(i for i, row in enumerate(rows) if any(row))
    c0 = next(j for j, x in enumerate(rows[r0]) if x)
    inv = field.inv(rows[r0][c0])
    return tuple(row[c0] * inv % field.p for row in rows), tuple(rows[r0])


class TestPivotSplit:
    @pytest.mark.parametrize("p,n,d", [(2, 2, 3), (3, 2, 3), (2, 2, 4), (5, 2, 3)])
    def test_rank_one_split_matches_the_matrix_rank_reference(self, p, n, d):
        field = PrimeField(p)
        sides = sorted(set(ranks._partition_sides(d, True) + ranks._partition_sides(d, False)))
        gen = substream(71, p * 100 + d)
        tensors = [random_tensor(field, n, d, substream(72, trial).next_u64())
                   for trial in range(20)]
        for side in sides:
            for _ in range(10):
                arr_a = arr_b = ()
                while not any(arr_a):
                    arr_a = gen.residues(p, n ** len(side))
                while not any(arr_b):
                    arr_b = gen.residues(p, n ** (d - len(side)))
                tensors.append(Tensor(field, n, d, _reference_merge(p, n, d, side, arr_a, arr_b)))
        tensors.append(zero_tensor(field, n, d))
        for t in tensors:
            for side in sides:
                assert ranks._rank_one_split(t, side) == _reference_split(t, side)

    @pytest.mark.parametrize("p", [2, 3, 13, 131, 257])
    def test_echelon_cut_is_an_echelon_basis_of_the_span(self, p):
        gen = substream(73, p)
        cases = [[], [[0, 0, 0]], [[0] * 4, [0] * 4]]
        for trial in range(30):
            dim, count = 1 + trial % 4, trial % 5
            rows = [list(gen.residues(p, dim)) for _ in range(count)]
            if rows:  # a zero row and a combination of the others
                rows.insert(gen.below(len(rows) + 1), [0] * dim)
                k = gen.below(p)
                rows.append([(a + k * b) % p for a, b in zip(rows[0], rows[-1])])
            cases.append(rows)
        for rows in cases:
            dim = len(rows[0]) if rows else 3
            cells = Cells(p, dim)
            packed = cells.echelon(map(cells.pack, rows))
            cut = [(pivot, tuple(cells.cells(form))) for pivot, form, _ in packed]
            assert cut == _reference_echelon_cut(p, dim, rows)
            for _, form, negated in packed:
                assert [cells.cells(m) for m in negated] == [
                    [-c * x % p for x in cells.cells(form)] for c in range(p)]
            assert not any(cells.reduce(cells.pack(row), packed) for row in rows)
            assert cells.rank(map(cells.pack, rows)) == rank_mod_p(p, rows)
            pivots = [pivot for pivot, _ in cut]
            assert pivots == sorted(set(pivots))
            for k, (pivot, form) in enumerate(cut):
                assert form[pivot] == 1 and not any(form[:pivot])
                assert all(later[q] == 0 for q in pivots[:k + 1] for _, later in cut[k + 1:])
            rank = rank_mod_p(p, rows)
            assert len(cut) == rank == rank_mod_p(p, rows + [form for _, form in cut])


class TestRankInequalitiesOnCube:
    def test_arank_below_prank_exhaustive(self):
        q = 2
        for t in all_tensors(F2, 2, 3):
            b = bias_fiber(t)
            prank = rank_exact(t, "prank").value
            # bias >= q^-prank, cross-multiplied
            assert b.numerator * q ** prank >= q ** b.exponent

    def test_independent_set_bound_exhaustive(self):
        for t in all_tensors(F2, 2, 3):
            size = len(max_independent_set(t))
            rank = analytic_rank(bias_fiber(t))
            assert rank.value >= 2 ** (-3) * size - 1e-12
