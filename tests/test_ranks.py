"""Rank search, greedy bounds, and independent sets, with brute-force oracles."""

import functools
import hashlib
import time
from itertools import combinations, product

import pytest

from biasrank.bias import BudgetExceededError, analytic_rank, bias_fiber
from biasrank.gf import PrimeField, matrix_rank, rank_mod_p
from biasrank import ranks
from biasrank.ranks import (
    RankReport,
    greedy_decomposition,
    is_independent_set,
    max_independent_set,
    rank_bounds,
    rank_exact,
    search_table,
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
        t = random_tensor(F3, 2, 3, 5)
        report = rank_exact(t, "prank", budget=100)
        # no search happened: bounds come from the analytic rank and greedy,
        # and the value is exact only when they happen to coincide
        assert report.lower_source == "analytic-rank"
        assert report.upper_source == "greedy"
        assert report.lower <= report.upper
        assert report.exact == (report.lower == report.upper)
        tiny = rank_exact(t, "prank", budget=10)
        assert not tiny.exact and tiny.lower_source == "trivial"
        with pytest.raises(ValueError):
            tiny.value

    def test_envelope_cap_refuses_oversized_search(self):
        t = random_tensor(F3, 3, 3, 1)
        report = rank_exact(t, "prank")
        assert report.lower_source in ("analytic-rank", "trivial")
        assert report.upper_source == "greedy"


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
        assert search_table(F2, 3, 1, "prank", 10 ** 8) is None
        assert search_table(F3, 3, 3, "prank", 10 ** 8) is None  # over MAX_SEARCH_CANDIDATES
        assert search_table(F2, 2, 3, "prank", 8 * 134) is None  # 135 candidates
        assert len(search_table(F2, 2, 3, "prank", 8 * 135)) > 0

    @pytest.mark.parametrize("kind", ["rank", "srank", "prank"])
    def test_dimension_zero_table_is_empty(self, kind):
        if kind == "rank":  # tensor rank lists no table at any dimension
            for n, d in [(0, 3), (2, 3), (2, 4), (3, 9)]:
                with pytest.raises(ValueError):
                    search_table(F2, n, d, kind, 10 ** 8)
            with pytest.raises(ValueError):
                list(ranks._candidates(F2, 2, 3, kind))
        else:
            assert search_table(F2, 0, 3, kind, 10 ** 8) == []

    @pytest.mark.parametrize("p,n,d,kind", [
        (p, n, d, kind) for p, n, d in [(2, 2, 3), (3, 2, 3), (2, 2, 4)]
        for kind in ("rank", "srank", "prank")] + [(3, 3, 3, "srank"), (3, 3, 3, "prank"),
                                                   (2, 3, 3, "srank"), (2, 3, 3, "prank")])
    def test_rank_exact_gives_the_same_report_with_the_table(self, p, n, d, kind):
        # tensor rank's terms are read against the reference's full products
        field = PrimeField(p)
        arrays = (_reference_candidates(field, n, d, kind) if kind == "rank"
                  else search_table(field, n, d, kind, 10 ** 8))
        for trial in range(3):
            t = random_tensor(field, n, d, substream(57, trial).next_u64())
            report = rank_exact(t, kind)
            if arrays is None:
                assert report == rank_bounds(t, kind)
            else:  # an exact answer, whose terms are all candidate arrays
                assert report.exact
                assert {term.tensor.coeffs for term in report.certificate} <= set(arrays)

    def test_order_four_partition_rank_fits_only_at_n_at_most_two(self):
        # so greedy, one slice term per nonzero slot-0 slice, decides every
        # order >= 4 partition rank that an exact method could take
        fitting = [(p, n, d) for p in (2, 3, 5, 7, 11, 13) for n in range(1, 9)
                   for d in range(4, 7) if ranks._fits(p, n, d, "prank", 10 ** 18)]
        assert (2, 2, 4) in fitting and all(n <= 2 for _, n, _ in fitting)


def _refuse_table(*args):
    raise AssertionError("the search built a table it does not read")


class TestLazyTable:
    @pytest.mark.parametrize("p,d,kind", [(5, 3, "prank"), (2, 4, "srank"), (2, 4, "prank")])
    def test_greedy_of_two_builds_no_table(self, p, d, kind, monkeypatch):
        field = PrimeField(p)
        arrays = set(search_table(field, 2, d, kind, 10 ** 8))
        tensors = [random_tensor(field, 2, d, substream(63, trial).next_u64())
                   for trial in range(4)]
        monkeypatch.setattr(ranks, "search_table", _refuse_table)
        for t in tensors:
            greedy = greedy_decomposition(t, kind)
            # the probe and the table agree on rank one, so depths 0 and 1 fail past one term
            assert 1 <= len(greedy) <= 2 and (len(greedy) == 1) == (t.coeffs in arrays)
            report = rank_exact(t, kind)
            assert report == RankReport(kind, len(greedy), len(greedy), True, greedy,
                                        "search", "greedy")

    @pytest.mark.parametrize("kind", ["srank", "prank"])
    def test_slice_duality_builds_no_table(self, kind, monkeypatch):
        tensors = [random_tensor(F2, 3, 3, seed) for seed in (0, 11, 95)]  # values 3, 2, 2
        monkeypatch.setattr(ranks, "search_table", _refuse_table)
        for t in tensors:
            assert len(greedy_decomposition(t, kind)) == 3
            report = rank_exact(t, kind)
            assert report.exact and report.value == len(report.certificate)
            assert all(term == ranks._rank_one_term(term.tensor, kind)
                       for term in report.certificate)

    def test_one_candidate_over_the_cap_gives_the_interval(self):
        for trial in range(4):
            t = random_tensor(F2, 2, 3, substream(64, trial).next_u64())
            assert len(greedy_decomposition(t, "prank")) <= 2
            assert rank_exact(t, "prank", 8 * 134) == rank_bounds(t, "prank", 8 * 134)
            assert rank_exact(t, "prank", 8 * 135).lower_source == "search"


def _refuse_exact_method(*args, **kwargs):
    raise AssertionError("a matrix went past the pivot peel")


class TestOrderTwo:
    def test_every_kind_is_the_pivot_peel(self, monkeypatch):
        # every rank of a matrix is its matrix rank, which the peel reaches
        tensors = [identity_tensor(F2, 6, 2)] + [
            random_tensor(F3, 4, 2, substream(75, trial).next_u64()) for trial in range(4)]
        monkeypatch.setattr(ranks, "search_table", _refuse_exact_method)
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
        # (2,8,2) is over the cap for every kind; the analytic rank of a
        # matrix is its rank, and the peel meets it
        for trial in range(3):
            t = random_tensor(F2, 8, 2, substream(76, trial).next_u64())
            rows = [t.coeffs[i * 8:(i + 1) * 8] for i in range(8)]
            for kind in ("rank", "srank", "prank"):
                assert not ranks._fits(2, 8, 2, kind, 10 ** 8)
                report = rank_exact(t, kind)
                assert report.exact and report.value == matrix_rank(F2, rows)
                assert (report.lower_source, report.upper_source) == ("analytic-rank", "greedy")


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
    """The term of each candidate array, as certificates write it: the
    table's arrays for slice and partition rank, the reference's full
    products for tensor rank, which lists no table."""
    arrays = (sorted(_reference_candidates(field, n, d, kind)) if kind == "rank"
              else search_table(field, n, d, kind, 10 ** 8))
    return [ranks._rank_one_term(Tensor(field, n, d, coeffs), kind) for coeffs in arrays]


class TestCandidates:
    def test_arrays_unique_and_sorted(self):
        arrays = [term.tensor.coeffs for term in _table_terms(F2, 2, 3, "prank")]
        assert len(arrays) == len(set(arrays))
        assert arrays == sorted(arrays)

    def test_slice_candidates_subset_of_partition(self):
        slice_arrays = set(search_table(F3, 2, 3, "srank", 10 ** 8))
        partition_arrays = set(search_table(F3, 2, 3, "prank", 10 ** 8))
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
        assert len(search_table(F5, 2, 3, "prank", 10 ** 8)) == 9504
        assert not made

    def test_certificates_are_pinned(self):
        assert _certificate_digest() == (
            "aac061a91f223bfdf9c75adf9a4add5fbd05617bd1f81abbd4f8e827ef84e078")


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
    cuts = ranks._slice_duality(t, t.dim + 1, 10 ** 9)  # n slices along slot 0 always do
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

    @pytest.mark.parametrize("p,n", [(2, 3), (3, 3)])
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

    def test_floor_and_bound_cut_the_walk_short(self):
        t = random_tensor(F2, 3, 3, 11)  # slice rank 2, greedy 3
        assert ranks._slice_duality(t, 2, 10 ** 9) is None
        assert sum(map(len, ranks._slice_duality(t, 3, 10 ** 9, floor=2))) == 2
        with pytest.raises(BudgetExceededError):
            ranks._slice_duality(t, 3, 0)

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
        cuts = ranks._slice_duality(t, t.dim + 1, 10 ** 9)
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


def _refuse_search(*args, **kwargs):
    raise AssertionError("tensor rank went to the candidate search")


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

    def test_order_three_goes_to_no_search(self, monkeypatch):
        # and neither does order 4: tensor rank takes the slice span at every order
        tensors = [random_tensor(PrimeField(p), n, d, seed) for p, n, d, seed in [
            (2, 2, 3, 7), (3, 2, 3, 1), (5, 2, 3, 2), (2, 3, 3, 0), (3, 3, 3, 1),
            (2, 2, 4, 0), (3, 2, 4, 0), (5, 2, 4, 0), (7, 2, 4, 0), (2, 2, 5, 0)]]
        monkeypatch.setattr(ranks, "search_table", _refuse_search)
        for t in tensors:
            assert len(greedy_decomposition(t, "rank")) > 2
            report = rank_exact(t, "rank")
            assert report.exact and report.value == len(report.certificate)

    def test_small_budget_gives_the_bounds_quickly(self):
        # greedy 13 over an analytic floor of 3: the walk to depth 2 alone passes
        # the 3,375 lookups of the least budget that fits
        t = random_tensor(F2, 4, 3, 7)
        budget = 64 * ranks._candidate_count(2, 4, 3, "rank")
        start = time.perf_counter()
        report = rank_exact(t, "rank", budget)
        assert time.perf_counter() - start < 1.0
        assert report == rank_bounds(t, "rank", budget) and not report.exact
        with pytest.raises(BudgetExceededError):
            ranks._slice_span(t, 8, 1000)


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

    @pytest.mark.parametrize("p", [2, 3, 13])
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
            cut = ranks._echelon_cut(p, dim, rows)
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
