"""The law harness: every law holds on its universe, runs reproduce bit-for-bit."""

import hashlib
import json
import time
from itertools import islice, product

import pytest

from biasrank import gf, laws, ranks
from biasrank.bias import BiasValue, BudgetExceededError
from biasrank.gf import PrimeField, matrix_rank, random_full_rank_basis
from biasrank.laws import (
    CorrelationInstance,
    _correlation_ok,
    law_arank_le_prank,
    law_basis_invariance,
    law_correlation,
    law_independent_bound,
    law_lemma_bias,
    law_restriction_monotone,
    law_subadditivity,
)
from biasrank.ranks import greedy_decomposition, rank_bounds
from biasrank.rng import substream
from biasrank.survey import survey_gap
from biasrank.tensor import (
    MultiComponentForm,
    Tensor,
    all_tensors,
    direct_sum,
    from_entries,
    identity_tensor,
    random_multiform,
    random_tensor,
    restrict,
    zero_tensor,
)
from test_ranks import _reference_candidates

F2 = PrimeField(2)
F3 = PrimeField(3)


class TestSubadditivity:
    def test_exhaustive_cube_holds(self):
        result = law_subadditivity(F2, 2, 3, exhaustive=True)
        assert result.holds
        assert result.checked == 65536
        assert result.min_slack is not None and result.min_slack >= -1e-15

    def test_random_pairs_hold(self):
        result = law_subadditivity(F3, 2, 3, trials=300, seed=5)
        assert result.holds and result.checked == 300

    def test_zero_partner_gives_equality(self):
        # with S = 0 both sides agree, so the minimum slack over the cube is 0
        result = law_subadditivity(F2, 2, 2, exhaustive=True)
        assert result.holds
        assert result.min_slack == 0.0

    def test_disjoint_pairs_exactly_tight(self):
        result = law_subadditivity(F2, 2, 3, trials=0, seed=9, disjoint_trials=50)
        assert result.holds
        assert "direct-sum tightness: 50/50" in result.notes[0]


def break_fiber_counts(monkeypatch, broken):
    """Make the law's K of the tensor with coefficients `broken` 0, both in its
    batched counts and in the bias_fiber that replays a failure; returns the
    broken bias_fiber."""
    real, real_counts = laws.bias_fiber, laws.fiber_counts

    def bias_fiber(t, budget=laws.DEFAULT_BUDGET):
        value = real(t, budget)
        return BiasValue(0, value.exponent, value.base) if t.coeffs == broken else value

    def fiber_counts(field, dim, order, rows, budget=laws.DEFAULT_BUDGET):
        counts = real_counts(field, dim, order, rows, budget)
        return [0 if tuple(row) == broken else k for row, k in zip(rows, counts)]

    monkeypatch.setattr(laws, "bias_fiber", bias_fiber)
    monkeypatch.setattr(laws, "fiber_counts", fiber_counts)
    return bias_fiber


def broken_row(law, field, n, d, seed, trial):
    """The coefficients of the tensor whose K, broken, fails trial `trial` of the law's
    first seeded phase, from the per-trial draw and the Tensor operations: correlation's
    lifted sum, lemma-bias's top component, the restriction or change of basis, or the
    direct sum of subadditivity's direct-sum phase."""
    gen = substream(seed ^ 0x5D15 if law is law_subadditivity else seed, trial)
    if law is law_correlation:
        m, k = (1 + gen.below(laws.CORRELATION_MAX_EACH) for _ in range(2))
        groups = [tuple(random_tensor(field, n, d, gen.next_u64()) for _ in range(size))
                  for size in (m, k)]
        lift_t, lift_s = CorrelationInstance(field, n, d, *groups).lifted()
        return (lift_t + lift_s).coeffs
    if law is law_lemma_bias:
        return random_multiform(field, n, d, gen.next_u64()).top().coeffs
    t = random_tensor(field, n, d, gen.next_u64())
    if law is law_subadditivity:
        return direct_sum(t, random_tensor(field, n, d, gen.next_u64())).coeffs
    k = n if law is law_basis_invariance else 1 + gen.below(n)
    return restrict(t, random_full_rank_basis(field, n, k, gen)).coeffs


def broken_result(monkeypatch, law, p, n, d, trial, seed=6, trials=150):
    """The law's result over `trials` seeded trials (direct sums only, for
    subadditivity) with the K of broken_row's tensor broken."""
    field = PrimeField(p)
    break_fiber_counts(monkeypatch, broken_row(law, field, n, d, seed, trial))
    if law is law_subadditivity:
        return law(field, n, d, trials=0, seed=seed, disjoint_trials=trials)
    return law(field, n, d, trials=trials, seed=seed)


def result_digest(result) -> str:
    """sha256 of the witness, checked and min_slack, as sorted JSON; its first 16 digits."""
    fields = [result.witness, result.checked, result.min_slack]
    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()[:16]


class TestSubadditivityPairsByIndex:
    """Exhaustive pairs are cube indices, seeded pairs coefficient rows; tensors
    are added only to replay a witness."""

    def test_passing_exhaustive_run_adds_no_tensors(self, monkeypatch):
        calls = []
        add = Tensor.__add__
        monkeypatch.setattr(Tensor, "__add__", lambda t, s: calls.append(1) or add(t, s))
        assert law_subadditivity(F2, 2, 3, exhaustive=True).holds
        assert law_subadditivity(F3, 2, 3, trials=5).holds
        assert calls == []
        random_tensor(F3, 2, 3, 0) + random_tensor(F3, 2, 3, 1)  # the counter does see a sum
        assert len(calls) == 1

    @pytest.mark.parametrize("field,dim,order,target", [(F2, 2, 3, 200), (F3, 2, 2, 50)])
    def test_witness_is_the_first_failing_pair(self, monkeypatch, field, dim, order, target):
        cube = list(all_tensors(field, dim, order))
        broken = cube[target].coeffs
        bias_fiber = break_fiber_counts(monkeypatch, broken)
        q_e = field.p ** (dim * (order - 1))
        k = lambda t: bias_fiber(t).numerator  # noqa: E731
        failing = list(islice(((t, s) for t, s in product(cube, repeat=2)
                               if k(t + s) * q_e < k(t) * k(s)), 2))
        assert len(failing) == 2 and failing[0][0] != cube[0]
        t, s = failing[0]
        result = law_subadditivity(field, dim, order, exhaustive=True)
        assert not result.holds and result.checked == len(cube) ** 2
        assert list(result.witness) == ["t", "s", "k_sum", "k_t", "k_s"]
        shape = {"p": field.p, "n": dim, "d": order}
        assert result.witness == {"t": dict(shape, coeffs=list(t.coeffs)),
                                  "s": dict(shape, coeffs=list(s.coeffs)),
                                  "k_sum": k(t + s), "k_t": k(t), "k_s": k(s)}

    @staticmethod
    def pair_by_pair(field, dim, order, trials, seed, universe):
        """The seeded law's result from a drive over its pairs one by one."""
        q_e = field.p ** (dim * (order - 1))
        tracker = laws._Tracker("subadditivity", universe)

        def check(pair):
            k_sum, k_t, k_s = (laws.bias_fiber(x).numerator for x in (pair[0] + pair[1],) + pair)
            return (k_sum * q_e >= k_t * k_s, k_sum / q_e - k_t * k_s / q_e ** 2,
                    lambda: laws._tensor_witness(t=pair[0], s=pair[1], k_sum=k_sum, k_t=k_t,
                                                 k_s=k_s))

        gens = [substream(seed, i) for i in range(trials)]
        tracker.drive([(random_tensor(field, dim, order, gen.next_u64()),
                        random_tensor(field, dim, order, gen.next_u64())) for gen in gens],
                      check, lambda pair: check(pair)[0])
        return tracker.result()

    @pytest.mark.parametrize("field,dim,order,broken_trial", [
        (F2, 2, 3, None), (F2, 2, 3, 70), (F3, 2, 2, 3), (F3, 2, 3, 140)])
    def test_triples_give_the_pair_by_pair_result(self, monkeypatch, field, dim, order,
                                                  broken_trial):
        # one K triple fails where K of one trial's sum is broken; then the pairs
        # are walked, and checked, min_slack and the witness are the drive's
        seed, trials = 8, 150
        if broken_trial is not None:
            gen = substream(seed, broken_trial)
            t, s = (random_tensor(field, dim, order, gen.next_u64()) for _ in range(2))
            break_fiber_counts(monkeypatch, (t + s).coeffs)
        result = law_subadditivity(field, dim, order, trials=trials, seed=seed)
        assert result == self.pair_by_pair(field, dim, order, trials, seed, result.universe)
        assert result.holds == (broken_trial is None)

    @pytest.mark.parametrize("field,dim,order", [(F2, 2, 3), (F3, 2, 2)])
    def test_seeded_witness_is_the_first_failing_pair(self, monkeypatch, field, dim, order):
        seed, trials = 4, 150
        pairs = []
        for i in range(trials):
            gen = substream(seed, i)
            pairs.append((random_tensor(field, dim, order, gen.next_u64()),
                          random_tensor(field, dim, order, gen.next_u64())))
        t, s = pairs[70]  # in the second chunk of batched draws
        broken = (t + s).coeffs
        bias_fiber = break_fiber_counts(monkeypatch, broken)
        q_e = field.p ** (dim * (order - 1))
        k = lambda t: bias_fiber(t).numerator  # noqa: E731
        failing = [i for i, (a, b) in enumerate(pairs) if k(a + b) * q_e < k(a) * k(b)]
        assert failing[0] == 70 and len(failing) == 2  # the other is in a later chunk
        result = law_subadditivity(field, dim, order, trials=trials, seed=seed)
        assert not result.holds and result.checked == trials
        shape = {"p": field.p, "n": dim, "d": order}
        assert result.witness == {"t": dict(shape, coeffs=list(t.coeffs)),
                                  "s": dict(shape, coeffs=list(s.coeffs)),
                                  "k_sum": 0, "k_t": k(t), "k_s": k(s)}

    @pytest.mark.parametrize("p,n,d", [(3, 2, 3), (5, 2, 3), (2, 3, 3), (7, 2, 2),
                                       (131, 1, 2), (257, 1, 2)])
    @pytest.mark.parametrize("broken_trial", [None, 5, 100, 129])
    def test_byte_rows_give_the_pair_by_pair_result(self, monkeypatch, p, n, d, broken_trial):
        # seeded pairs are rows of residues cut from one buffer per chunk (bytes below
        # 257), their sums one big-int add below 129; with one K broken in the first,
        # second or third chunk, the witness is the first failing pair
        field, seed, trials = PrimeField(p), 12, 130
        pairs = [tuple(random_tensor(field, n, d, gen.next_u64()) for _ in range(2))
                 for gen in (substream(seed, i) for i in range(trials))]
        if broken_trial is not None:
            bias_fiber = break_fiber_counts(monkeypatch, sum(pairs[broken_trial][1:],
                                                             pairs[broken_trial][0]).coeffs)
        result = law_subadditivity(field, n, d, trials=trials, seed=seed)
        assert result == self.pair_by_pair(field, n, d, trials, seed, result.universe)
        assert result.holds == (broken_trial is None)
        if broken_trial is not None:
            q_e = p ** (n * (d - 1))
            k = lambda t: bias_fiber(t).numerator  # noqa: E731
            t, s = next((a, b) for a, b in pairs if k(a + b) * q_e < k(a) * k(b))
            assert result.witness["t"]["coeffs"] == list(t.coeffs)
            assert result.witness["s"]["coeffs"] == list(s.coeffs)


class TestWitnessParity:
    """With one K broken in the first, second or third chunk of a law's seeded trials,
    the law's witness, checked and min_slack are those the code gave when it built a
    Tensor for every drawn instance (digests pinned on that code)."""

    PINNED = {
        ("correlation", 2, 2, 2, 5): "07aa5cd412618e8b",
        ("correlation", 2, 2, 2, 70): "694e8927615a6e1a",
        ("correlation", 2, 2, 2, 130): "4cb68ceeefd577d6",
        ("correlation", 3, 2, 2, 5): "dc16696a97f14b4f",
        ("correlation", 3, 2, 2, 70): "7a269e6f2d3f5297",
        ("correlation", 3, 2, 2, 130): "259d9300ed7c2476",
        ("lemma_bias", 2, 2, 3, 5): "0fa8f6959b3d7f8d",
        ("lemma_bias", 2, 2, 3, 70): "aa9b5505e992d487",
        ("lemma_bias", 2, 2, 3, 132): "98332105ee89b687",
        ("restriction_monotone", 2, 3, 3, 5): "8ee06ee1c5134f35",
        ("restriction_monotone", 2, 3, 3, 70): "d8220f8b48dfdd87",
        ("restriction_monotone", 2, 3, 3, 130): "812a554a4bfa564a",
        ("restriction_monotone", 3, 2, 3, 5): "6d5df339c6f102a3",
        ("restriction_monotone", 3, 2, 3, 72): "290a1d2337553ae5",
        ("restriction_monotone", 3, 2, 3, 130): "73244b1d55474436",
        ("basis_invariance", 2, 3, 3, 5): "6b3e68ea7c899983",
        ("basis_invariance", 2, 3, 3, 70): "688ff12e57680b7e",
        ("basis_invariance", 2, 3, 3, 130): "b83c3fa96e59ce5f",
        ("basis_invariance", 3, 2, 3, 5): "debfbaf30f539549",
        ("basis_invariance", 3, 2, 3, 70): "784044b793bd0e52",
        ("basis_invariance", 3, 2, 3, 130): "1536f1ea3fd794de",
        ("subadditivity", 3, 2, 3, 5): "e7180b994509e8a0",
        ("subadditivity", 3, 2, 3, 70): "9e06273d6201bbca",
        ("subadditivity", 3, 2, 3, 130): "7871eba6b2834918",
        ("subadditivity", 2, 2, 2, 8): "919d9bd282319f52",
        ("subadditivity", 2, 2, 2, 65): "27fd86645c0eebee",
        ("subadditivity", 2, 2, 2, 130): "5d04b846c37e258e",
    }

    @pytest.mark.parametrize("law_id,p,n,d,trial", list(PINNED))
    def test_a_broken_k_gives_the_pinned_witness(self, monkeypatch, law_id, p, n, d, trial):
        result = broken_result(monkeypatch, getattr(laws, "law_" + law_id), p, n, d, trial)
        assert not result.holds
        assert result_digest(result) == self.PINNED[law_id, p, n, d, trial]


class TestCorrelation:
    def test_single_shared_tensor(self):
        t = random_tensor(F2, 2, 2, 42)
        inst = CorrelationInstance(F2, 2, 2, (t,), (t,))
        ok, slack, details = _correlation_ok(F2, 2, 2, inst.rows, 10 ** 8)
        assert ok and details["bridge_lhs"] and details["bridge_rhs"]
        z = details["z_t"]
        assert details["z_both"] == z  # identical families share zeros

    def test_zero_counts_by_hand(self):
        t = identity_tensor(F2, 1, 2)  # T(x, y) = xy on F_2
        inst = CorrelationInstance(F2, 1, 2, (t,), (t,))
        z_t, z_s, z_both, total = inst.zero_counts()
        assert total == 4 and z_t == 3 and z_both == 3

    def test_zero_count_refusal_names_the_budget(self):
        t = identity_tensor(F2, 1, 2)
        inst = CorrelationInstance(F2, 1, 2, (t,), (t,))
        assert inst.zero_counts(4)[3] == 4
        with pytest.raises(BudgetExceededError, match="needs 4 evaluations, budget is 3"):
            inst.zero_counts(3)

    def test_tables_rebuilt_per_block_are_charged(self):
        # at (257,1,3) the 257^3 assignments are 66,049 blocks, each of whose monomial
        # tables costs 257^2 mask products per monomial and row: refused before any is built
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="^correlation tables needs"):
            law_correlation(PrimeField(257), 1, 3, trials=3)
        assert time.perf_counter() - start < 1.0

    def test_the_lifted_walk_is_refused_before_the_zero_counts(self):
        # at (257,1,2) the zero counts are admitted, but the first instance's lifted K walks
        # 257^(3 * 2) fixings, which its family sizes fix: refused before any zero set
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="^zero-fiber enumeration needs "
                                                      "288136807515649 evaluations"):
            law_correlation(PrimeField(257), 1, 2, trials=3)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("p,n,d", [(2, 2, 2), (2, 3, 2), (3, 2, 2), (5, 2, 2)])
    @pytest.mark.parametrize("table_bits", [laws._TABLE_BITS, 64])
    def test_zero_counts_match_evaluation(self, monkeypatch, p, n, d, table_bits):
        # 64 bits cuts the domain into blocks of a few assignments each
        monkeypatch.setattr(laws, "_TABLE_BITS", table_bits)
        field = PrimeField(p)
        gen = substream(31, p * n * d)
        inputs = list(product(product(range(p), repeat=n), repeat=d))
        for _ in range(12):
            groups = [tuple(random_tensor(field, n, d, gen.next_u64())
                            for _ in range(1 + gen.below(3))) for _ in range(2)]
            groups[gen.below(2)] += (zero_tensor(field, n, d),)
            inst = CorrelationInstance(field, n, d, *groups)
            zeros = [[all(t.evaluate(x) == 0 for t in group) for x in inputs] for group in groups]
            expected = (sum(zeros[0]), sum(zeros[1]), sum(map(min, *zeros)), len(inputs))
            assert inst.zero_counts() == expected
            assert inst.zero_counts() == expected  # every row's zero set now memoized

    def test_lifted_tensors_use_disjoint_lead_coordinates(self):
        gen = substream(7, 0)
        ts = tuple(random_tensor(F2, 2, 2, gen.next_u64()) for _ in range(2))
        ss = tuple(random_tensor(F2, 2, 2, gen.next_u64()) for _ in range(3))
        inst = CorrelationInstance(F2, 2, 2, ts, ss)
        lift_t, lift_s = inst.lifted()
        assert lift_t.dim == 5 and lift_t.order == 3
        assert all(idx[0] < 2 for idx, _ in lift_t.nonzero_entries())
        assert all(2 <= idx[0] < 5 for idx, _ in lift_s.nonzero_entries())

    @pytest.mark.parametrize("m,k", list(product(range(1, 4), repeat=2)))
    @pytest.mark.parametrize("p,n,d", [(2, 2, 2), (3, 2, 3), (2, 4, 2)])
    def test_lifted_tensors_match_their_entries(self, p, n, d, m, k):
        field = PrimeField(p)
        gen = substream(p * n * d, 3 * m + k)
        ts = tuple(random_tensor(field, n, d, gen.next_u64()) for _ in range(m))
        ss = tuple(random_tensor(field, n, d, gen.next_u64()) for _ in range(k))
        lift_dim = max(m + k, n)
        expected = [from_entries(field, lift_dim, d + 1,
                                 [((first + j,) + idx, c) for j, t in enumerate(group)
                                  for idx, c in t.nonzero_entries()])
                    for group, first in ((ts, 0), (ss, m))]
        assert list(CorrelationInstance(field, n, d, ts, ss).lifted()) == expected

    def test_law_holds(self):
        result = law_correlation(F2, 2, 2, trials=150, seed=7)
        assert result.holds and result.checked == 150


class TestBatchedDraws:
    """Custom draws are made a chunk of trials at a time; each trial's instance is the
    one the public API draws from its stream, as broken_row draws it."""

    @staticmethod
    def draws(monkeypatch, law, field, dim, order, trials, seed=5):
        """The instances of each custom-drawn universe of the law's run, drawn again."""
        real, seen = laws._universe, []

        def universe(*args, **kwargs):
            if kwargs.get("draw"):
                seen.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(laws, "_universe", universe)
        law(field, dim, order, trials=trials, seed=seed)
        return [list(real(field, dim, order, **kwargs)) for kwargs in seen]

    @staticmethod
    def reference(law, field, n, d, gen):
        """The instance that the law's trial with stream `gen` draws, by the public API."""
        if law is law_correlation:
            m, k = (1 + gen.below(laws.CORRELATION_MAX_EACH) for _ in range(2))
            groups = [tuple(random_tensor(field, n, d, gen.next_u64()) for _ in range(size))
                      for size in (m, k)]
            return CorrelationInstance(field, n, d, *groups).rows
        if law is law_lemma_bias:
            return random_multiform(field, n, d, gen.next_u64())
        t = random_tensor(field, n, d, gen.next_u64())
        k = n if law is law_basis_invariance else 1 + gen.below(n)
        return t.coeffs, random_full_rank_basis(field, n, k, gen)

    @staticmethod
    def rows(inst):
        """An instance read as rows: each row a tuple of residues, and a form its
        nonzero components' rows by slot subset."""
        if isinstance(inst, MultiComponentForm):
            inst = {k: v.coeffs for k, v in inst.components.items()}
        if isinstance(inst, dict):
            return {k: tuple(row) for k, row in inst.items() if any(row)}
        if isinstance(inst, bytes):
            return tuple(inst)
        return tuple(map(TestBatchedDraws.rows, inst)) if isinstance(inst, tuple) else inst

    @classmethod
    def same(cls, a, b) -> bool:
        return cls.rows(a) == cls.rows(b)

    @pytest.mark.parametrize("law,field,dim,order", [
        (law_correlation, F2, 2, 2), (law_correlation, F3, 2, 2),
        (law_restriction_monotone, F2, 4, 3), (law_restriction_monotone, F3, 3, 2),
        (law_basis_invariance, F2, 4, 3), (law_basis_invariance, F3, 2, 3),
        (law_lemma_bias, F2, 2, 3), (law_lemma_bias, PrimeField(5), 2, 2)])
    def test_batched_draws_are_the_per_trial_draws(self, monkeypatch, law, field, dim, order):
        trials, seed = 130, 5  # chunks of 64, 64 and 2 trials
        [drawn] = self.draws(monkeypatch, law, field, dim, order, trials, seed)
        reference = [self.reference(law, field, dim, order, substream(seed, i))
                     for i in range(trials)]
        assert len(drawn) == len(reference) == trials
        for i in (0, 63, 64, 65, trials - 1):
            assert self.same(drawn[i], reference[i]), i
        assert all(map(self.same, drawn, reference))

    def test_each_basis_candidate_is_ranked_once(self, monkeypatch):
        # a 4x4 candidate over F_2 has full rank about 31% of the time, so many trials
        # read candidates past the words their chunk read ahead
        trials, seed, candidates = 200, 5, 0
        for i in range(trials):
            gen = substream(seed, i)
            gen.next_u64()  # the trial's tensor seed
            while True:
                candidates += 1
                if matrix_rank(F2, [gen.residues(2, 4) for _ in range(4)]) == 4:
                    break
        ranked = []
        monkeypatch.setattr(gf, "matrix_rank", lambda *args: ranked.append(args) or
                            matrix_rank(*args))
        assert law_basis_invariance(F2, 4, 3, trials=trials, seed=seed).holds
        assert len(ranked) == candidates > 2 * trials

    def test_a_bound_the_draw_refuses_is_refused_as_the_draw_refuses_it(self):
        with pytest.raises(ValueError, match="bound must be positive"):
            law_restriction_monotone(F2, 0, 3, trials=1)


class TestArankLePrank:
    def test_exhaustive_cube(self):
        result = law_arank_le_prank(F2, 2, 3, exhaustive=True)
        assert result.holds
        assert result.checked > 256  # cube plus the rank-one candidates
        assert result.min_slack is not None and result.min_slack >= -1e-12

    def test_rank_one_bias_at_p3(self):
        result = law_arank_le_prank(F3, 2, 3, trials=2, seed=1)
        assert result.holds
        assert "rank-one tensors with bias >= 1/q" in result.notes[0]

    def test_inexact_search_is_a_budget_refusal(self, monkeypatch):
        # the identity of the cube has prank 2 but arank ceiling 1
        monkeypatch.setattr(laws, "rank_exact",
                            lambda t, kind, budget: rank_bounds(t, kind, budget))
        with pytest.raises(BudgetExceededError):
            law_arank_le_prank(F2, 2, 3, exhaustive=True)

    def test_over_the_search_cap_refuses_before_checking(self):
        # no listing caps the rank-one checks, and every prank at (3,3,3) is exact
        result = law_arank_le_prank(F3, 3, 3, trials=2)
        assert result.holds and result.checked == 4
        assert result.notes == ("rank-one tensors with bias >= 1/q: 2/2",)
        assert law_arank_le_prank(F3, 3, 3, trials=0).checked == 0

    @staticmethod
    def rank_one_phase(monkeypatch, *args, **universe):
        """The law's result and the tensors of its rank-one phase, the
        instances of its second drive_counted call."""
        real, phases = laws._Tracker.drive_counted, []

        def recording(self, instances, *rest):
            phases.append(list(instances))
            return real(self, phases[-1], *rest)

        monkeypatch.setattr(laws._Tracker, "drive_counted", recording)
        result = law_arank_le_prank(*args, **universe)
        return result, phases[1]

    @pytest.mark.parametrize("p,n,d", [(2, 2, 3), (3, 2, 2), (2, 1, 3)])
    def test_exhaustive_rank_one_phase_is_every_rank_one_array(self, monkeypatch, p, n, d):
        # the cube's tensors of exact prank 1, in cube order, are the sorted
        # arrays that the reference lists
        field = PrimeField(p)
        result, tensors = self.rank_one_phase(monkeypatch, field, n, d, exhaustive=True)
        arrays = sorted(_reference_candidates(field, n, d, "prank"))
        assert [t.coeffs for t in tensors] == arrays
        assert result.holds and result.checked == p ** n ** d + len(arrays)
        assert result.notes == (f"rank-one tensors with bias >= 1/q: {len(arrays)}/{len(arrays)}",)

    @pytest.mark.parametrize("p,n,d", [(3, 2, 3), (2, 2, 4), (2, 3, 3), (3, 1, 3)])
    def test_seeded_rank_one_draws_have_prank_one(self, monkeypatch, p, n, d):
        _, tensors = self.rank_one_phase(monkeypatch, PrimeField(p), n, d, trials=40, seed=2)
        terms = [greedy_decomposition(t, "prank") for t in tensors]
        assert len(tensors) == 40 and all(len(term) == 1 for term in terms)
        if n > 1:  # the draws span the sides
            assert len({term[0].slots_a for term in terms}) == len(ranks._partition_sides(d, False))

    def test_seeded_rank_one_draws_repeat_for_a_seed(self, monkeypatch):
        draws = [[t.coeffs for t in self.rank_one_phase(monkeypatch, F3, 2, 3, trials=30,
                                                         seed=seed)[1]] for seed in (4, 4, 5)]
        assert draws[0] == draws[1] != draws[2]

    @pytest.mark.parametrize("n,drawn", [(0, 0), (1, 200)])
    def test_dimensions_zero_and_one_return_at_once(self, n, drawn):
        start = time.perf_counter()
        result = law_arank_le_prank(F2, n, 3, trials=200, seed=3)
        assert time.perf_counter() - start < 1.0
        assert result.holds and result.checked == 200 + drawn
        assert result.notes == (f"rank-one tensors with bias >= 1/q: {drawn}/{drawn}",)


class TestIndependentBound:
    def test_exhaustive_cube(self):
        result = law_independent_bound(F2, 2, 3, exhaustive=True)
        assert result.holds

    def test_random_universe(self):
        result = law_independent_bound(F2, 3, 3, trials=200, seed=3)
        assert result.holds and result.checked >= 200

    def test_identity_attains_equality(self):
        result = law_independent_bound(F2, 4, 3, trials=1, seed=0)
        assert result.holds
        # slack is arank - c|A|; the identity check keeps it at exactly 0
        assert result.min_slack is not None


class TestRestrictionMonotone:
    def test_random_universe(self):
        result = law_restriction_monotone(F2, 3, 3, trials=150, seed=1)
        assert result.holds

    def test_p3_universe(self):
        result = law_restriction_monotone(F3, 2, 3, trials=100, seed=2)
        assert result.holds


class TestLemmaBias:
    def test_exact_at_p2(self):
        result = law_lemma_bias(F2, 2, 3, trials=200, seed=4)
        assert result.holds and result.checked == 200

    def test_slack_at_p3(self):
        result = law_lemma_bias(F3, 2, 2, trials=100, seed=4)
        assert result.holds


class TestBasisInvariance:
    def test_holds(self):
        result = law_basis_invariance(F3, 2, 3, trials=100, seed=6)
        assert result.holds and result.checked == 100


class TestReproducibility:
    @pytest.mark.parametrize("law,kwargs", [
        (law_subadditivity, {"trials": 40}),
        (law_correlation, {"trials": 25}),
        (law_restriction_monotone, {"trials": 30}),
        (law_lemma_bias, {"trials": 30}),
        (law_basis_invariance, {"trials": 20}),
    ])
    def test_same_seed_same_result(self, law, kwargs):
        a = law(F2, 2, 3, seed=11, **kwargs) if law is not law_correlation \
            else law(F2, 2, 2, seed=11, **kwargs)
        b = law(F2, 2, 3, seed=11, **kwargs) if law is not law_correlation \
            else law(F2, 2, 2, seed=11, **kwargs)
        assert a == b

    def test_different_seed_different_slack(self):
        a = law_subadditivity(F3, 2, 3, trials=50, seed=1)
        b = law_subadditivity(F3, 2, 3, trials=50, seed=2)
        assert a.universe != b.universe


class TestLawTable:
    def test_table_holds_the_module_bindings(self):
        # the benchmark tracer wraps laws.law_<id> and every dict value that is it
        assert list(laws.LAWS) == list(laws.LAW_UNIVERSES)
        for law_id, law in laws.LAWS.items():
            assert law is getattr(laws, "law_" + law_id.replace("-", "_"))

    def test_every_law_reports_its_table_id(self):
        # the id comes from the function name, the reported one from the law's tracker
        for law_id, (_, universes) in laws.LAW_UNIVERSES.items():
            u = min(universes, key=lambda u: u["n"] ** u["d"])
            result = laws.LAWS[law_id](PrimeField(u["p"]), u["n"], u["d"], trials=0)
            assert result.law == law_id and result.checked == 0

    def test_every_default_universe_has_a_shape_the_law_accepts(self):
        for law_id, (smallest, universes) in laws.LAW_UNIVERSES.items():
            assert universes, law_id
            for universe in universes:
                assert universe["n"] >= smallest[0] and universe["d"] >= smallest[1], law_id


class TestEmptyUniverse:
    def test_vacuous_pass_is_flagged(self):
        result = law_subadditivity(F2, 2, 3, trials=0)
        assert result.holds and result.checked == 0
        assert any("empty universe" in note for note in result.notes)


class TestSurvey:
    def test_identity_family_constant_ratio(self):
        from biasrank.bias import c_constant
        report = survey_gap(F2, 0, 3, identity_max=3)
        assert len(report.rows) == 3
        expected = 1 / c_constant(3, 2)
        for row in report.rows:
            assert row.exact
            assert abs(row.ratio - expected) < 1e-9
        assert abs(report.max_ratio - expected) < 1e-9

    def test_zero_tensor_excluded(self):
        report = survey_gap(F2, 1, 2, exhaustive=True)
        assert all(row.label != "tensor-0" for row in report.rows)
        assert len(report.rows) == 1  # only the nonzero 1x1 matrix

    def test_tsv_shape(self):
        report = survey_gap(F2, 0, 3, identity_max=2)
        lines = report.to_tsv().strip().splitlines()
        assert lines[0].startswith("label\t")
        assert len(lines) == 4  # header + 2 rows + summary
        assert lines[-1].startswith("# max_ratio")

    def test_exhaustive_cube_rows(self):
        report = survey_gap(F2, 2, 3, exhaustive=True)
        assert len(report.rows) == 255  # zero tensor dropped
        assert report.max_ratio is not None

    def test_survey_builds_no_table(self):
        assert not hasattr(laws, "search_table") and not hasattr(ranks, "search_table")
        for report in (survey_gap(F2, 3, 3, trials=3), survey_gap(F2, 2, 3, exhaustive=True),
                       survey_gap(F2, 2, 4, trials=20)):
            assert report.rows and all(row.exact for row in report.rows)


class TestWitnessMachinery:
    def test_tracker_replays_before_reporting(self):
        from biasrank.laws import _Tracker
        tracker = _Tracker("demo", "unit")
        tracker.drive([1], lambda inst: (False, None, lambda: {"instance": inst}),
                      lambda inst: False)
        result = tracker.result()
        assert not result.holds
        assert result.witness == {"instance": 1}

    def test_tracker_raises_on_unreplayable_witness(self):
        from biasrank.laws import _Tracker
        tracker = _Tracker("demo", "unit")
        with pytest.raises(RuntimeError):
            tracker.drive([1], lambda inst: (False, None, lambda: {}), lambda inst: True)

    def test_result_serializes(self):
        import json
        result = law_subadditivity(F2, 2, 3, trials=5, seed=0)
        payload = json.dumps(result.to_dict(), sort_keys=True)
        assert '"holds": true' in payload


class TestBatchedCounts:
    """Laws read K's a chunk at a time from fiber_counts, but replay a failure
    with bias_fiber one tensor at a time."""

    @staticmethod
    def break_first_row(monkeypatch):
        """fiber_counts gives 0 for the first row of its first call only."""
        real, calls = laws.fiber_counts, []

        def fiber_counts(field, dim, order, rows, budget=laws.DEFAULT_BUDGET):
            counts = real(field, dim, order, rows, budget)
            calls.append(len(rows))
            return [0] + counts[1:] if len(calls) == 1 else counts

        monkeypatch.setattr(laws, "fiber_counts", fiber_counts)
        return calls

    @pytest.mark.parametrize("law,order", [(law_correlation, 2), (law_basis_invariance, 3),
                                           (law_arank_le_prank, 3), (law_lemma_bias, 3),
                                           (law_restriction_monotone, 3)])
    def test_a_lane_fault_does_not_replay(self, monkeypatch, law, order):
        calls = self.break_first_row(monkeypatch)
        # at seed 1 lemma-bias's first form has bias 0, which a top K of 0 allows
        seed = 2 if law is law_lemma_bias else 1
        with pytest.raises(RuntimeError, match="counterexample failed to replay"):
            law(F2, 2, order, trials=5, seed=seed)
        assert calls

    @pytest.mark.parametrize("universe", [{"exhaustive": True}, {"trials": 150, "seed": 4}])
    def test_a_subadditivity_lane_fault_does_not_replay(self, monkeypatch, universe):
        pairs = [(random_tensor(F2, 2, 3, gen.next_u64()), random_tensor(F2, 2, 3, gen.next_u64()))
                 for gen in (substream(4, i) for i in range(150))]
        broken = (pairs[70][0] + pairs[70][1]).coeffs
        real = laws.fiber_counts

        def fiber_counts(field, dim, order, rows, budget=laws.DEFAULT_BUDGET):
            counts = real(field, dim, order, rows, budget)
            return [0 if tuple(row) == broken else k for row, k in zip(rows, counts)]

        monkeypatch.setattr(laws, "fiber_counts", fiber_counts)
        with pytest.raises(RuntimeError, match="subadditivity: counterexample failed to replay"):
            law_subadditivity(F2, 2, 3, **universe)

    @pytest.mark.parametrize("law,message", [
        (law_correlation, "correlation counting needs 16 evaluations"),
        (law_lemma_bias, "multi-component enumeration needs 64 evaluations"),
    ])
    def test_a_refusal_before_the_count_comes_first(self, law, message):
        # the K's of the chunk would be refused too, but the law reads them later
        with pytest.raises(BudgetExceededError, match=message):
            law(F2, 2, 2 if law is law_correlation else 3, trials=3, budget=3)

    def test_chunks_share_a_count_per_shape(self, monkeypatch):
        # 150 trials are three chunks; each counts its tensors and their
        # restrictions, whose dimension varies, one call per shape
        real, shapes = laws.fiber_counts, []

        def fiber_counts(field, dim, order, rows, budget=laws.DEFAULT_BUDGET):
            shapes.append((dim, len(rows)))
            return real(field, dim, order, rows, budget)

        monkeypatch.setattr(laws, "fiber_counts", fiber_counts)
        assert law_restriction_monotone(F3, 2, 3, trials=150, seed=3).holds
        chunks = [i for i, (dim, _) in enumerate(shapes) if dim == 2]
        assert len(chunks) == 3 + 1  # the coordinate subspaces of 15 draws are one more chunk
        assert all(count <= 2 * laws._CHUNK for _, count in shapes)
