"""The law harness: every law holds on its universe, runs reproduce bit-for-bit."""

from itertools import islice, product

import pytest

from biasrank import laws, ranks
from biasrank.bias import BiasValue, BudgetExceededError
from biasrank.gf import PrimeField
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
    survey_gap,
)
from biasrank.ranks import rank_bounds
from biasrank.rng import substream
from biasrank.tensor import (
    Tensor,
    all_tensors,
    from_entries,
    identity_tensor,
    random_tensor,
    zero_tensor,
)

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
        real = laws.bias_fiber

        def bias_fiber(t, budget=laws.DEFAULT_BUDGET):
            value = real(t, budget)
            return BiasValue(0, value.exponent, value.base) if t.coeffs == broken else value

        monkeypatch.setattr(laws, "bias_fiber", bias_fiber)
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
        real = laws.bias_fiber

        def bias_fiber(t, budget=laws.DEFAULT_BUDGET):
            value = real(t, budget)
            return BiasValue(0, value.exponent, value.base) if t.coeffs == broken else value

        monkeypatch.setattr(laws, "bias_fiber", bias_fiber)
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


class TestCorrelation:
    def test_single_shared_tensor(self):
        t = random_tensor(F2, 2, 2, 42)
        inst = CorrelationInstance(F2, 2, 2, (t,), (t,))
        ok, slack, details = _correlation_ok(inst, 10 ** 8)
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
            assert inst.zero_counts() == (sum(zeros[0]), sum(zeros[1]),
                                          sum(map(min, *zeros)), len(inputs))

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

    def test_over_the_search_cap_refuses_before_checking(self, monkeypatch):
        monkeypatch.setattr(laws, "rank_exact", None)  # never reached
        with pytest.raises(BudgetExceededError):
            law_arank_le_prank(F3, 3, 3, trials=1)
        assert law_arank_le_prank(F3, 3, 3, trials=0).checked == 0


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

    def test_survey_builds_no_table(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the survey built a table that no search reads")

        monkeypatch.setattr(laws, "search_table", refuse)
        monkeypatch.setattr(ranks, "search_table", refuse)
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
