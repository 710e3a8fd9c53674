"""Acceptance suite: one test per criterion, exact tolerances, PASS line each.

Every inequality between exact rationals is decided on cross-multiplied
integers; floating comparisons appear only where a criterion explicitly
grants a tolerance (1e-9 on analytic-rank values).
"""

import math

from biasrank.bias import (
    analytic_rank,
    bias_all_engines,
    bias_fiber,
    bias_recursive,
    c_constant,
    diagonal_bias_numerator,
)
from biasrank.cli import main as cli_main
from biasrank.gf import PrimeField, matrix_rank
from biasrank.laws import (
    law_correlation,
    law_lemma_bias,
    law_restriction_monotone,
    law_subadditivity,
)
from biasrank.ranks import max_independent_set, rank_exact, search_table
from biasrank.rng import substream
from biasrank.tensor import (
    Tensor,
    all_tensors,
    direct_sum,
    identity_tensor,
    parse_tensor,
    random_tensor,
    serialize_tensor,
    shift_terms,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)

SHAPES = ((2, 3, 3), (3, 2, 3), (5, 2, 2), (2, 2, 4))


def _report(criterion, description):
    print(f"PASS criterion {criterion}: {description}")


def test_c01_engine_triangle():
    for t in all_tensors(F2, 2, 3):
        values = bias_all_engines(t)
        assert values["fiber"] == values["recursive"] == values["histogram"]
    for p, n, d in SHAPES:
        field = PrimeField(p)
        for trial in range(500):
            t = random_tensor(field, n, d, substream(10_000 + p * d, trial).next_u64())
            values = bias_all_engines(t)
            assert values["fiber"] == values["recursive"] == values["histogram"]
    _report(1, "three bias engines agree exactly on 256 exhaustive + 2000 random tensors")


def test_c02_subadditivity():
    exhaustive = law_subadditivity(F2, 2, 3, exhaustive=True)
    assert exhaustive.holds and exhaustive.checked == 65536
    random_run = law_subadditivity(F3, 2, 3, trials=10_000, seed=20_002)
    assert random_run.holds and random_run.checked == 10_000
    _report(2, "bias(T+S) >= bias(T)bias(S) on 65536 exhaustive + 10000 random pairs")


def test_c03_direct_sum_tightness():
    cases = ((F2, 3, 3), (F3, 2, 3), (F5, 2, 2))
    checked = 0
    for trial in range(200):
        field, n, d = cases[trial % len(cases)]
        gen = substream(30_003, trial)
        n1 = 1 + gen.below(n)
        n2 = 1 + gen.below(n)
        t = random_tensor(field, n1, d, gen.next_u64())
        s = random_tensor(field, n2, d, gen.next_u64())
        assert bias_fiber(direct_sum(t, s)) == bias_fiber(t) * bias_fiber(s)
        checked += 1
    assert checked == 200
    _report(3, "bias is exactly multiplicative on 200 random direct sums")


def test_c04_order_two_equals_matrix_rank():
    for t in all_tensors(F2, 3, 2):
        rows = [t.coeffs[i * 3:(i + 1) * 3] for i in range(3)]
        r = matrix_rank(F2, rows)
        b = bias_fiber(t)
        assert b.numerator == 2 ** (b.exponent - r)
    for trial in range(250):
        t = random_tensor(F3, 4, 2, substream(40_004, trial).next_u64())
        rows = [t.coeffs[i * 4:(i + 1) * 4] for i in range(4)]
        r = matrix_rank(F3, rows)
        b = bias_fiber(t)
        assert b.numerator == 3 ** (b.exponent - r)
    for trial in range(250):
        t = random_tensor(F5, 3, 2, substream(40_005, trial).next_u64())
        rows = [t.coeffs[i * 3:(i + 1) * 3] for i in range(3)]
        r = matrix_rank(F5, rows)
        b = bias_fiber(t)
        assert b.numerator == 5 ** (b.exponent - r)
    _report(4, "order-2 bias equals q^(-matrix rank) on 512 exhaustive + 500 random matrices")


def test_c05_identity_closed_form():
    for q, field in ((2, F2), (3, F3)):
        for d in (3, 4):
            for n in range(1, 9):
                value = bias_recursive(identity_tensor(field, n, d))
                assert value.numerator == diagonal_bias_numerator(q, n, d, n)
                assert value.exponent == n * (d - 1)
                rank = analytic_rank(value)
                assert abs(rank.value - n * c_constant(d, q)) < 1e-9
    _report(5, "identity bias matches (1-(1-1/q)^(d-1))^n exactly and arank = n c(d,q)")


def test_c06_arank_le_prank():
    for t in all_tensors(F2, 2, 3):
        prank = rank_exact(t, "prank").value
        b = bias_fiber(t)
        assert b.numerator * 2 ** prank >= 2 ** b.exponent
    for field in (F2, F3):
        q = field.p
        arrays = search_table(field, 2, 3, "prank", 10 ** 8)
        assert arrays
        for coeffs in arrays:
            b = bias_fiber(Tensor(field, 2, 3, coeffs))
            assert b.numerator * q >= q ** b.exponent
    _report(6, "arank <= exact prank on all 256 tensors; rank-one bias >= 1/q at p=2,3")


def test_c07_identity_prank_by_search():
    report = rank_exact(identity_tensor(F2, 2, 3), "prank")
    assert report.exact and report.value == 2
    _report(7, "exhaustive search confirms prank of the identity tensor equals n at n=2")


def test_c08_independent_set_bound():
    def bound_holds(t):
        indep = max_independent_set(t)
        b = bias_fiber(t)
        scale = 2 ** t.order
        # arank >= 2^-d |A|  <=>  K^(2^d) <= q^(2^d e - |A|)
        return b.numerator ** scale <= b.base ** (scale * b.exponent - len(indep))

    for t in all_tensors(F2, 2, 3):
        assert bound_holds(t)
    for trial in range(1000):
        t = random_tensor(F2, 3, 3, substream(80_008, trial).next_u64())
        assert bound_holds(t)
    _report(8, "arank >= 2^-d |A| exactly on 256 exhaustive + 1000 random tensors")


def test_c09_positive_correlation():
    result = law_correlation(F2, 2, 2, trials=1000, seed=90_009)
    assert result.holds and result.checked == 1000
    _report(9, "common zeros positively correlated with exact lifted-bias bridge, 1000 families")


def test_c10_restriction_monotone():
    first = law_restriction_monotone(F2, 3, 3, trials=250, seed=100_010)
    second = law_restriction_monotone(F3, 2, 3, trials=250, seed=100_011)
    assert first.holds and second.holds
    assert first.checked + second.checked >= 500
    _report(10, "bias never decreases under restriction on 500+ pairs incl. coordinate subspaces")


def test_c11_multiform_bound():
    exact = law_lemma_bias(F2, 2, 3, trials=500, seed=110_011)
    assert exact.holds and exact.checked == 500
    approx = law_lemma_bias(F3, 2, 2, trials=200, seed=110_012)
    assert approx.holds and approx.checked == 200
    _report(11, "|bias(R)| <= bias of top component: exact at p=2, 1e-9 slack at p=3")


def test_c12_shift_decomposition():
    from biasrank.gf import random_vector
    for trial in range(10_000):
        p, n, d = SHAPES[trial % len(SHAPES)]
        field = PrimeField(p)
        gen = substream(120_012, trial)
        t = random_tensor(field, n, d, gen.next_u64())
        xs = [random_vector(field, n, gen) for _ in range(d)]
        ys = [random_vector(field, n, gen) for _ in range(d)]
        terms = shift_terms(t, xs, ys)
        merged = [tuple((a + b) % p for a, b in zip(x, y)) for x, y in zip(xs, ys)]
        assert sum(terms.values()) % p == t.evaluate(merged)
    _report(12, "the 2^d shift terms sum to T(x+y) exactly on 10000 random triples")


def test_c13_cli_round_trip_and_determinism(capsys):
    for trial in range(1000):
        p, n, d = SHAPES[trial % len(SHAPES)]
        t = random_tensor(PrimeField(p), n, d, substream(130_013, trial).next_u64())
        assert parse_tensor(serialize_tensor(t)) == t

    def run(*argv):
        code = cli_main(list(argv))
        out = capsys.readouterr().out
        return code, out

    gen_args = ("gen", "--p", "3", "--n", "2", "--d", "3", "--seed", "77")
    assert run(*gen_args) == run(*gen_args)
    check_args = ("check", "subadditivity", "--trials", "60", "--seed", "5",
                  "--p", "2", "--n", "2", "--d", "3")
    first = run(*check_args)
    second = run(*check_args)
    assert first == second and first[0] == 0
    _report(13, "serialize/parse is bit-exact on 1000 tensors; seeded reports byte-identical")
