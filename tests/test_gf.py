"""Field arithmetic and exact linear algebra, checked against independent oracles."""

import pytest

from biasrank.gf import (
    PrimeField,
    gf2_rank,
    matrix_rank,
    random_matrix,
    rank_mod_p,
    transpose,
    unit_vector,
)
from biasrank.rng import SplitMix64


def oracle_inverse(p, a):
    """Brute-force search for the multiplicative inverse."""
    for x in range(1, p):
        if a * x % p == 1:
            return x
    raise AssertionError(f"{a} has no inverse mod {p}")


def oracle_rank(p, rows):
    """Second, independently coded elimination: grow a reduced row basis."""
    basis = []  # list of (leading column, row) with normalized leading 1
    for row in rows:
        row = [x % p for x in row]
        for lead, base in basis:
            if row[lead] % p:
                factor = row[lead]
                row = [(a - factor * b) % p for a, b in zip(row, base)]
        leads = [j for j, x in enumerate(row) if x % p]
        if leads:
            lead = leads[0]
            inv = pow(row[lead], p - 2, p)
            row = [a * inv % p for a in row]
            basis.append((lead, row))
            basis.sort()
    return len(basis)


class TestPrimeField:
    def test_rejects_composite_and_large_moduli(self):
        with pytest.raises(ValueError):
            PrimeField(4)
        with pytest.raises(ValueError):
            PrimeField(1)
        with pytest.raises(ValueError):
            PrimeField(1 << 31)
        PrimeField(2147483647)  # largest accepted prime

    def test_basic_ops(self):
        f5 = PrimeField(5)
        assert f5.mul(3, 4) == 2
        f2 = PrimeField(2)
        assert f2.add(1, 1) == 0

    def test_inverse_matches_brute_force(self):
        f7 = PrimeField(7)
        assert f7.inv(3) == 5 == oracle_inverse(7, 3)
        for p in (2, 3, 5, 7, 11, 13):
            field = PrimeField(p)
            for a in range(1, p):
                inv = field.inv(a)
                assert inv == oracle_inverse(p, a)
                assert field.mul(a, inv) == 1

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            PrimeField(5).inv(0)


class TestMatrixRank:
    def test_zero_and_identity(self):
        f2 = PrimeField(2)
        assert matrix_rank(f2, [[0, 0, 0]] * 3) == 0
        f3 = PrimeField(3)
        eye = [unit_vector(4, i) for i in range(4)]
        assert matrix_rank(f3, eye) == 4

    def test_empty(self):
        assert matrix_rank(PrimeField(5), []) == 0

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_matches_independent_elimination(self, p):
        field = PrimeField(p)
        gen = SplitMix64(6 * p)
        for _ in range(60):
            m = random_matrix(field, 5, 5, gen)
            assert matrix_rank(field, m) == oracle_rank(p, [list(r) for r in m])

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_transpose_invariance(self, p):
        field = PrimeField(p)
        gen = SplitMix64(99 + p)
        for _ in range(40):
            m = random_matrix(field, 4, 6, gen)
            assert matrix_rank(field, m) == matrix_rank(field, transpose(m))

    def test_row_operations_invariance(self):
        field = PrimeField(5)
        gen = SplitMix64(17)
        for _ in range(30):
            m = [list(r) for r in random_matrix(field, 4, 4, gen)]
            base = matrix_rank(field, m)
            m[0], m[2] = m[2], m[0]
            assert matrix_rank(field, m) == base
            scale = 1 + gen.below(4)
            m[1] = [x * scale % 5 for x in m[1]]
            assert matrix_rank(field, m) == base

    def test_gf2_bitset_path_matches_generic(self):
        """The packed GF(2) rank must agree with the generic elimination."""
        field = PrimeField(2)
        gen = SplitMix64(31337)
        for _ in range(100):
            rows = random_matrix(field, 5, 7, gen)
            packed = [sum(x << j for j, x in enumerate(r)) for r in rows]
            expected = rank_mod_p(2, rows)
            assert gf2_rank(packed) == matrix_rank(field, rows) == expected
            assert expected == oracle_rank(2, [list(r) for r in rows])

    def test_rank_bounded_by_shape(self):
        field = PrimeField(3)
        gen = SplitMix64(4)
        for _ in range(20):
            m = random_matrix(field, 3, 6, gen)
            assert 0 <= matrix_rank(field, m) <= 3
