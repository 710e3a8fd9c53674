"""Tensor construction, evaluation, and structure, against naive oracles."""

from itertools import chain, combinations, product

import pytest

from biasrank.gf import PrimeField, random_vector
from biasrank.rng import SplitMix64, substream
from biasrank.tensor import (
    MultiComponentForm,
    Tensor,
    TensorFormatError,
    block_cells,
    coordinate_basis,
    diagonal_tensor,
    direct_sum,
    from_entries,
    identity_tensor,
    parse_tensor,
    random_multiform,
    random_tensor,
    restrict,
    serialize_tensor,
    shift_terms,
    zero_tensor,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def oracle_evaluate(t, vectors):
    """Naive full loop over every index tuple, independent of sparsity."""
    total = 0
    for idx in product(range(t.dim), repeat=t.order):
        term = t.entry(idx)
        for slot, i in enumerate(idx):
            term *= vectors[slot][i]
        total += term
    return total % t.field.p


class TestConstruction:
    def test_from_entries_monomial(self):
        t = from_entries(F2, 1, 3, [((0, 0, 0), 1)])
        assert t.coeffs == (1,)
        assert t.evaluate([(1,), (1,), (1,)]) == 1

    def test_empty_entry_list_is_zero(self):
        assert from_entries(F3, 2, 2, []).is_zero()

    def test_duplicate_entries_sum(self):
        t = from_entries(F2, 1, 2, [((0, 0), 1), ((0, 0), 1)])
        assert t.is_zero()

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            from_entries(F2, 2, 2, [((0, 2), 1)])

    def test_identity_entries(self):
        t = identity_tensor(F2, 2, 3)
        assert t.entry((0, 0, 0)) == 1
        assert t.entry((1, 1, 1)) == 1
        assert sum(t.coeffs) == 2

    def test_identity_n1_d2_is_one_by_one(self):
        assert identity_tensor(F3, 1, 2).coeffs == (1,)

    def test_zero_diagonal_is_zero_tensor(self):
        assert diagonal_tensor(F5, 3, (0, 0)).is_zero()

    def test_immutability(self):
        t = identity_tensor(F2, 2, 2)
        with pytest.raises(AttributeError):
            t.dim = 3


class TestValidationBoundary:
    """Outside input is validated; only the package's own results skip the check."""

    @pytest.mark.parametrize("coeffs", [(0, 1, 2, 0), (0, -1, 0, 0), (0, 1.0, 0, 0),
                                        (0, "1", 0, 0), (0, 1, 0), (0, 1, 0, 0, 1)])
    def test_public_constructor_rejects(self, coeffs):
        with pytest.raises(ValueError):
            Tensor(F2, 2, 2, coeffs)

    @pytest.mark.parametrize("entries", [[((0, 1), 1.0)], [((0, 1), 0.5)],
                                         [((0,), 1)], [((0, 1, 1), 1)], [((0, -1), 1)]])
    def test_from_entries_rejects(self, entries):
        # int values are reduced mod p (duplicates are summed), so a non-residue
        # reaching the constructor is a non-int; a wrong length is an index arity
        with pytest.raises(ValueError):
            from_entries(F3, 2, 2, entries)

    @pytest.mark.parametrize("text", ["2 2 2\n0 1 2\n", "2 2 2\n0 1 -1\n",
                                      "2 2 2\n0 1 1.0\n", "2 2 2\n0 1\n", "2 2 2\n0 1 1 1\n"])
    def test_parse_rejects(self, text):
        with pytest.raises(TensorFormatError):
            parse_tensor(text)

    def test_package_results_hold_residues(self):
        t, s = random_tensor(F5, 2, 3, 1), random_tensor(F5, 2, 3, 2)
        basis = ((1, 2), (0, 3))
        for result in (t + s, restrict(t, basis)):
            assert all(type(c) is int and 0 <= c < 5 for c in result.coeffs)
            assert Tensor(F5, result.dim, result.order, result.coeffs) == result


class TestEvaluation:
    def test_identity_char2_cancellation(self):
        t = identity_tensor(F2, 2, 3)
        one = (1, 1)
        assert t.evaluate([one, one, one]) == 0  # 1 + 1 in F_2

    def test_zero_argument_kills_value(self):
        t = random_tensor(F5, 3, 3, 11)
        gen = SplitMix64(12)
        xs = [random_vector(F5, 3, gen) for _ in range(3)]
        xs[1] = (0, 0, 0)
        assert t.evaluate(xs) == 0

    @pytest.mark.parametrize("p,n,d", [(2, 3, 3), (3, 2, 3), (5, 2, 2), (2, 2, 4)])
    def test_matches_naive_oracle(self, p, n, d):
        field = PrimeField(p)
        for trial in range(25):
            gen = substream(1000 + p, trial)
            t = random_tensor(field, n, d, gen.next_u64())
            xs = [random_vector(field, n, gen) for _ in range(d)]
            assert t.evaluate(xs) == oracle_evaluate(t, xs)

    def test_multilinearity_in_every_slot(self):
        field = F3
        for trial in range(20):
            gen = substream(77, trial)
            t = random_tensor(field, 2, 3, gen.next_u64())
            for slot in range(3):
                xs = [random_vector(field, 2, gen) for _ in range(3)]
                u = random_vector(field, 2, gen)
                v = random_vector(field, 2, gen)
                a = gen.below(3)
                left = list(xs)
                left[slot] = tuple((a * ui + vi) % 3 for ui, vi in zip(u, v))
                xs_u = list(xs)
                xs_u[slot] = u
                xs_v = list(xs)
                xs_v[slot] = v
                assert t.evaluate(left) == (a * t.evaluate(xs_u) + t.evaluate(xs_v)) % 3


class TestAlgebra:
    def test_add_zero(self):
        t = random_tensor(F3, 2, 3, 1)
        assert t + zero_tensor(F3, 2, 3) == t

    def test_add_inverse_scalar(self):
        t = random_tensor(F5, 2, 2, 2)
        assert (t + Tensor(F5, 2, 2, [4 * c % 5 for c in t.coeffs])).is_zero()  # T + (p-1)T = 0

    def test_eval_is_additive(self):
        gen = SplitMix64(21)
        t = random_tensor(F3, 2, 3, gen.next_u64())
        s = random_tensor(F3, 2, 3, gen.next_u64())
        for _ in range(10):
            xs = [random_vector(F3, 2, gen) for _ in range(3)]
            assert (t + s).evaluate(xs) == (t.evaluate(xs) + s.evaluate(xs)) % 3

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            random_tensor(F2, 2, 2, 0) + random_tensor(F2, 2, 3, 0)
        with pytest.raises(ValueError):
            random_tensor(F2, 2, 2, 0) + random_tensor(F3, 2, 2, 0)


class TestDirectSum:
    def test_sum_with_empty_block(self):
        t = random_tensor(F2, 2, 3, 3)
        empty = zero_tensor(F2, 0, 3)
        assert direct_sum(t, empty) == t

    def test_eval_splits_additively(self):
        gen = SplitMix64(8)
        t = random_tensor(F3, 2, 3, gen.next_u64())
        s = random_tensor(F3, 2, 3, gen.next_u64())
        both = direct_sum(t, s)
        for _ in range(10):
            xs = [random_vector(F3, 2, gen) for _ in range(3)]
            ys = [random_vector(F3, 2, gen) for _ in range(3)]
            merged = [x + y for x, y in zip(xs, ys)]
            assert both.evaluate(merged) == (t.evaluate(xs) + s.evaluate(ys)) % 3

    def test_mixed_tuples_are_zero(self):
        t = identity_tensor(F2, 2, 2)
        both = direct_sum(t, t)
        assert both.entry((0, 3)) == 0
        assert both.entry((3, 0)) == 0
        assert both.entry((2, 2)) == 1


class TestRestrict:
    def test_identity_basis(self):
        t = random_tensor(F3, 3, 2, 14)
        eye = coordinate_basis(3, range(3))
        assert restrict(t, eye) == t

    def test_coordinate_restriction_of_identity(self):
        t = identity_tensor(F2, 4, 3)
        sub = restrict(t, coordinate_basis(4, (1, 3)))
        assert sub == identity_tensor(F2, 2, 3)

    def test_eval_through_basis(self):
        gen = SplitMix64(23)
        for trial in range(10):
            t = random_tensor(F3, 3, 3, gen.next_u64())
            basis = [random_vector(F3, 3, gen) for _ in range(2)]
            from biasrank.gf import matrix_rank
            if matrix_rank(F3, basis) != 2:
                continue
            sub = restrict(t, basis)
            ys = [random_vector(F3, 2, gen) for _ in range(3)]
            lifted = []
            for y in ys:
                acc = (0, 0, 0)
                for coef, b in zip(y, basis):
                    acc = tuple((a + coef * x) % 3 for a, x in zip(acc, b))
                lifted.append(acc)
            assert sub.evaluate(ys) == t.evaluate(lifted)

    def test_composition(self):
        gen = SplitMix64(29)
        t = random_tensor(F5, 3, 2, gen.next_u64())
        b1 = coordinate_basis(3, (0, 2))
        b2 = ((1, 1), (0, 1))
        once = restrict(restrict(t, b1), b2)
        composed = []
        for row in b2:
            acc = (0, 0, 0)
            for coef, b in zip(row, b1):
                acc = tuple((a + coef * x) % 5 for a, x in zip(acc, b))
            composed.append(acc)
        assert once == restrict(t, composed)

    def test_block_cells_read_every_coordinate_restriction(self):
        gen = SplitMix64(31)
        for dim, order in product(range(5), range(4)):
            t = random_tensor(F3, dim, order, gen.next_u64())
            for block in chain.from_iterable(combinations(range(dim), k) for k in range(dim + 1)):
                sub = restrict(t, coordinate_basis(dim, block))
                assert tuple(t.coeffs[q] for q in block_cells(dim, order, block)) == sub.coeffs

    def test_rejects_dependent_basis(self):
        t = random_tensor(F2, 2, 2, 0)
        with pytest.raises(ValueError):
            restrict(t, [(1, 0), (1, 0)])


class TestShiftTerms:
    def test_zero_y_leaves_full_term(self):
        gen = SplitMix64(31)
        t = random_tensor(F3, 2, 3, gen.next_u64())
        xs = [random_vector(F3, 2, gen) for _ in range(3)]
        zeros = [(0, 0)] * 3
        terms = shift_terms(t, xs, zeros)
        full = frozenset(range(3))
        assert terms[full] == t.evaluate(xs)
        assert all(v == 0 for key, v in terms.items() if key != full)

    def test_zero_x_leaves_empty_term(self):
        gen = SplitMix64(37)
        t = random_tensor(F3, 2, 3, gen.next_u64())
        ys = [random_vector(F3, 2, gen) for _ in range(3)]
        zeros = [(0, 0)] * 3
        terms = shift_terms(t, zeros, ys)
        assert terms[frozenset()] == t.evaluate(ys)
        assert all(v == 0 for key, v in terms.items() if key)

    @pytest.mark.parametrize("p,n,d", [(2, 3, 3), (3, 2, 3), (5, 2, 2), (2, 2, 4)])
    def test_terms_sum_to_shifted_value(self, p, n, d):
        field = PrimeField(p)
        for trial in range(25):
            gen = substream(4000 + p * n * d, trial)
            t = random_tensor(field, n, d, gen.next_u64())
            xs = [random_vector(field, n, gen) for _ in range(d)]
            ys = [random_vector(field, n, gen) for _ in range(d)]
            terms = shift_terms(t, xs, ys)
            merged = [tuple((a + b) % p for a, b in zip(x, y)) for x, y in zip(xs, ys)]
            assert sum(terms.values()) % p == t.evaluate(merged)


class TestRandomTensor:
    def test_determinism(self):
        a = random_tensor(F5, 3, 3, 123456)
        b = random_tensor(F5, 3, 3, 123456)
        assert a.coeffs == b.coeffs

    def test_different_seeds_differ(self):
        assert random_tensor(F5, 3, 3, 1) != random_tensor(F5, 3, 3, 2)

    def test_empty_dimension(self):
        t = random_tensor(F2, 0, 3, 9)
        assert t.coeffs == ()

    @staticmethod
    def oracle_draws(seed, bound, count):
        """Rejection sampling on next_u64 words, one word at a time."""
        gen, out = SplitMix64(seed), []
        limit = (1 << 64) - (1 << 64) % bound
        while len(out) < count:
            word = gen.next_u64()
            if word < limit:
                out.append(word % bound)
        return tuple(out), gen.next_u64()

    @pytest.mark.parametrize("bound", [1, 2, 3, 5, (1 << 63) + 1])
    def test_draws_match_the_rejection_oracle(self, bound):
        # (1 << 63) + 1 rejects about half of all words, so the rejection path runs
        bulk, single = SplitMix64(77), SplitMix64(77)
        draws = bulk.residues(bound, 200)
        assert (draws, bulk.next_u64()) == self.oracle_draws(77, bound, 200)
        assert tuple(single.below(bound) for _ in range(200)) == draws

    def test_coefficients_are_successive_residue_draws(self):
        assert random_tensor(F5, 2, 3, 4242).coeffs == self.oracle_draws(4242, 5, 8)[0]

    def test_coefficients_roughly_uniform(self):
        # chi-square style sanity: 10000 draws over F_5, each class near 2000
        counts = [0] * 5
        for seed in range(100):
            t = random_tensor(F5, 10, 2, 900 + seed)
            for c in t.coeffs:
                counts[c] += 1
        assert sum(counts) == 10000
        for c in counts:
            assert abs(c - 2000) < 250  # > 6 sigma


class TestMultiComponentForm:
    def test_component_validation(self):
        with pytest.raises(ValueError):
            MultiComponentForm(F2, 2, 3, {frozenset({0, 1}): random_tensor(F2, 2, 3, 0)})

    def test_evaluate_sums_components(self):
        gen = SplitMix64(41)
        form = random_multiform(F3, 2, 2, gen.next_u64())
        for _ in range(10):
            xs = [random_vector(F3, 2, gen) for _ in range(2)]
            expected = 0
            for subset, tensor in form.components.items():
                expected += tensor.evaluate([xs[i] for i in sorted(subset)])
            assert form.evaluate(xs) == expected % 3

    def test_top_defaults_to_zero(self):
        form = MultiComponentForm(F2, 2, 2, {})
        assert form.top().is_zero()


class TestTextFormat:
    def test_round_trip_known(self):
        t = identity_tensor(F2, 2, 3)
        text = serialize_tensor(t)
        assert text == "2 2 3\n0 0 0 1\n1 1 1 1\n"
        assert parse_tensor(text) == t

    @pytest.mark.parametrize("p,n,d", [(2, 3, 3), (3, 2, 3), (5, 2, 2), (2, 2, 4)])
    def test_round_trip_random(self, p, n, d):
        field = PrimeField(p)
        for trial in range(25):
            t = random_tensor(field, n, d, substream(31 * p, trial).next_u64())
            assert parse_tensor(serialize_tensor(t)) == t

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\n2 2 2  # trailing\n0 0 1\n"
        t = parse_tensor(text)
        assert t.entry((0, 0)) == 1

    def test_errors_carry_line_numbers(self):
        with pytest.raises(TensorFormatError) as err:
            parse_tensor("2 2\n")
        assert err.value.line == 1
        with pytest.raises(TensorFormatError) as err:
            parse_tensor("2 2 2\n0 0 5\n")
        assert err.value.line == 2
        with pytest.raises(TensorFormatError) as err:
            parse_tensor("2 2 2\n0 x 1\n")
        assert err.value.line == 2
        with pytest.raises(TensorFormatError):
            parse_tensor("# nothing\n")

    def test_rejects_composite_modulus(self):
        with pytest.raises(TensorFormatError):
            parse_tensor("4 2 2\n")

    def test_rejects_oversized_header_before_allocating(self):
        with pytest.raises(TensorFormatError) as err:
            parse_tensor("2 3000 3\n")
        assert err.value.line == 1 and "exceed" in str(err.value)
        with pytest.raises(TensorFormatError):
            parse_tensor("2 2 100000000\n")
