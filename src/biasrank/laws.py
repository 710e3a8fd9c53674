"""Checkable laws over exhaustive small universes or seeded ensembles.

Each law turns one proved statement about bias / analytic rank into a
predicate evaluated with exact arithmetic: inequalities between exact
rationals are decided by cross-multiplied integers, never floats (the
one exception is the multi-component bound at p > 2, where the complex
bias is a double and the comparison carries an explicit slack).

Violations can only come from implementation bugs; any counterexample
witness is replayed before it is reported, and seeded runs are
bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Optional

from .bias import (
    DEFAULT_BUDGET,
    BiasValue,
    BudgetExceededError,
    analytic_rank,
    bias_fiber,
    bias_multiform,
    c_constant,
    diagonal_bias_numerator,
)
from .gf import PrimeField, random_full_rank_basis
from .ranks import (
    BudgetError,
    candidate_table,
    candidate_terms,
    max_independent_set,
    rank_exact,
    search_cap,
)
from .rng import substream
from .tensor import (
    Tensor,
    all_tensors,
    coordinate_basis,
    diagonal_tensor,
    direct_sum,
    from_entries,
    identity_tensor,
    random_multiform,
    random_tensor,
    restrict,
)

# Candidate cap of arank-le-prank's rank-one check when it lists its own terms.
RANK_ONE_CHECK_CAP = 100_000

LAW_IDS = (
    "subadditivity",
    "correlation",
    "arank-le-prank",
    "independent-bound",
    "restriction-monotone",
    "lemma-bias",
    "basis-invariance",
)


@dataclass(frozen=True)
class LawResult:
    law: str
    universe: str
    holds: bool
    checked: int
    witness: Optional[dict] = None
    min_slack: Optional[float] = None
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "law": self.law,
            "universe": self.universe,
            "holds": self.holds,
            "checked": self.checked,
            "witness": self.witness,
            "min_slack": self.min_slack,
            "notes": list(self.notes),
        }


class _Tracker:
    """Accumulates check count, minimum slack, and a replayed witness."""

    def __init__(self, law: str, universe: str):
        self.law = law
        self.universe = universe
        self.checked = 0
        self.min_slack: Optional[float] = None
        self.witness: Optional[dict] = None

    def record(self, ok: bool, slack: Optional[float], witness: Callable[[], dict],
               replay: Callable[[], bool]):
        self.checked += 1
        if slack is not None and (self.min_slack is None or slack < self.min_slack):
            self.min_slack = slack
        if not ok and self.witness is None:
            if replay():
                raise RuntimeError(f"{self.law}: counterexample failed to replay")
            self.witness = witness()

    def result(self, notes: tuple[str, ...] = ()) -> LawResult:
        if self.checked == 0:
            notes = notes + ("empty universe: vacuous pass",)
        return LawResult(self.law, self.universe, self.witness is None,
                         self.checked, self.witness, self.min_slack, notes)


def _tensor_witness(**tensors) -> dict:
    out = {}
    for name, t in tensors.items():
        if isinstance(t, Tensor):
            out[name] = {"p": t.field.p, "n": t.dim, "d": t.order, "coeffs": list(t.coeffs)}
        else:
            out[name] = t
    return out


# ---------------------------------------------------------------------------
# Subadditivity: bias(T + S) >= bias(T) * bias(S)
# ---------------------------------------------------------------------------

def _subadditive_ok(k_sum: int, k_t: int, k_s: int, q: int, exponent: int) -> bool:
    return k_sum * q ** exponent >= k_t * k_s


def law_subadditivity(field: PrimeField, dim: int, order: int, *,
                      exhaustive: bool = False, trials: int = 0, seed: int = 0,
                      disjoint_trials: int = 0,
                      budget: int = DEFAULT_BUDGET) -> LawResult:
    """bias(T+S) >= bias(T) bias(S) on pairs; exact equality on direct sums."""
    q = field.p
    exponent = dim * (order - 1)
    if exhaustive:
        universe = f"exhaustive pairs p={q} n={dim} d={order}"
    else:
        universe = f"random pairs p={q} n={dim} d={order} trials={trials} seed={seed}"
    tracker = _Tracker("subadditivity", universe)

    def check_pair(t: Tensor, s: Tensor, k_t: int, k_s: int):
        k_sum = bias_fiber(t + s, budget).numerator
        ok = _subadditive_ok(k_sum, k_t, k_s, q, exponent)
        slack = k_sum / q ** exponent - (k_t * k_s) / q ** (2 * exponent)
        tracker.record(
            ok, slack,
            lambda: _tensor_witness(t=t, s=s, k_sum=k_sum, k_t=k_t, k_s=k_s),
            lambda: _subadditive_ok(bias_fiber(t + s, budget).numerator, k_t, k_s, q, exponent),
        )

    if exhaustive:
        tensors = list(all_tensors(field, dim, order))
        cache = {t.coeffs: bias_fiber(t, budget).numerator for t in tensors}
        for t in tensors:
            for s in tensors:
                k_sum = cache[(t + s).coeffs]
                k_t, k_s = cache[t.coeffs], cache[s.coeffs]
                ok = _subadditive_ok(k_sum, k_t, k_s, q, exponent)
                slack = k_sum / q ** exponent - (k_t * k_s) / q ** (2 * exponent)
                tracker.record(
                    ok, slack,
                    lambda t=t, s=s, a=k_sum, b=k_t, c=k_s: _tensor_witness(
                        t=t, s=s, k_sum=a, k_t=b, k_s=c),
                    lambda t=t, s=s, b=k_t, c=k_s: _subadditive_ok(
                        bias_fiber(t + s, budget).numerator, b, c, q, exponent),
                )
    else:
        for i in range(trials):
            gen = substream(seed, i)
            t = random_tensor(field, dim, order, gen.next_u64())
            s = random_tensor(field, dim, order, gen.next_u64())
            check_pair(t, s, bias_fiber(t, budget).numerator, bias_fiber(s, budget).numerator)

    notes = ()
    if disjoint_trials:
        equal = 0
        for i in range(disjoint_trials):
            gen = substream(seed ^ 0x5D15, i)
            t = random_tensor(field, dim, order, gen.next_u64())
            s = random_tensor(field, dim, order, gen.next_u64())
            combined = bias_fiber(direct_sum(t, s), budget)
            parts = bias_fiber(t, budget) * bias_fiber(s, budget)
            ok = combined == parts
            tracker.record(
                ok, None,
                lambda: _tensor_witness(t=t, s=s, note="direct sum not multiplicative"),
                lambda: bias_fiber(direct_sum(t, s), budget) == parts,
            )
            equal += ok
        notes = (f"direct-sum tightness: {equal}/{disjoint_trials} exact equalities",)
    return tracker.result(notes)


# ---------------------------------------------------------------------------
# Positive correlation of common zero sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrelationInstance:
    """Tensor families T_1..T_m and S_1..S_k on a shared input space."""

    field: PrimeField
    dim: int
    order: int
    t_group: tuple[Tensor, ...]
    s_group: tuple[Tensor, ...]

    def __post_init__(self):
        for t in self.t_group + self.s_group:
            if t.field.p != self.field.p or t.dim != self.dim or t.order != self.order:
                raise ValueError("family members must share shape and field")

    def zero_counts(self, budget: int = DEFAULT_BUDGET) -> tuple[int, int, int, int]:
        """(#common zeros of T, of S, of both, domain size) by enumeration."""
        q, n, d = self.field.p, self.dim, self.order
        total = q ** (n * d)
        if total > budget:
            raise BudgetExceededError(f"correlation counting needs {total} evaluations")
        vectors = list(product(range(q), repeat=n))
        z_t = z_s = z_both = 0
        for assignment in product(vectors, repeat=d):
            t_zero = all(t.evaluate(assignment) == 0 for t in self.t_group)
            s_zero = all(s.evaluate(assignment) == 0 for s in self.s_group)
            z_t += t_zero
            z_s += s_zero
            z_both += t_zero and s_zero
        return z_t, z_s, z_both, total

    def lifted(self) -> tuple[Tensor, Tensor]:
        """Order-(d+1) tensors with a fresh leading slot selecting the family.

        The T family occupies leading coordinates 0..m-1, the S family
        m..m+k-1; all slots are padded to a common dimension.
        """
        m, k = len(self.t_group), len(self.s_group)
        lift_dim = max(m + k, self.dim)
        entries_t = []
        for i, t in enumerate(self.t_group):
            entries_t += [((i,) + idx, c) for idx, c in t.nonzero_entries()]
        entries_s = []
        for j, s in enumerate(self.s_group):
            entries_s += [((m + j,) + idx, c) for idx, c in s.nonzero_entries()]
        lift_t = from_entries(self.field, lift_dim, self.order + 1, entries_t)
        lift_s = from_entries(self.field, lift_dim, self.order + 1, entries_s)
        return lift_t, lift_s


def _correlation_ok(inst: CorrelationInstance, budget: int) -> tuple[bool, float, dict]:
    q, n, d = inst.field.p, inst.dim, inst.order
    z_t, z_s, z_both, total = inst.zero_counts(budget)
    ok = z_both * total >= z_t * z_s
    slack = z_both / total - (z_t * z_s) / (total * total)
    lift_t, lift_s = inst.lifted()
    lift_dim = lift_t.dim
    k_sum = bias_fiber(lift_t + lift_s, budget)
    # The counted LHS must equal the lifted-sum bias exactly, and the
    # counted RHS must equal the product of the lifted biases.
    bridge_lhs = k_sum.numerator * q ** (n * d) == z_both * q ** (lift_dim * d)
    k_t = bias_fiber(lift_t, budget).numerator
    k_s = bias_fiber(lift_s, budget).numerator
    bridge_rhs = k_t * k_s * q ** (2 * n * d) == z_t * z_s * q ** (2 * lift_dim * d)
    details = {"z_t": z_t, "z_s": z_s, "z_both": z_both, "domain": total,
               "bridge_lhs": bridge_lhs, "bridge_rhs": bridge_rhs}
    return ok and bridge_lhs and bridge_rhs, slack, details


def law_correlation(field: PrimeField, dim: int, order: int, *,
                    trials: int, seed: int = 0, max_each: int = 3,
                    budget: int = DEFAULT_BUDGET) -> LawResult:
    """Common zeros of two tensor families are positively correlated."""
    universe = (f"random families p={field.p} n={dim} d={order} "
                f"sizes<={max_each} trials={trials} seed={seed}")
    tracker = _Tracker("correlation", universe)
    for i in range(trials):
        gen = substream(seed, i)
        m = 1 + gen.below(max_each)
        k = 1 + gen.below(max_each)
        t_group = tuple(random_tensor(field, dim, order, gen.next_u64()) for _ in range(m))
        s_group = tuple(random_tensor(field, dim, order, gen.next_u64()) for _ in range(k))
        inst = CorrelationInstance(field, dim, order, t_group, s_group)
        ok, slack, details = _correlation_ok(inst, budget)
        tracker.record(
            ok, slack,
            lambda: dict(_tensor_witness(**{f"t{j}": t for j, t in enumerate(t_group)},
                                         **{f"s{j}": s for j, s in enumerate(s_group)}),
                         **details),
            lambda: _correlation_ok(inst, budget)[0],
        )
    return tracker.result()


# ---------------------------------------------------------------------------
# Analytic rank below partition rank
# ---------------------------------------------------------------------------

def _arank_le_prank_ok(k: int, q: int, exponent: int, prank: int) -> bool:
    # bias >= q^-prank, cross-multiplied.
    return k * q ** prank >= q ** exponent


def law_arank_le_prank(field: PrimeField, dim: int, order: int, *,
                       exhaustive: bool = False, trials: int = 0, seed: int = 0,
                       rank_one_check: bool = True,
                       budget: int = DEFAULT_BUDGET) -> LawResult:
    """Exact partition rank dominates the analytic rank; rank-one bias >= 1/q."""
    q = field.p
    exponent = dim * (order - 1)
    mode = "exhaustive" if exhaustive else f"random trials={trials} seed={seed}"
    universe = f"{mode} p={q} n={dim} d={order}"
    tracker = _Tracker("arank-le-prank", universe)
    # One candidate table, capped as rank_exact caps it, serves every search
    # and the rank-one check.  Over that cap each search falls back to its
    # certified interval, which is still exact where the analytic lower
    # bound meets the greedy size, so the universe can pass; the rank-one
    # check then lists its terms under its own, larger cap.
    table = None
    if (exhaustive or trials) and order >= 2:
        try:
            table = candidate_table(field, dim, order, "prank",
                                    search_cap(dim, order, budget))
        except BudgetError:
            pass

    def check(t: Tensor):
        report = rank_exact(t, "prank", budget, table=table)
        if not report.exact:
            raise RuntimeError("universe too large for exact partition rank")
        k = bias_fiber(t, budget).numerator
        prank = report.value
        ok = _arank_le_prank_ok(k, q, exponent, prank)
        slack = prank - analytic_rank(BiasValue(k, exponent, q)).value
        tracker.record(
            ok, slack,
            lambda: _tensor_witness(t=t, prank=prank, k=k),
            lambda: _arank_le_prank_ok(bias_fiber(t, budget).numerator, q, exponent, prank),
        )

    if exhaustive:
        for t in all_tensors(field, dim, order):
            check(t)
    else:
        for i in range(trials):
            check(random_tensor(field, dim, order, substream(seed, i).next_u64()))

    notes = ()
    if rank_one_check:
        ok_count = 0
        if table is not None:
            terms = table.terms
        else:
            terms = candidate_terms(field, dim, order, "prank",
                                    max_candidates=RANK_ONE_CHECK_CAP)
        for term in terms:
            k = bias_fiber(term.tensor, budget).numerator
            ok = k * q >= q ** exponent
            tracker.record(
                ok, None,
                lambda: _tensor_witness(t=term.tensor, note="rank-one bias below 1/q"),
                lambda: bias_fiber(term.tensor, budget).numerator * q >= q ** exponent,
            )
            ok_count += ok
        notes = (f"rank-one tensors with bias >= 1/q: {ok_count}/{len(terms)}",)
    return tracker.result(notes)


# ---------------------------------------------------------------------------
# Independent-set lower bound on analytic rank
# ---------------------------------------------------------------------------

def _indep_ok_exact(k: int, q: int, dim: int, order: int, size: int) -> bool:
    # arank >= c(d, q) * |A|, cross-multiplied with the closed-form constant:
    # bias <= ((q^(d-1) - (q-1)^(d-1)) / q^(d-1))^|A|.
    block = q ** (order - 1) - (q - 1) ** (order - 1)
    exponent = dim * (order - 1)
    return k * q ** ((order - 1) * size) <= block ** size * q ** exponent


def _indep_ok_stated(k: int, q: int, dim: int, order: int, size: int) -> bool:
    # The weaker stated constant 2^-d: K^(2^d) <= q^(2^d e - |A|).
    exponent = dim * (order - 1)
    return k ** (2 ** order) <= q ** (2 ** order * exponent - size)


def law_independent_bound(field: PrimeField, dim: int, order: int, *,
                          exhaustive: bool = False, trials: int = 0, seed: int = 0,
                          diagonal_trials: int = 20,
                          budget: int = DEFAULT_BUDGET) -> LawResult:
    """arank >= c(d, q) |A| for the maximum independent set A, exactly.

    Also validates the diagonal closed form: a diagonal tensor with s
    nonzero entries has bias (1 - (1 - 1/q)^(d-1))^s, and the identity
    tensor attains the bound with equality.
    """
    q = field.p
    exponent = dim * (order - 1)
    mode = "exhaustive" if exhaustive else f"random trials={trials} seed={seed}"
    universe = f"{mode} p={q} n={dim} d={order}"
    tracker = _Tracker("independent-bound", universe)
    constant = c_constant(order, q)

    def check(t: Tensor):
        indep = max_independent_set(t)
        size = len(indep)
        k = bias_fiber(t, budget).numerator
        ok = _indep_ok_exact(k, q, dim, order, size) and _indep_ok_stated(k, q, dim, order, size)
        slack = analytic_rank(BiasValue(k, exponent, q)).value - constant * size
        tracker.record(
            ok, slack,
            lambda: _tensor_witness(t=t, independent_set=list(indep), k=k),
            lambda: _indep_ok_exact(bias_fiber(t, budget).numerator, q, dim, order, size),
        )

    if exhaustive:
        for t in all_tensors(field, dim, order):
            check(t)
    else:
        for i in range(trials):
            check(random_tensor(field, dim, order, substream(seed, i).next_u64()))

    if diagonal_trials == 0 and not exhaustive and trials == 0:
        return tracker.result()
    # Closed form for diagonal tensors, exact, including the identity.
    diag_ok = 0
    diag_universe = diagonal_trials
    for i in range(diagonal_trials):
        gen = substream(seed ^ 0xD1A6, i)
        diag = tuple(gen.below(q) for _ in range(dim))
        t = diagonal_tensor(field, order, diag)
        support = sum(1 for c in diag if c)
        expected = diagonal_bias_numerator(q, dim, order, support)
        k = bias_fiber(t, budget).numerator
        ok = k == expected
        tracker.record(
            ok, None,
            lambda: _tensor_witness(t=t, k=k, expected=expected),
            lambda: bias_fiber(t, budget).numerator == expected,
        )
        diag_ok += ok
    identity = identity_tensor(field, dim, order)
    k_id = bias_fiber(identity, budget).numerator
    id_ok = (k_id == diagonal_bias_numerator(q, dim, order, dim)
             and len(max_independent_set(identity)) == dim)
    tracker.record(
        id_ok, None,
        lambda: _tensor_witness(t=identity, k=k_id),
        lambda: bias_fiber(identity, budget).numerator == diagonal_bias_numerator(q, dim, order, dim),
    )
    notes = (f"diagonal closed form exact on {diag_ok}/{diag_universe} draws plus identity",)
    return tracker.result(notes)


# ---------------------------------------------------------------------------
# Restriction monotonicity
# ---------------------------------------------------------------------------

def _restriction_ok(t: Tensor, basis, budget: int) -> tuple[bool, float]:
    sub = restrict(t, basis)
    b_t = bias_fiber(t, budget)
    b_sub = bias_fiber(sub, budget)
    q = t.field.p
    ok = b_sub.numerator * q ** b_t.exponent >= b_t.numerator * q ** b_sub.exponent
    return ok, b_sub.to_float() - b_t.to_float()


def law_restriction_monotone(field: PrimeField, dim: int, order: int, *,
                             trials: int, seed: int = 0,
                             coordinate_subsets: bool = True,
                             budget: int = DEFAULT_BUDGET) -> LawResult:
    """bias does not decrease under restriction to a subspace."""
    universe = f"random restrictions p={field.p} n={dim} d={order} trials={trials} seed={seed}"
    tracker = _Tracker("restriction-monotone", universe)
    for i in range(trials):
        gen = substream(seed, i)
        t = random_tensor(field, dim, order, gen.next_u64())
        k = 1 + gen.below(dim)
        basis = random_full_rank_basis(field, dim, k, gen)
        ok, slack = _restriction_ok(t, basis, budget)
        tracker.record(
            ok, slack,
            lambda: _tensor_witness(t=t, basis=[list(v) for v in basis]),
            lambda: _restriction_ok(t, basis, budget)[0],
        )
        if coordinate_subsets and i < max(1, trials // 10):
            for size in range(1, dim + 1):
                for subset in combinations(range(dim), size):
                    cb = coordinate_basis(dim, subset)
                    ok, slack = _restriction_ok(t, cb, budget)
                    tracker.record(
                        ok, slack,
                        lambda: _tensor_witness(t=t, subset=list(subset)),
                        lambda: _restriction_ok(t, cb, budget)[0],
                    )
    return tracker.result()


# ---------------------------------------------------------------------------
# Multi-component bound: |bias(R)| <= bias of the full component
# ---------------------------------------------------------------------------

def _lemma_ok(form, budget: int, tol: float) -> tuple[bool, float]:
    result = bias_multiform(form, budget)
    top = bias_fiber(form.top(), budget)
    if result.exact is not None:
        ok = abs(result.exact) <= top.as_fraction()
        slack = float(top.as_fraction() - abs(result.exact))
    else:
        ok = result.magnitude <= top.to_float() + tol
        slack = top.to_float() - result.magnitude
    return ok, slack


def law_lemma_bias(field: PrimeField, dim: int, order: int, *,
                   trials: int, seed: int = 0, tol: float = 1e-9,
                   budget: int = DEFAULT_BUDGET) -> LawResult:
    """|bias(sum of subset components)| <= bias of the top component."""
    universe = f"random multiforms p={field.p} n={dim} d={order} trials={trials} seed={seed}"
    tracker = _Tracker("lemma-bias", universe)
    for i in range(trials):
        form = random_multiform(field, dim, order, substream(seed, i).next_u64())
        ok, slack = _lemma_ok(form, budget, tol)
        tracker.record(
            ok, slack,
            lambda: _tensor_witness(top=form.top(),
                                    components={str(sorted(k)): list(v.coeffs)
                                                for k, v in form.components.items()}),
            lambda: _lemma_ok(form, budget, tol)[0],
        )
    return tracker.result()


# ---------------------------------------------------------------------------
# Basis invariance of bias
# ---------------------------------------------------------------------------

def law_basis_invariance(field: PrimeField, dim: int, order: int, *,
                         trials: int, seed: int = 0,
                         budget: int = DEFAULT_BUDGET) -> LawResult:
    """Composing every slot with one invertible map preserves bias exactly."""
    universe = f"random changes of basis p={field.p} n={dim} d={order} trials={trials} seed={seed}"
    tracker = _Tracker("basis-invariance", universe)
    for i in range(trials):
        gen = substream(seed, i)
        t = random_tensor(field, dim, order, gen.next_u64())
        basis = random_full_rank_basis(field, dim, dim, gen)
        moved = restrict(t, basis)
        b_t = bias_fiber(t, budget)
        b_m = bias_fiber(moved, budget)
        ok = b_t == b_m
        tracker.record(
            ok, None,
            lambda: _tensor_witness(t=t, basis=[list(v) for v in basis]),
            lambda: bias_fiber(restrict(t, basis), budget) == b_t,
        )
    return tracker.result()


# ---------------------------------------------------------------------------
# Empirical gap survey (no verdict)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurveyRow:
    label: str
    arank: float
    prank_lower: int
    prank_upper: int
    exact: bool
    ratio: Optional[float]


@dataclass(frozen=True)
class SurveyReport:
    universe: str
    rows: tuple[SurveyRow, ...]
    max_ratio: Optional[float]

    def to_tsv(self) -> str:
        lines = ["label\tarank\tprank_lower\tprank_upper\texact\tratio"]
        for row in self.rows:
            ratio = f"{row.ratio:.6f}" if row.ratio is not None else ""
            lines.append(f"{row.label}\t{row.arank:.12f}\t{row.prank_lower}"
                         f"\t{row.prank_upper}\t{int(row.exact)}\t{ratio}")
        max_ratio = f"{self.max_ratio:.6f}" if self.max_ratio is not None else "n/a"
        lines.append(f"# max_ratio = {max_ratio} over {len(self.rows)} rows ({self.universe})")
        return "\n".join(lines) + "\n"


def survey_gap(field: PrimeField, dim: int, order: int, *,
               exhaustive: bool = False, trials: int = 0, seed: int = 0,
               identity_max: int = 0, budget: int = DEFAULT_BUDGET) -> SurveyReport:
    """Tabulate (arank, partition rank or bounds, ratio); zero tensors skipped."""
    rows = []
    max_ratio = None

    def add(label: str, t: Tensor):
        nonlocal max_ratio
        if t.is_zero():
            return
        ar = analytic_rank(bias_fiber(t, budget)).value
        report = rank_exact(t, "prank", budget)
        ratio = None
        if report.exact and ar > 0:
            ratio = report.value / ar
            if max_ratio is None or ratio > max_ratio:
                max_ratio = ratio
        rows.append(SurveyRow(label, ar, report.lower, report.upper, report.exact, ratio))

    if identity_max:
        universe = f"identity tensors n=1..{identity_max} p={field.p} d={order}"
        for n in range(1, identity_max + 1):
            add(f"identity-n{n}", identity_tensor(field, n, order))
    elif exhaustive:
        universe = f"exhaustive p={field.p} n={dim} d={order}"
        for i, t in enumerate(all_tensors(field, dim, order)):
            add(f"tensor-{i}", t)
    else:
        universe = f"random p={field.p} n={dim} d={order} trials={trials} seed={seed}"
        for i in range(trials):
            add(f"seeded-{i}", random_tensor(field, dim, order, substream(seed, i).next_u64()))
    return SurveyReport(universe, tuple(rows), max_ratio)
