"""Checkable laws over exhaustive small universes or seeded ensembles.

Each law turns one proved statement about bias / analytic rank into a
predicate evaluated with exact arithmetic: inequalities between exact
rationals are decided by cross-multiplied integers, never floats (the
one exception is the multi-component bound at p > 2, where the complex
bias is a double and the comparison carries an explicit slack).

Every law draws its instances from :func:`_universe` and checks them
through :meth:`_Tracker.drive`, phase by phase.  Violations can only
come from implementation bugs; any counterexample witness is replayed
before it is reported, and seeded runs are bit-reproducible.  A seeded
universe's default draw, trial i's tensor (or pair) seeded by the first
word (or two) of substream(seed, i), is made by :func:`_seeded_rows` a
chunk of trials at a time, with the batched words and residue rows of
:mod:`biasrank.rng`; a law's own draw runs per trial.

Subadditivity keeps one K per distinct tensor of its universe.  Its
exhaustive pairs are indices into the cube in `all_tensors` order: the
index of t + s is i ^ j at p = 2 and the digitwise sum mod p otherwise, so
a pair is one index computation and three list lookups.  Its seeded
pairs are coefficient rows: K is memoized by row, and the row of t + s is
the cellwise sum mod p.  Either way tensors are built only for K, a
witness and its replay.

arank-le-prank and the survey rank exactly under the search cap of
:func:`ranks.rank_exact`; over it arank-le-prank, which needs exact ranks,
raises BudgetExceededError before checking anything, and the survey
reports intervals.  arank-le-prank takes the rank-one tensors it checks,
and its refusal, from :func:`ranks.search_table`, which lists the
partition-rank candidates of its shape or gives None over the cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations, product
from operator import add, mul, xor
from typing import Callable, Iterable, Iterator, Optional

from .bias import (
    DEFAULT_BUDGET,
    BiasValue,
    BudgetExceededError,
    _check_budget,
    analytic_rank,
    bias_fiber,
    bias_multiform,
    c_constant,
    diagonal_bias_numerator,
)
from .gf import PrimeField, combine_masks, digit_masks, random_full_rank_basis
from .ranks import max_independent_set, rank_exact, search_table
from .rng import SplitMix64, residue_rows, substream, substream_seed, words
from .tensor import (
    Tensor,
    _check_dims,
    all_tensors,
    coordinate_basis,
    diagonal_tensor,
    direct_sum,
    identity_tensor,
    random_multiform,
    random_tensor,
    restrict,
)

# Seeded diagonal tensors independent-bound checks against their closed form.
DIAGONAL_TRIALS = 20

# Largest family size on either side of a correlation instance.
CORRELATION_MAX_EACH = 3

# Float slack of lemma-bias at p > 2, where the complex bias is a double.
LEMMA_BIAS_TOL = 1e-9


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

    def drive(self, instances: Iterable,
              check: Callable[[object], tuple[bool, Optional[float], Callable[[], dict]]],
              replay: Optional[Callable[[object], bool]] = None) -> int:
        """Record `check(instance)` = (ok, slack, witness thunk) for every instance.

        The first failure is replayed by `replay(instance)`, by default a
        second `check`, before its witness is kept; a failure that does not
        replay is a RuntimeError.  Returns how many instances held.
        """
        held = 0
        for inst in instances:
            ok, slack, witness = check(inst)
            self.checked += 1
            if slack is not None and (self.min_slack is None or slack < self.min_slack):
                self.min_slack = slack
            if ok:
                held += 1
            elif self.witness is None:
                if replay(inst) if replay else check(inst)[0]:
                    raise RuntimeError(f"{self.law}: counterexample failed to replay")
                self.witness = witness()
        return held

    def result(self, notes: tuple[str, ...] = ()) -> LawResult:
        if self.checked == 0:
            notes = notes + ("empty universe: vacuous pass",)
        return LawResult(self.law, self.universe, self.witness is None,
                         self.checked, self.witness, self.min_slack, notes)


def _draw_tensor(field: PrimeField, dim: int, order: int, gen: SplitMix64) -> Tensor:
    return random_tensor(field, dim, order, gen.next_u64())


# Trials whose words and residues are drawn in one batch.
_CHUNK = 64


def _seeded_rows(q: int, dim: int, order: int, trials: int, seed: int,
                 per_trial: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Per trial i, the coefficients of the `per_trial` tensors that random_tensor
    draws from the first words of substream(seed, i), _CHUNK trials at a time."""
    for start in range(0, trials, _CHUNK):
        _check_dims(dim, order)  # random_tensor's check, made wherever it would draw
        streams = [substream_seed(seed, i) for i in range(start, min(start + _CHUNK, trials))]
        rows = residue_rows(q, dim ** order, words(streams, per_trial))
        yield from zip(*[iter(rows)] * per_trial)


def _universe(field: PrimeField, dim: int, order: int, *, exhaustive: bool = False,
              trials: int = 0, seed: int = 0, pairs: bool = False,
              draw: Optional[Callable[[SplitMix64], object]] = None) -> Iterable:
    """The exhaustive cube, or one instance per trial i drawn from substream(seed, i).

    A trial's instance is `draw(stream)`, by default the tensor seeded by
    the stream's first word, or with `pairs` the tensors seeded by its first
    two words.  Default draws are batched by :func:`_seeded_rows`.
    """
    if exhaustive:
        return all_tensors(field, dim, order)
    if draw:
        return (draw(substream(seed, i)) for i in range(trials))
    rows = _seeded_rows(field.p, dim, order, trials, seed, 2 if pairs else 1)
    tensor = partial(Tensor._trusted, field, dim, order)
    return (tuple(map(tensor, row)) if pairs else tensor(row[0]) for row in rows)


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

def _index_sum(p: int) -> Callable[[int, int], int]:
    """Cube index of t + s from the indices of t and s in `all_tensors` order.

    The index of a tensor is its coefficient array read as base-p digits, so
    the index of t + s is the digitwise sum mod p: i ^ j at p = 2.
    """
    if p == 2:
        return xor

    def digit_sum(i: int, j: int) -> int:
        total, weight = 0, 1
        while i or j:
            total += (i + j) % p * weight
            i, j, weight = i // p, j // p, weight * p
        return total

    return digit_sum


def law_subadditivity(field: PrimeField, dim: int, order: int, *,
                      exhaustive: bool = False, trials: int = 0, seed: int = 0,
                      disjoint_trials: int = 0,
                      budget: int = DEFAULT_BUDGET) -> LawResult:
    """bias(T+S) >= bias(T) bias(S) on pairs; exact equality on direct sums.

    K is computed once per distinct tensor of the universe: a list by cube
    index for exhaustive pairs, a dict by coefficients for seeded ones.
    Exhaustive pairs are cube indices (i, j): K(t + s) is a list lookup at
    the index of t + s.  Seeded pairs are coefficient rows, summed cell by
    cell.  Tensors are built only for K and a witness, and a failing pair
    is replayed from scratch on tensors.
    """
    q = field.p
    exponent = dim * (order - 1)
    scale, scale_sq = q ** exponent, q ** (2 * exponent)
    if exhaustive:
        universe = f"exhaustive pairs p={q} n={dim} d={order}"
    else:
        universe = f"random pairs p={q} n={dim} d={order} trials={trials} seed={seed}"
    tracker = _Tracker("subadditivity", universe)

    def fiber(t: Tensor) -> int:
        return bias_fiber(t, budget).numerator

    def verdict(k_sum: int, k_t: int, k_s: int, pair: Callable[[], tuple]):
        ok = k_sum * scale >= k_t * k_s
        slack = k_sum / scale - (k_t * k_s) / scale_sq

        def witness() -> dict:
            t, s = pair()
            return _tensor_witness(t=t, s=s, k_sum=k_sum, k_t=k_t, k_s=k_s)

        return ok, slack, witness

    def replay(t: Tensor, s: Tensor) -> bool:
        return fiber(t + s) * scale >= fiber(t) * fiber(s)

    def direct_sum_ok(pair):
        t, s = pair
        ok = bias_fiber(direct_sum(t, s), budget) == bias_fiber(t, budget) * bias_fiber(s, budget)
        return ok, None, lambda: _tensor_witness(t=t, s=s, note="direct sum not multiplicative")

    if exhaustive:
        cube = list(_universe(field, dim, order, exhaustive=True))
        ks = [fiber(t) for t in cube]
        index_sum = _index_sum(q)

        def index_pair_ok(ij):
            i, j = ij
            return verdict(ks[index_sum(i, j)], ks[i], ks[j], lambda: (cube[i], cube[j]))

        tracker.drive(product(range(len(cube)), repeat=2), index_pair_ok,
                      lambda ij: replay(cube[ij[0]], cube[ij[1]]))
    else:
        numerators: dict[tuple[int, ...], int] = {}
        tensor = partial(Tensor._trusted, field, dim, order)

        def known(c: tuple[int, ...]) -> int:
            k = numerators.get(c)
            if k is None:
                k = numerators[c] = fiber(tensor(c))
            return k

        def row_pair_ok(pair):
            c, d = pair
            k_sum = known(tuple([(a + b) % q for a, b in zip(c, d)]))
            return verdict(k_sum, known(c), known(d), lambda: (tensor(c), tensor(d)))

        tracker.drive(_seeded_rows(q, dim, order, trials, seed, 2), row_pair_ok,
                      lambda pair: replay(tensor(pair[0]), tensor(pair[1])))

    notes = ()
    if disjoint_trials:
        equal = tracker.drive(_universe(field, dim, order, trials=disjoint_trials,
                                        seed=seed ^ 0x5D15, pairs=True),
                              direct_sum_ok)
        notes = (f"direct-sum tightness: {equal}/{disjoint_trials} exact equalities",)
    return tracker.result(notes)


# ---------------------------------------------------------------------------
# Positive correlation of common zero sets
# ---------------------------------------------------------------------------

# Bits in the monomial table of one block of correlation assignments.
_TABLE_BITS = 1 << 22


@lru_cache(maxsize=1)
def _monomial_table(q: int, n: int, d: int, high: tuple[int, ...]) -> tuple[int, list]:
    """The block of assignments with high base-q digits `high`, as a bitmask, and
    each monomial's value masks on it; coordinate i of slot s is digit sn + i."""
    low = n * d - len(high)
    full = (1 << q ** low) - 1
    digits = digit_masks(q, low) + [[full * (v == h) for v in range(q)] for h in high]
    table = []
    for idx in product(range(n), repeat=d):
        term = [full * (v == 1) for v in range(q)]
        for s, i in enumerate(idx):
            term = combine_masks(term, digits[s * n + i], mul, q)
        table.append(term)
    return full, table


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
        """(#common zeros of T, of S, of both, domain size) by enumeration:
        a zero-set bitmask per member and block of assignments, each block as
        large as a monomial table of _TABLE_BITS bits allows, and popcounts.
        The value-mask helpers of :mod:`biasrank.gf` are shared with the
        histogram's lane walk, but nothing with bias_fiber, which the bridge
        check compares these counts against."""
        q, n, d = self.field.p, self.dim, self.order
        total = q ** (n * d)
        _check_budget(total, budget, "correlation counting")
        low = n * d
        while low and q ** (low + 1) * n ** d > _TABLE_BITS:
            low -= 1
        z_t = z_s = z_both = 0
        for high in product(range(q), repeat=n * d - low):
            full, table = _monomial_table(q, n, d, high)

            def zeros(group):
                common = full
                for t in group:
                    values = [full] + [0] * (q - 1)
                    for term, c in zip(table, t.coeffs):
                        if c:  # c * term takes value v where term takes v / c
                            inv = pow(c, -1, q)
                            values = combine_masks(values, [term[v * inv % q] for v in range(q)],
                                                   add, q)
                    common &= values[0]
                return common

            t_zero, s_zero = zeros(self.t_group), zeros(self.s_group)
            z_t += t_zero.bit_count()
            z_s += s_zero.bit_count()
            z_both += (t_zero & s_zero).bit_count()
        return z_t, z_s, z_both, total

    def lifted(self) -> tuple[Tensor, Tensor]:
        """Order-(d+1) tensors with a fresh leading slot selecting the family.

        The T family occupies leading coordinates 0..m-1, the S family
        m..m+k-1; all slots are padded to a common dimension.
        """
        m, k = len(self.t_group), len(self.s_group)
        lift_dim = max(m + k, self.dim)
        block = lift_dim ** self.order
        cells = _padded_cells(self.dim, lift_dim, self.order)

        def lift(group: tuple[Tensor, ...], first: int) -> Tensor:
            coeffs = [0] * (lift_dim * block)
            for lead, t in enumerate(group, first):
                base = lead * block
                for cell, c in zip(cells, t.coeffs):
                    coeffs[base + cell] = c
            return Tensor._trusted(self.field, lift_dim, self.order + 1, tuple(coeffs))

        return lift(self.t_group, 0), lift(self.s_group, m)


@lru_cache(maxsize=16)
def _padded_cells(dim: int, lift_dim: int, order: int) -> tuple[int, ...]:
    """Where each cell of an order-`order` tensor on F^dim sits in one on F^lift_dim."""
    return tuple(sum(i * lift_dim ** (order - 1 - s) for s, i in enumerate(idx))
                 for idx in product(range(dim), repeat=order))


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
                    trials: int, seed: int = 0,
                    budget: int = DEFAULT_BUDGET) -> LawResult:
    """Common zeros of two tensor families are positively correlated."""
    universe = (f"random families p={field.p} n={dim} d={order} "
                f"sizes<={CORRELATION_MAX_EACH} trials={trials} seed={seed}")
    tracker = _Tracker("correlation", universe)

    def draw(gen: SplitMix64) -> CorrelationInstance:
        m = 1 + gen.below(CORRELATION_MAX_EACH)
        k = 1 + gen.below(CORRELATION_MAX_EACH)
        t_group = tuple(_draw_tensor(field, dim, order, gen) for _ in range(m))
        s_group = tuple(_draw_tensor(field, dim, order, gen) for _ in range(k))
        return CorrelationInstance(field, dim, order, t_group, s_group)

    def check(inst: CorrelationInstance):
        ok, slack, details = _correlation_ok(inst, budget)
        return ok, slack, lambda: dict(
            _tensor_witness(**{f"t{j}": t for j, t in enumerate(inst.t_group)},
                            **{f"s{j}": s for j, s in enumerate(inst.s_group)}),
            **details)

    tracker.drive(_universe(field, dim, order, trials=trials, seed=seed, draw=draw), check)
    return tracker.result()


# ---------------------------------------------------------------------------
# Analytic rank below partition rank
# ---------------------------------------------------------------------------

def law_arank_le_prank(field: PrimeField, dim: int, order: int, *,
                       exhaustive: bool = False, trials: int = 0, seed: int = 0,
                       budget: int = DEFAULT_BUDGET) -> LawResult:
    """Exact partition rank dominates the analytic rank; rank-one bias >= 1/q.

    A nonempty universe also checks every rank-one tensor, the arrays of
    :func:`search_table`.  A shape over the search cap, or a search that
    ends in an interval, raises BudgetExceededError.
    """
    if order < 2:
        raise ValueError("arank-le-prank needs order >= 2")
    q = field.p
    exponent = dim * (order - 1)
    mode = "exhaustive" if exhaustive else f"random trials={trials} seed={seed}"
    universe = f"{mode} p={q} n={dim} d={order}"
    tracker = _Tracker("arank-le-prank", universe)
    nonempty = exhaustive or trials > 0
    rank_one = search_table(field, dim, order, "prank", budget) if nonempty else None
    if nonempty and rank_one is None:
        raise BudgetExceededError(f"partition-rank candidates at p={q} n={dim} d={order} "
                                  f"exceed the search cap at budget {budget}")

    def check(t: Tensor):
        report = rank_exact(t, "prank", budget)
        if not report.exact:
            raise BudgetExceededError(f"exact partition rank search exceeded budget {budget}")
        k = bias_fiber(t, budget).numerator
        prank = report.value
        ok = k * q ** prank >= q ** exponent  # bias >= q^-prank, cross-multiplied
        slack = prank - analytic_rank(BiasValue(k, exponent, q)).value
        return ok, slack, lambda: _tensor_witness(t=t, prank=prank, k=k)

    def rank_one_ok(t: Tensor):
        ok = bias_fiber(t, budget).numerator * q >= q ** exponent
        return ok, None, lambda: _tensor_witness(t=t, note="rank-one bias below 1/q")

    tracker.drive(_universe(field, dim, order, exhaustive=exhaustive, trials=trials,
                            seed=seed), check)
    if not nonempty:
        return tracker.result()
    held = tracker.drive((Tensor._trusted(field, dim, order, c) for c in rank_one), rank_one_ok)
    return tracker.result((f"rank-one tensors with bias >= 1/q: {held}/{len(rank_one)}",))


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
                          budget: int = DEFAULT_BUDGET) -> LawResult:
    """arank >= c(d, q) |A| for the maximum independent set A, exactly.

    A nonempty universe also validates the diagonal closed form on
    DIAGONAL_TRIALS seeded draws: a diagonal tensor with s nonzero entries
    has bias (1 - (1 - 1/q)^(d-1))^s, and the identity tensor attains the
    bound with equality.
    """
    q = field.p
    exponent = dim * (order - 1)
    mode = "exhaustive" if exhaustive else f"random trials={trials} seed={seed}"
    universe = f"{mode} p={q} n={dim} d={order}"
    tracker = _Tracker("independent-bound", universe)
    constant = c_constant(order, q)

    def check(t: Tensor):
        indep = max_independent_set(t, budget)
        size = len(indep)
        k = bias_fiber(t, budget).numerator
        ok = _indep_ok_exact(k, q, dim, order, size) and _indep_ok_stated(k, q, dim, order, size)
        slack = analytic_rank(BiasValue(k, exponent, q)).value - constant * size
        return ok, slack, lambda: _tensor_witness(t=t, independent_set=list(indep), k=k)

    def closed_form_ok(diag: tuple[int, ...]):
        t = diagonal_tensor(field, order, diag)
        expected = diagonal_bias_numerator(q, dim, order, sum(1 for c in diag if c))
        k = bias_fiber(t, budget).numerator
        return k == expected, None, lambda: _tensor_witness(t=t, k=k, expected=expected)

    def identity_ok(t: Tensor):
        k = bias_fiber(t, budget).numerator
        ok = (k == diagonal_bias_numerator(q, dim, order, dim)
              and len(max_independent_set(t, budget)) == dim)
        return ok, None, lambda: _tensor_witness(t=t, k=k)

    tracker.drive(_universe(field, dim, order, exhaustive=exhaustive, trials=trials,
                            seed=seed), check)
    if not (exhaustive or trials > 0):
        return tracker.result()
    diag_ok = tracker.drive(_universe(field, dim, order, trials=DIAGONAL_TRIALS,
                                      seed=seed ^ 0xD1A6,
                                      draw=lambda gen: gen.residues(q, dim)),
                            closed_form_ok)
    tracker.drive([identity_tensor(field, dim, order)], identity_ok)
    notes = (f"diagonal closed form exact on {diag_ok}/{DIAGONAL_TRIALS} draws plus identity",)
    return tracker.result(notes)


# ---------------------------------------------------------------------------
# Restriction monotonicity
# ---------------------------------------------------------------------------

def law_restriction_monotone(field: PrimeField, dim: int, order: int, *,
                             trials: int, seed: int = 0,
                             budget: int = DEFAULT_BUDGET) -> LawResult:
    """bias does not decrease under restriction to a subspace.

    Each trial restricts to a random subspace; the first tenth of the
    trials (at least one) also restrict to every coordinate subspace.
    """
    q = field.p
    universe = f"random restrictions p={q} n={dim} d={order} trials={trials} seed={seed}"
    tracker = _Tracker("restriction-monotone", universe)

    def draw(gen: SplitMix64):
        t = _draw_tensor(field, dim, order, gen)
        basis = random_full_rank_basis(field, dim, 1 + gen.below(dim), gen)
        return t, basis, {"basis": [list(v) for v in basis]}

    def check(inst):
        t, basis, where = inst
        b_t = bias_fiber(t, budget)
        b_sub = bias_fiber(restrict(t, basis), budget)
        ok = b_sub.numerator * q ** b_t.exponent >= b_t.numerator * q ** b_sub.exponent
        return ok, b_sub.to_float() - b_t.to_float(), lambda: _tensor_witness(t=t, **where)

    draws = list(_universe(field, dim, order, trials=trials, seed=seed, draw=draw))
    subsets = [subset for size in range(1, dim + 1) for subset in combinations(range(dim), size)]
    tracker.drive(draws, check)
    tracker.drive(((t, coordinate_basis(dim, subset), {"subset": list(subset)})
                   for t, _, _ in draws[:max(1, trials // 10)] for subset in subsets), check)
    return tracker.result()


# ---------------------------------------------------------------------------
# Multi-component bound: |bias(R)| <= bias of the full component
# ---------------------------------------------------------------------------

def law_lemma_bias(field: PrimeField, dim: int, order: int, *,
                   trials: int, seed: int = 0,
                   budget: int = DEFAULT_BUDGET) -> LawResult:
    """|bias(sum of subset components)| <= bias of the top component."""
    universe = f"random multiforms p={field.p} n={dim} d={order} trials={trials} seed={seed}"
    tracker = _Tracker("lemma-bias", universe)

    def check(form):
        result = bias_multiform(form, budget)
        top = bias_fiber(form.top(), budget)
        if result.exact is not None:
            ok = abs(result.exact) <= top.as_fraction()
            slack = float(top.as_fraction() - abs(result.exact))
        else:
            ok = result.magnitude <= top.to_float() + LEMMA_BIAS_TOL
            slack = top.to_float() - result.magnitude
        return ok, slack, lambda: _tensor_witness(
            top=form.top(),
            components={str(sorted(k)): list(v.coeffs) for k, v in form.components.items()})

    tracker.drive(_universe(field, dim, order, trials=trials, seed=seed,
                            draw=lambda gen: random_multiform(field, dim, order,
                                                              gen.next_u64())),
                  check)
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

    def draw(gen: SplitMix64):
        t = _draw_tensor(field, dim, order, gen)
        return t, random_full_rank_basis(field, dim, dim, gen)

    def check(inst):
        t, basis = inst
        ok = bias_fiber(restrict(t, basis), budget) == bias_fiber(t, budget)
        return ok, None, lambda: _tensor_witness(t=t, basis=[list(v) for v in basis])

    tracker.drive(_universe(field, dim, order, trials=trials, seed=seed, draw=draw), check)
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
    """Tabulate (arank, partition rank or bounds, ratio); zero tensors skipped.

    The identity family changes dimension from row to row.  Over the
    search cap a row reports its certified interval.
    """
    if identity_max:
        universe = f"identity tensors n=1..{identity_max} p={field.p} d={order}"
        labelled = ((f"identity-n{n}", identity_tensor(field, n, order))
                    for n in range(1, identity_max + 1))
    else:
        if exhaustive:
            universe = f"exhaustive p={field.p} n={dim} d={order}"
            prefix = "tensor"
        else:
            universe = f"random p={field.p} n={dim} d={order} trials={trials} seed={seed}"
            prefix = "seeded"
        labelled = ((f"{prefix}-{i}", t) for i, t in enumerate(
            _universe(field, dim, order, exhaustive=exhaustive, trials=trials, seed=seed)))
    rows = []
    max_ratio = None
    for label, t in labelled:
        if t.is_zero():
            continue
        ar = analytic_rank(bias_fiber(t, budget)).value
        report = rank_exact(t, "prank", budget)
        ratio = None
        if report.exact and ar > 0:
            ratio = report.value / ar
            if max_ratio is None or ratio > max_ratio:
                max_ratio = ratio
        rows.append(SurveyRow(label, ar, report.lower, report.upper, report.exact, ratio))
    return SurveyReport(universe, tuple(rows), max_ratio)
