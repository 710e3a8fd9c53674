"""Checkable laws over exhaustive small universes or seeded ensembles.

Each law turns one proved statement about bias / analytic rank into a
predicate evaluated with exact arithmetic: inequalities between exact
rationals are decided by cross-multiplied integers, never floats (the
one exception is the multi-component bound at p > 2, where the complex
bias is a double and the comparison carries an explicit slack).

Each law enters the law table at its definition, by :func:`_law`, under
the id that its name `law_<id>` spells with dashes for underscores, the
id its tracker reports: :data:`LAWS` maps the id to the law function, in
`check all` order, and :data:`LAW_UNIVERSES` to its smallest (n, d) and
default universes.  A law with no exhaustive default universe is
random-only.

Every law draws its instances from :func:`_universe` and checks them
through :meth:`_Tracker.drive`, phase by phase.  Violations can only
come from implementation bugs; any counterexample witness is replayed
before it is reported, and seeded runs are bit-reproducible.  A seeded
universe's draws are made _CHUNK trials at a time from the batched words
and residue rows of :mod:`biasrank.rng`.  The default draw is trial i's
tensor (or pair) seeded by the first word (or two) of substream(seed, i).
A law's own draw reads a fixed count of words per trial, _CANDIDATES basis
candidates' worth where it draws a basis; a trial whose words it cannot
use, after a rejected word or with no candidate of full rank, is drawn
again from its stream by the law's per-trial draw, which stays the reference.

Laws read their bias numerators K a chunk of _CHUNK instances at a time
(:meth:`_Tracker.drive_counted`): the chunk's tensors are grouped by shape
and each group is counted by one :func:`bias.fiber_counts` call, whose
rows share a walk.  A failing instance is replayed with bias_fiber one
tensor at a time, so a fault that only batched counts make cannot replay.

Subadditivity keeps one K per distinct tensor of its universe and decides
each distinct triple (K(t + s), K(t), K(s)) once.  Its exhaustive pairs
are indices into the cube in `all_tensors` order, charged to the budget
before the cube is built: the index of t + s is i ^ j at p = 2 and the
digitwise sum mod p otherwise.  Its seeded pairs are coefficient rows: K
is memoized by row, a chunk's new rows are counted together, and the row
of t + s is the cellwise sum mod p.  Either way the pairs are walked one
by one only to find the first that fails, and tensors are built only for
K, a witness and its replay.

arank-le-prank and the survey take partition rank from
:func:`ranks.rank_exact`, which admits each exact method by its own worst
case.  Where it gives an interval, arank-le-prank, which needs exact
ranks, raises BudgetExceededError, and the survey reports the interval.
arank-le-prank also checks rank-one tensors: on an exhaustive universe,
the cube's tensors of exact partition rank 1, which are every rank-one
array of the shape; on a seeded one, as many seeded rank-one tensors as
trials, drawn from a substream of their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from itertools import chain, combinations, islice, product, repeat
from math import inf
from operator import add, and_, mul, xor
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
    fiber_counts,
)
from .gf import PrimeField, combine_masks, digit_masks, matrix_rank, random_full_rank_basis
from .ranks import _cell_positions, _partition_sides, max_independent_set, rank_exact
from .rng import SplitMix64, residue_rows, substream, substream_seed, words
from .tensor import (
    MultiComponentForm,
    Tensor,
    _check_dims,
    _contract,
    all_tensors,
    block_cells,
    diagonal_tensor,
    direct_sum,
    identity_tensor,
    random_tensor,
    universe_size,
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
              replay: Callable[[object], bool]) -> int:
        """Record `check(instance)` = (ok, slack, witness thunk) for every instance.

        The first failure is replayed by `replay(instance)` before its
        witness is kept; a failure that does not replay is a RuntimeError.
        Returns how many instances held.
        """
        held = 0
        for inst in instances:
            ok, slack, witness = check(inst)
            self.record(1, slack)
            if ok:
                held += 1
            elif self.witness is None:
                if replay(inst):
                    raise RuntimeError(f"{self.law}: counterexample failed to replay")
                self.witness = witness()
        return held

    def drive_counted(self, instances: Iterable, parts: Callable[[object], tuple],
                      check: Callable[[object, list], tuple], budget: int) -> int:
        """:meth:`drive` where `check(instance, ks)` reads the K of each tensor
        of `parts(instance)`, ks[i] for the i-th, counted by :func:`_counted`.

        A failure is replayed by `check` with every K recounted by bias_fiber,
        one tensor at a time, so a count that goes wrong only in a batch
        does not replay.
        """
        return self.drive(_counted(instances, parts, budget), lambda item: check(*item),
                          lambda item: check(item[0], _Recount(parts(item[0]), budget))[0])

    def record(self, checked: int, slack: Optional[float]) -> None:
        """Count `checked` instances, the least slack among them `slack`."""
        self.checked += checked
        if slack is not None and (self.min_slack is None or slack < self.min_slack):
            self.min_slack = slack

    def result(self, notes: tuple[str, ...] = ()) -> LawResult:
        if self.checked == 0:
            notes = notes + ("empty universe: vacuous pass",)
        return LawResult(self.law, self.universe, self.witness is None,
                         self.checked, self.witness, self.min_slack, notes)


class _Recount:
    """K of each tensor by bias_fiber, one tensor at a time, when read."""

    def __init__(self, tensors: tuple, budget: int):
        self.tensors, self.budget = tensors, budget

    def __getitem__(self, i: int) -> int:
        return bias_fiber(self.tensors[i], self.budget).numerator


def _counted(instances: Iterable, parts: Callable[[object], tuple],
             budget: int) -> Iterator[tuple[object, object]]:
    """(instance, K of each tensor of parts(instance)) for every instance.

    The K's of _CHUNK instances come from one fiber_counts call per shape,
    which counts each distinct coefficient row once.  Where a shape's walk
    is over the budget, the chunk's K's are read from bias_fiber one tensor
    at a time (:class:`_Recount`), so the refusal comes where the law reads
    that K, after any refusal the law makes first.
    """
    instances = iter(instances)
    while chunk := list(islice(instances, _CHUNK)):
        tensors = [parts(inst) for inst in chunk]
        shapes: dict[tuple, dict] = {}
        for t in chain.from_iterable(tensors):
            shapes.setdefault((t.field, t.dim, t.order), {})[t.coeffs] = None
        try:
            for (field, dim, order), known in shapes.items():
                rows = list(known)
                known.update(zip(rows, fiber_counts(field, dim, order, rows, budget)))
        except BudgetExceededError:
            yield from zip(chunk, (_Recount(ts, budget) for ts in tensors))
            continue
        for inst, ts in zip(chunk, tensors):
            yield inst, [shapes[t.field, t.dim, t.order][t.coeffs] for t in ts]


def _itself(t: Tensor) -> tuple[Tensor]:
    return (t,)


# Trials whose words and residues are drawn, and instances whose K's are
# counted, in one batch; basis candidates whose words a batched draw reads.
_CHUNK, _CANDIDATES = 64, 8


def _trial_words(dim: int, order: int, trials: int, seed: int, count: int) -> Iterator[list]:
    """The first `count` words of substream(seed, i) for every trial i, trial
    by trial, in one list per _CHUNK trials."""
    for start in range(0, trials, _CHUNK):
        _check_dims(dim, order)  # random_tensor's check, made wherever it would draw
        yield words([substream_seed(seed, i) for i in range(start, min(start + _CHUNK, trials))],
                    count)


def _tensors(field: PrimeField, dim: int, order: int, seeds: list[int]) -> list[Tensor]:
    """random_tensor(field, dim, order, s) for each seed s, from one batch of words."""
    return list(map(partial(Tensor._trusted, field, dim, order),
                    residue_rows(field.p, dim ** order, seeds)))


def _limit(bound: int) -> int:
    """The least word SplitMix64.below(bound) rejects; 0 where it refuses the bound."""
    return (1 << 64) - (1 << 64) % bound if bound > 0 else 0


def _bases(field: PrimeField, dim: int, order: int, chunk: list, picks: list) -> list:
    """(tensor seeded by w[0], basis) per trial's words w and pick (k, ws), the
    basis random_full_rank_basis draws from ws: the first of _CANDIDATES
    candidates of k vectors of rank k; None if none is or a word is rejected."""
    q, limit = field.p, _limit(field.p)

    def basis(k: int, ws: list[int]) -> Optional[tuple]:
        for c in range(_CANDIDATES):
            cand = ws[c * k * dim:(c + 1) * k * dim]
            if max(cand, default=0) >= limit:
                return None
            cand = tuple(zip(*[iter([w % q for w in cand])] * dim))
            if matrix_rank(field, cand) == k:
                return cand

    tensors = _tensors(field, dim, order, [w[0] for w in chunk])
    return [None if (b := pick and basis(*pick)) is None else (t, b)
            for t, pick in zip(tensors, picks)]


def _universe(field: PrimeField, dim: int, order: int, *, exhaustive: bool = False,
              trials: int = 0, seed: int = 0, pairs: bool = False,
              draw: Optional[Callable[[SplitMix64], object]] = None,
              batch: Optional[tuple[int, Callable[[list], list]]] = None) -> Iterable:
    """The exhaustive cube, or one instance per trial i drawn from substream(seed, i).

    A trial's instance is `draw(stream)`, by default the tensor seeded by
    the stream's first word, or with `pairs` the tensors seeded by its first
    two words.  Default draws are batched; with `batch` (count, build), so
    is `draw`: `build` makes each chunk's instances from the first `count`
    words of each trial, None where `draw` must draw from the stream.
    """
    if exhaustive:
        return all_tensors(field, dim, order)
    if batch:
        count, build = batch
        built = chain.from_iterable(build([flat[j:j + count] for j in range(0, len(flat), count)])
                                    for flat in _trial_words(dim, order, trials, seed, count))
        return (draw(substream(seed, i)) if inst is None else inst for i, inst in enumerate(built))
    if draw:
        return (draw(substream(seed, i)) for i in range(trials))
    per = 2 if pairs else 1
    tensors = chain.from_iterable(_tensors(field, dim, order, flat)
                                  for flat in _trial_words(dim, order, trials, seed, per))
    return (tuple(ts) if pairs else ts[0] for ts in zip(*[tensors] * per))


def _tensor_witness(**tensors) -> dict:
    out = {}
    for name, t in tensors.items():
        if isinstance(t, Tensor):
            out[name] = {"p": t.field.p, "n": t.dim, "d": t.order, "coeffs": list(t.coeffs)}
        else:
            out[name] = t
    return out


# The law table.  LAWS holds the functions themselves, which the benchmark
# tracer wraps here; a universe is the law's keywords plus p, n and d.  The
# defaults are the exhaustive 256-tensor cube and seeded ensembles sized to
# finish on a laptop.
LAWS: dict[str, Callable[..., LawResult]] = {}
LAW_UNIVERSES: dict[str, tuple[tuple[int, int], tuple[dict, ...]]] = {}


def _law(*universes: dict, smallest: tuple[int, int] = (0, 1)):
    """Enter the decorated law `law_<id>` in the table under its id, with each
    underscore of the name read as a dash; the law is returned unchanged."""
    def enter(law: Callable[..., LawResult]) -> Callable[..., LawResult]:
        law_id = law.__name__.removeprefix("law_").replace("_", "-")
        LAWS[law_id] = law
        LAW_UNIVERSES[law_id] = smallest, universes
        return law

    return enter


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


@_law(dict(p=2, n=2, d=3, exhaustive=True),
      dict(p=3, n=2, d=3, trials=10000, disjoint_trials=200))
def law_subadditivity(field: PrimeField, dim: int, order: int, *,
                      exhaustive: bool = False, trials: int = 0, seed: int = 0,
                      disjoint_trials: int = 0,
                      budget: int = DEFAULT_BUDGET) -> LawResult:
    """bias(T+S) >= bias(T) bias(S) on pairs; exact equality on direct sums.

    K is computed once per distinct tensor of the universe: a list by cube
    index for exhaustive pairs, a dict by coefficients for seeded ones.
    Exhaustive pairs are cube indices (i, j), charged to the budget before
    the cube is built; seeded pairs are coefficient rows, summed cell by
    cell, and a chunk's new rows are counted together.  The verdict and
    slack of a pair depend only on its triple (K(t + s), K(t), K(s)), so
    each distinct triple is decided once, and the pairs are walked in order
    only to find the first failing one.  Tensors are built only for K and
    a witness, and a failing pair is replayed from scratch on tensors.
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

    def holds(k_sum: int, k_t: int, k_s: int) -> bool:
        return k_sum * scale >= k_t * k_s

    def slack(k_sum: int, k_t: int, k_s: int) -> float:
        return k_sum / scale - (k_t * k_s) / scale_sq

    def verdict(k_sum: int, k_t: int, k_s: int, pair: Callable[[], tuple]):
        def witness() -> dict:
            t, s = pair()
            return _tensor_witness(t=t, s=s, k_sum=k_sum, k_t=k_t, k_s=k_s)

        return holds(k_sum, k_t, k_s), slack(k_sum, k_t, k_s), witness

    def replay(t: Tensor, s: Tensor) -> bool:
        return holds(fiber(t + s), fiber(t), fiber(s))

    def direct_sum_ok(pair, ks):
        t, s = pair
        return ks[0] == ks[1] * ks[2], None, lambda: _tensor_witness(
            t=t, s=s, note="direct sum not multiplicative")

    if exhaustive:
        _check_dims(dim, order)
        size = universe_size(q, dim, order)
        _check_budget(size ** 2, budget, "exhaustive pairs")
        cube = list(_universe(field, dim, order, exhaustive=True))
        ks = fiber_counts(field, dim, order, [t.coeffs for t in cube], budget)
        index_sum = _index_sum(q)
        pairs, triples = size ** 2, set()
        for i, k_t in enumerate(ks):
            sums = map(ks.__getitem__, map(index_sum, repeat(i, size), range(size)))
            triples.update((k_sum, k_t, k_s) for k_sum, k_s in set(zip(sums, ks)))

        def index_pair_ok(ij):
            i, j = ij
            return verdict(ks[index_sum(i, j)], ks[i], ks[j], lambda: (cube[i], cube[j]))

        walk = partial(tracker.drive, product(range(size), repeat=2), index_pair_ok,
                       lambda ij: replay(cube[ij[0]], cube[ij[1]]))
    else:
        numerators: dict[tuple[int, ...], int] = {}
        k = numerators.__getitem__
        tensor = partial(Tensor._trusted, field, dim, order)

        def row_chunks() -> Iterator[tuple[list, list]]:
            for flat in _trial_words(dim, order, trials, seed, 2):
                chunk = list(zip(*[iter(residue_rows(q, dim ** order, flat))] * 2))
                yield chunk, [tuple([(a + b) % q for a, b in zip(c, d)]) for c, d in chunk]

        def row_pair_ok(item):
            (c, d), row_sum = item
            return verdict(k(row_sum), k(c), k(d), lambda: (tensor(c), tensor(d)))

        pairs, triples = trials, set()
        for chunk, sums in row_chunks():
            fresh = list(set(chain(sums, *chunk)).difference(numerators))
            numerators.update(zip(fresh, fiber_counts(field, dim, order, fresh, budget)))
            triples.update(zip(map(k, sums), *(map(k, rows) for rows in zip(*chunk))))
        walk = partial(tracker.drive, (item for chunk, sums in row_chunks()
                                       for item in zip(chunk, sums)), row_pair_ok,
                       lambda item: replay(tensor(item[0][0]), tensor(item[0][1])))
    if all(holds(*triple) for triple in triples):
        tracker.record(pairs, min((slack(*triple) for triple in triples), default=None))
    else:
        walk()
    if not exhaustive:
        numerators.clear()  # freed before the direct sums' chunks are counted

    notes = ()
    if disjoint_trials:
        equal = tracker.drive_counted(
            _universe(field, dim, order, trials=disjoint_trials, seed=seed ^ 0x5D15, pairs=True),
            lambda pair: (direct_sum(*pair),) + pair, direct_sum_ok, budget)
        notes = (f"direct-sum tightness: {equal}/{disjoint_trials} exact equalities",)
    return tracker.result(notes)


# ---------------------------------------------------------------------------
# Positive correlation of common zero sets
# ---------------------------------------------------------------------------

# Bits in the monomial table of one block of correlation assignments.
_TABLE_BITS = 1 << 22


@lru_cache(maxsize=1)
def _monomial_table(q: int, n: int, d: int, high: tuple[int, ...]) -> tuple[int, list, dict]:
    """The block of assignments with high base-q digits `high`, as a bitmask,
    each monomial's value masks on it (coordinate i of slot s is digit sn + i),
    and an empty memo of zero sets on the block by coefficient row."""
    low = n * d - len(high)
    full = (1 << q ** low) - 1
    digits = digit_masks(q, low) + [[full * (v == h) for v in range(q)] for h in high]
    table = []
    for idx in product(range(n), repeat=d):
        term = [full * (v == 1) for v in range(q)]
        for s, i in enumerate(idx):
            term = combine_masks(term, digits[s * n + i], mul, q)
        table.append(term)
    return full, table, {}


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
        Zero sets are memoized by row in the memo the block's table comes
        with, cleared once its masks hold as many bits as the table.
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
            full, table, memo = _monomial_table(q, n, d, high)
            if len(memo) * full.bit_length() >= _TABLE_BITS:  # its masks hold a table's bits
                memo.clear()
            for row in {t.coeffs for t in self.t_group + self.s_group}.difference(memo):
                values = [full] + [0] * (q - 1)
                for term, c in zip(table, row):
                    if c:  # c * term takes value v where term takes v / c
                        inv = pow(c, -1, q)
                        values = combine_masks(values, [term[v * inv % q] for v in range(q)],
                                               add, q)
                memo[row] = values[0]
            t_zero, s_zero = (reduce(and_, (memo[t.coeffs] for t in group), full)
                              for group in (self.t_group, self.s_group))
            z_t += t_zero.bit_count()
            z_s += s_zero.bit_count()
            z_both += (t_zero & s_zero).bit_count()
        return z_t, z_s, z_both, total

    @property
    def lift_dim(self) -> int:
        """The dimension of :meth:`lifted`: every slot padded to max(m + k, n)."""
        return max(len(self.t_group) + len(self.s_group), self.dim)

    def lifted(self) -> tuple[Tensor, Tensor]:
        """Order-(d+1) tensors with a fresh leading slot selecting the family.

        The T family occupies leading coordinates 0..m-1, the S family
        m..m+k-1; all slots are padded to a common dimension.
        """
        m, lift_dim = len(self.t_group), self.lift_dim
        blocks = (tuple(range(self.dim)),) * self.order  # every slot after the lead

        def lift(group: tuple[Tensor, ...], first: int) -> Tensor:
            coeffs = [0] * lift_dim ** (self.order + 1)
            for lead, t in enumerate(group, first):
                for cell, c in zip(block_cells(lift_dim, ((lead,),) + blocks), t.coeffs):
                    coeffs[cell] = c
            return Tensor._trusted(self.field, lift_dim, self.order + 1, tuple(coeffs))

        return lift(self.t_group, 0), lift(self.s_group, m)


def _lifts(inst: CorrelationInstance) -> tuple[Tensor, Tensor, Tensor]:
    """The lifted sum and the two lifted families, whose K's the bridge reads."""
    lift_t, lift_s = inst.lifted()  # disjoint supports: their sum needs no mod
    return (Tensor._trusted(inst.field, lift_t.dim, lift_t.order,
                            tuple(map(add, lift_t.coeffs, lift_s.coeffs))), lift_t, lift_s)


def _correlation_ok(inst: CorrelationInstance, budget: int,
                    ks=None) -> tuple[bool, float, dict]:
    """The correlation verdict, its slack and details; `ks` are the K's of
    :func:`_lifts`, by default counted by bias_fiber."""
    q, n, d = inst.field.p, inst.dim, inst.order
    z_t, z_s, z_both, total = inst.zero_counts(budget)
    ok = z_both * total >= z_t * z_s
    slack = z_both / total - (z_t * z_s) / (total * total)
    if ks is None:
        ks = _Recount(_lifts(inst), budget)
    lift_dim = inst.lift_dim
    # The counted LHS must equal the lifted-sum bias exactly, and the
    # counted RHS must equal the product of the lifted biases.
    bridge_lhs = ks[0] * q ** (n * d) == z_both * q ** (lift_dim * d)
    bridge_rhs = ks[1] * ks[2] * q ** (2 * n * d) == z_t * z_s * q ** (2 * lift_dim * d)
    details = {"z_t": z_t, "z_s": z_s, "z_both": z_both, "domain": total,
               "bridge_lhs": bridge_lhs, "bridge_rhs": bridge_rhs}
    return ok and bridge_lhs and bridge_rhs, slack, details


@_law(dict(p=2, n=2, d=2, trials=1000))
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
        t_group = tuple(random_tensor(field, dim, order, gen.next_u64()) for _ in range(m))
        s_group = tuple(random_tensor(field, dim, order, gen.next_u64()) for _ in range(k))
        return CorrelationInstance(field, dim, order, t_group, s_group)

    def check(inst: CorrelationInstance, ks):
        ok, slack, details = _correlation_ok(inst, budget, ks)
        return ok, slack, lambda: dict(
            _tensor_witness(**{f"t{j}": t for j, t in enumerate(inst.t_group)},
                            **{f"s{j}": s for j, s in enumerate(inst.s_group)}),
            **details)

    def build(chunk: list) -> list:  # draw's two below words, then its m + k tensor seeds
        limit = _limit(CORRELATION_MAX_EACH)
        sizes = [(1 + w[0] % CORRELATION_MAX_EACH, 1 + w[1] % CORRELATION_MAX_EACH)
                 if max(w[:2]) < limit else None for w in chunk]
        rows = iter(_tensors(field, dim, order, [s for w, mk in zip(chunk, sizes) if mk
                                                 for s in w[2:2 + sum(mk)]]))
        return [mk and CorrelationInstance(field, dim, order, tuple(islice(rows, mk[0])),
                                           tuple(islice(rows, mk[1]))) for mk in sizes]

    tracker.drive_counted(_universe(field, dim, order, trials=trials, seed=seed, draw=draw,
                                    batch=(2 + 2 * CORRELATION_MAX_EACH, build)),
                          _lifts, check, budget)
    return tracker.result()


# ---------------------------------------------------------------------------
# Analytic rank below partition rank
# ---------------------------------------------------------------------------

@_law(dict(p=2, n=2, d=3, exhaustive=True),
      dict(p=3, n=2, d=3, trials=100), smallest=(0, 2))
def law_arank_le_prank(field: PrimeField, dim: int, order: int, *,
                       exhaustive: bool = False, trials: int = 0, seed: int = 0,
                       budget: int = DEFAULT_BUDGET) -> LawResult:
    """Exact partition rank dominates the analytic rank; rank-one bias >= 1/q.

    A nonempty universe also checks rank-one tensors: the cube's tensors of
    exact prank 1, in cube order, or `trials` draws from substream(seed ^
    0x1E51, i) (none at n = 0), each a side A of `_partition_sides`, a
    nonzero A-array a and a nonzero array b on the other slots, with
    a[fa] * b[fb] mod q at each cell's (A, B) position.  A partition rank
    that :func:`rank_exact` gives as an interval raises BudgetExceededError.
    """
    q = field.p
    exponent = dim * (order - 1)
    mode = "exhaustive" if exhaustive else f"random trials={trials} seed={seed}"
    universe = f"{mode} p={q} n={dim} d={order}"
    tracker = _Tracker("arank-le-prank", universe)
    if order < 2:
        raise ValueError(f"{tracker.law} needs order >= 2")
    rank_one: dict[tuple[int, ...], Tensor] = {}  # by row, so a replay adds none
    sides = _partition_sides(order, False)

    def check(t: Tensor, ks):
        report = rank_exact(t, "prank", budget)
        if not report.exact:
            raise BudgetExceededError(f"exact partition rank search exceeded budget {budget}")
        k = ks[0]
        prank = report.value
        if exhaustive and prank == 1:
            rank_one[t.coeffs] = t
        ok = k * q ** prank >= q ** exponent  # bias >= q^-prank, cross-multiplied
        slack = prank - analytic_rank(BiasValue(k, exponent, q)).value
        return ok, slack, lambda: _tensor_witness(t=t, prank=prank, k=k)

    def rank_one_ok(t: Tensor, ks):
        ok = ks[0] * q >= q ** exponent
        return ok, None, lambda: _tensor_witness(t=t, note="rank-one bias below 1/q")

    def draw(gen: SplitMix64) -> Tensor:
        side = sides[gen.below(len(sides))]
        a, b = (next(filter(any, map(gen.residues, repeat(q), repeat(dim ** k))))  # first nonzero
                for k in (len(side), order - len(side)))
        return Tensor._trusted(field, dim, order, tuple(
            [a[fa] * b[fb] % q for fa, fb in _cell_positions(dim, order, side)]))

    tracker.drive_counted(_universe(field, dim, order, exhaustive=exhaustive, trials=trials,
                                    seed=seed), _itself, check, budget)
    if not (exhaustive or trials):
        return tracker.result()
    tensors = rank_one.values() if exhaustive else list(_universe(
        field, dim, order, trials=trials if dim else 0, seed=seed ^ 0x1E51, draw=draw))
    held = tracker.drive_counted(tensors, _itself, rank_one_ok, budget)
    return tracker.result((f"rank-one tensors with bias >= 1/q: {held}/{len(tensors)}",))


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


@_law(dict(p=2, n=2, d=3, exhaustive=True),
      dict(p=2, n=3, d=3, trials=1000), smallest=(0, 2))
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

    def check(t: Tensor, ks):
        indep = max_independent_set(t, budget)
        size = len(indep)
        k = ks[0]
        ok = _indep_ok_exact(k, q, dim, order, size) and _indep_ok_stated(k, q, dim, order, size)
        slack = analytic_rank(BiasValue(k, exponent, q)).value - constant * size
        return ok, slack, lambda: _tensor_witness(t=t, independent_set=list(indep), k=k)

    def diagonal(diag: tuple[int, ...]) -> tuple[Tensor]:
        return (diagonal_tensor(field, order, diag),)

    def closed_form_ok(diag: tuple[int, ...], ks):
        expected = diagonal_bias_numerator(q, dim, order, sum(1 for c in diag if c))
        k = ks[0]
        return k == expected, None, lambda: _tensor_witness(t=diagonal(diag)[0], k=k,
                                                            expected=expected)

    def identity_ok(t: Tensor, ks):
        k = ks[0]
        ok = (k == diagonal_bias_numerator(q, dim, order, dim)
              and len(max_independent_set(t, budget)) == dim)
        return ok, None, lambda: _tensor_witness(t=t, k=k)

    tracker.drive_counted(_universe(field, dim, order, exhaustive=exhaustive, trials=trials,
                                    seed=seed), _itself, check, budget)
    if not (exhaustive or trials > 0):
        return tracker.result()
    diag_ok = tracker.drive_counted(_universe(field, dim, order, trials=DIAGONAL_TRIALS,
                                              seed=seed ^ 0xD1A6,
                                              draw=lambda gen: gen.residues(q, dim)),
                                    diagonal, closed_form_ok, budget)
    tracker.drive_counted([identity_tensor(field, dim, order)], _itself, identity_ok, budget)
    notes = (f"diagonal closed form exact on {diag_ok}/{DIAGONAL_TRIALS} draws plus identity",)
    return tracker.result(notes)


# ---------------------------------------------------------------------------
# Restriction monotonicity
# ---------------------------------------------------------------------------

@_law(dict(p=2, n=3, d=3, trials=500),
      dict(p=3, n=2, d=3, trials=500), smallest=(1, 1))
def law_restriction_monotone(field: PrimeField, dim: int, order: int, *,
                             trials: int, seed: int = 0,
                             budget: int = DEFAULT_BUDGET) -> LawResult:
    """bias does not decrease under restriction to a subspace.

    Each trial restricts to a random subspace; the first tenth of the
    trials (at least one) also restrict to every coordinate subspace, which
    selects the sub-tensor's cells (:func:`block_cells`) and contracts nothing.
    """
    q = field.p
    universe = f"random restrictions p={q} n={dim} d={order} trials={trials} seed={seed}"
    tracker = _Tracker("restriction-monotone", universe)

    def draw(gen: SplitMix64):
        t = random_tensor(field, dim, order, gen.next_u64())
        return t, random_full_rank_basis(field, dim, 1 + gen.below(dim), gen)

    def build(chunk: list) -> list:  # draw's tensor seed, below word and basis candidates
        limit = _limit(dim)
        return _bases(field, dim, order, chunk, [(1 + w[1] % dim, w[2:]) if w[1] < limit else None
                                                 for w in chunk])

    def check(inst, ks):
        t, span = inst  # a basis, or the sorted coordinates of a coordinate subspace
        b_t = BiasValue(ks[0], dim * (order - 1), q)
        b_sub = BiasValue(ks[1], len(span) * (order - 1), q)
        where = {"subset": list(span)} if type(span[0]) is int else {"basis": list(map(list, span))}
        return b_sub >= b_t, b_sub.to_float() - b_t.to_float(), lambda: _tensor_witness(
            t=t, **where)

    def select(inst):  # the restriction to a coordinate subspace selects its cells
        t, subset = inst
        cells = map(t.coeffs.__getitem__, block_cells(dim, (subset,) * order))
        return t, Tensor._trusted(field, len(subset), order, tuple(cells))

    draws = list(_universe(field, dim, order, trials=trials, seed=seed, draw=draw,
                           batch=(2 + _CANDIDATES * dim * dim, build)))
    subsets = [subset for size in range(1, dim + 1) for subset in combinations(range(dim), size)]
    tracker.drive_counted(draws, lambda inst: (inst[0], _contract(*inst)), check, budget)
    tracker.drive_counted(((t, subset) for t, _ in draws[:max(1, trials // 10)]
                           for subset in subsets), select, check, budget)
    return tracker.result()


# ---------------------------------------------------------------------------
# Multi-component bound: |bias(R)| <= bias of the full component
# ---------------------------------------------------------------------------

@_law(dict(p=2, n=2, d=3, trials=500), dict(p=3, n=2, d=2, trials=200))
def law_lemma_bias(field: PrimeField, dim: int, order: int, *,
                   trials: int, seed: int = 0,
                   budget: int = DEFAULT_BUDGET) -> LawResult:
    """|bias(sum of subset components)| <= bias of the top component."""
    universe = f"random multiforms p={field.p} n={dim} d={order} trials={trials} seed={seed}"
    tracker = _Tracker("lemma-bias", universe)

    def check(form, ks):
        result = bias_multiform(form, budget)
        top = BiasValue(ks[0], dim * (order - 1), field.p)
        if result.exact is not None:
            ok = abs(result.exact) <= top.as_fraction()
            slack = float(top.as_fraction() - abs(result.exact))
        else:
            ok = result.magnitude <= top.to_float() + LEMMA_BIAS_TOL
            slack = top.to_float() - result.magnitude
        return ok, slack, lambda: _tensor_witness(
            top=form.top(),
            components={str(sorted(k)): list(v.coeffs) for k, v in form.components.items()})

    def build(chunk: list) -> list:  # each form's seed, then random_multiform's sub-seeds
        subsets = [frozenset(i for i in range(order) if bits >> i & 1)
                   for bits in range(1 << order)]
        seeds = words([w[0] for w in chunk], len(subsets))
        columns = [_tensors(field, dim, len(subset), seeds[j::len(subsets)])
                   for j, subset in enumerate(subsets)]
        return [MultiComponentForm(field, dim, order, dict(zip(subsets, components)))
                for components in zip(*columns)]

    tracker.drive_counted(_universe(field, dim, order, trials=trials, seed=seed, batch=(1, build)),
                          lambda form: (form.top(),), check, budget)
    return tracker.result()


# ---------------------------------------------------------------------------
# Basis invariance of bias
# ---------------------------------------------------------------------------

@_law(dict(p=3, n=2, d=3, trials=200),
      dict(p=2, n=3, d=3, trials=200))
def law_basis_invariance(field: PrimeField, dim: int, order: int, *,
                         trials: int, seed: int = 0,
                         budget: int = DEFAULT_BUDGET) -> LawResult:
    """Composing every slot with one invertible map preserves bias exactly."""
    universe = f"random changes of basis p={field.p} n={dim} d={order} trials={trials} seed={seed}"
    tracker = _Tracker("basis-invariance", universe)

    def draw(gen: SplitMix64):
        t = random_tensor(field, dim, order, gen.next_u64())
        return t, random_full_rank_basis(field, dim, dim, gen)

    def check(inst, ks):
        t, basis = inst
        return ks[0] == ks[1], None, lambda: _tensor_witness(t=t, basis=[list(v) for v in basis])

    def build(chunk: list) -> list:  # draw's tensor seed, then its basis candidates
        return _bases(field, dim, order, chunk, [(dim, w[1:]) for w in chunk])

    tracker.drive_counted(_universe(field, dim, order, trials=trials, seed=seed, draw=draw,
                                    batch=(1 + _CANDIDATES * dim * dim, build)),
                          lambda inst: (_contract(*inst), inst[0]), check, budget)
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

    The identity family changes dimension from row to row.  A row whose
    partition rank :func:`rank_exact` gives as an interval reports it,
    and a row of infinite analytic rank (bias 0) has no ratio.
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
        if report.exact and 0 < ar < inf:
            ratio = report.value / ar
            if max_ratio is None or ratio > max_ratio:
                max_ratio = ratio
        rows.append(SurveyRow(label, ar, report.lower, report.upper, report.exact, ratio))
    return SurveyReport(universe, tuple(rows), max_ratio)
