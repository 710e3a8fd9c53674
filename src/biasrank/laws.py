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
before it is reported, and seeded runs are bit-reproducible.  Each seeded
law writes its draw once, over a chunk of _CHUNK trials: trial i reads
substream(seed, i) as an :class:`rng.Prefetched`, whose first words the
chunk reads in one :func:`rng.words` call and whose later ones, past a
rejected word or a basis candidate of too low a rank, come from the stream
itself.  The draw reads its tensor seeds from the chunk's streams and gets
their rows from one :func:`rng.residue_cells` call (bytes below p = 257, a
tuple above), and draws a basis with gf.random_full_rank_basis; the default
draw is trial i's tensor seeded by the first word of substream(seed, i).

An instance stays rows from the draw to the verdict: correlation's families
and lifts, lemma-bias's forms, the restrictions (contracted on cells, or
cells selected) and the direct sums (placed by :func:`tensor.placed`).  A
Tensor is built only where a Tensor API reads it (rank_exact,
max_independent_set) or for a witness and its replay.  Laws read their bias
numerators K a chunk of _CHUNK instances at a time
(:meth:`_Tracker.drive_counted`): the chunk's rows are grouped by length
and each group is counted by one :func:`bias.fiber_counts` call, whose rows
share a walk.  A failing instance is replayed with bias_fiber one tensor at
a time, so a fault that only batched counts make cannot replay.

Subadditivity keeps one K per distinct tensor of its universe and decides
each distinct triple (K(t + s), K(t), K(s)) once.  Its exhaustive pairs
are indices into the cube in `all_tensors` order, charged to the budget
before the cube is built: the index of t + s is i ^ j at p = 2 and the
digitwise sum mod p otherwise.  Its seeded pairs are rows
(:func:`_row_pairs`), K memoized by row.  Either way the pairs are walked
one by one only to find the first that fails.

arank-le-prank takes partition rank from :func:`ranks.rank_exact` and
raises BudgetExceededError where that gives an interval.  It also checks
rank-one tensors: on an exhaustive universe, the cube's tensors of exact
partition rank 1, which are every rank-one array of the shape; on a seeded
one, as many seeded rank-one tensors as trials, drawn from a substream of
their own.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache, partial, reduce
from itertools import chain, combinations, groupby, islice, product, repeat
from operator import add, and_, mul, xor
from typing import Callable, Iterable, Iterator, Optional

from .bias import (
    DEFAULT_BUDGET,
    BiasValue,
    BudgetExceededError,
    _check_budget,
    _multiform_bias,
    analytic_rank,
    bias_fiber,
    c_constant,
    diagonal_bias_numerator,
    fiber_counts,
)
from .gf import PrimeField, combine_masks, digit_masks, mod_table, random_full_rank_basis
from .ranks import _cell_positions, _partition_sides, max_independent_set, rank_exact
from .rng import Prefetched, SplitMix64, residue_cells, substream_seed, words
from .tensor import (
    Tensor,
    _check_dims,
    all_tensors,
    block_cells,
    contracted,
    diagonal_tensor,
    identity_tensor,
    placed,
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
        return dict(asdict(self), notes=list(self.notes))


class _Tracker:
    """Accumulates check count, minimum slack, and a replayed witness."""

    def __init__(self, law: str, universe: str):
        self.law, self.universe, self.checked = law, universe, 0
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
                      check: Callable[[object, list], tuple], field: PrimeField, order: int,
                      budget: int) -> int:
        """:meth:`drive` where `check(instance, ks)` reads the K of each order-`order` row
        of `parts(instance)` over `field`, ks[i] for the i-th, counted by :func:`_counted`.

        A failure is replayed by `check` with every K recounted by bias_fiber,
        one tensor at a time, so a count that goes wrong only in a batch
        does not replay.
        """
        return self.drive(_counted(instances, parts, field, order, budget),
                          lambda item: check(*item), lambda item: check(
                              item[0], _Recount(parts(item[0]), field, order, budget))[0])

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


def _tensor(field: PrimeField, order: int, row) -> Tensor:
    """The order-`order` tensor (order >= 1) whose coefficients are the row."""
    return Tensor._trusted(field, round(len(row) ** (1 / order)), order, tuple(row))


class _Recount:
    """K of each row by bias_fiber, one tensor at a time, when read."""

    def __init__(self, rows: tuple, field: PrimeField, order: int, budget: int):
        self.rows, self.field, self.order, self.budget = rows, field, order, budget

    def __getitem__(self, i: int) -> int:
        return bias_fiber(_tensor(self.field, self.order, self.rows[i]), self.budget).numerator


def _counted(instances: Iterable, parts: Callable[[object], tuple], field: PrimeField,
             order: int, budget: int) -> Iterator[tuple[object, object]]:
    """(instance, K of each row of parts(instance)) for every instance.

    The rows of _CHUNK instances are counted by one fiber_counts call per length (a
    dimension), each distinct row once.  Where a walk is over the budget, the chunk's
    K's are read from bias_fiber one tensor at a time (:class:`_Recount`), so the
    refusal comes where the law reads that K, after any refusal the law makes first.
    """
    instances = iter(instances)
    while chunk := list(islice(instances, _CHUNK)):
        rows = [parts(inst) for inst in chunk]
        known = dict.fromkeys(chain.from_iterable(rows))
        try:
            for cells, group in groupby(sorted(known, key=len), len):
                group = list(group)
                dim = round(cells ** (1 / order))
                known.update(zip(group, fiber_counts(field, dim, order, group, budget)))
        except BudgetExceededError:
            yield from zip(chunk, (_Recount(rs, field, order, budget) for rs in rows))
            continue
        yield from zip(chunk, ([known[r] for r in rs] for rs in rows))


def _coeffs(t: Tensor) -> tuple:
    return (t.coeffs,)


# Trials whose words and residues are drawn, and instances whose K's are counted, in one batch.
_CHUNK = 64


def _trial_words(dim: int, order: int, trials: int, seed: int, count: int) -> Iterator[tuple]:
    """The seeds of substream(seed, i) for every trial i and their first
    `count` words, trial by trial, _CHUNK trials at a time."""
    for start in range(0, trials, _CHUNK):
        _check_dims(dim, order)  # random_tensor's check, made wherever it would draw
        seeds = [substream_seed(seed, i) for i in range(start, min(start + _CHUNK, trials))]
        yield seeds, words(seeds, count)


def _rows(q: int, cells: int, seeds: list[int]) -> list:
    """random_tensor's coefficients seeded by each seed, rows of one residue_cells buffer."""
    flat = residue_cells(q, cells, seeds)
    return [flat[i * cells:(i + 1) * cells] for i in range(len(seeds))]


def _tensors(field: PrimeField, dim: int, order: int, gens: list) -> list:
    """The default draw: the tensor seeded by each generator's next word."""
    return [Tensor._trusted(field, dim, order, tuple(row))
            for row in _rows(field.p, dim ** order, [gen.next_u64() for gen in gens])]


def _universe(field: PrimeField, dim: int, order: int, *, exhaustive: bool = False,
              trials: int = 0, seed: int = 0, draw: Optional[Callable[[list], Iterable]] = None,
              ahead: int = 1) -> Iterable:
    """The exhaustive cube, or one instance per trial i drawn from substream(seed, i).

    `draw(gens)` makes the instances of a chunk of _CHUNK trials, one per generator: trial
    i's is substream(seed, i) as an rng.Prefetched, whose first `ahead` words the chunk
    reads in one rng.words call.  The default draw is :func:`_tensors`.
    """
    if exhaustive:
        return all_tensors(field, dim, order)
    draw = draw or partial(_tensors, field, dim, order)
    return chain.from_iterable(
        draw([Prefetched(s, flat[j * ahead:(j + 1) * ahead]) for j, s in enumerate(seeds)])
        for seeds, flat in _trial_words(dim, order, trials, seed, ahead))


def _row_pairs(q: int, dim: int, order: int, trials: int, seed: int) -> Iterator[list]:
    """Each chunk's rows of t, s and t + s, trial i's t and s seeded by the first two words
    of substream(seed, i): slices of one residue_cells buffer, t half then s half; below
    p = 129 the t + s rows are one big-int add of the halves and a translate mod p."""
    cells = dim ** order
    for _, flat in _trial_words(dim, order, trials, seed, 2):
        buf, starts = residue_cells(q, cells, flat[::2] + flat[1::2]), range(len(flat) // 2)
        ts, ss = buf[:len(buf) // 2], buf[len(buf) // 2:]
        if type(buf) is bytes and q <= 128:  # one big-int add; each sum fits in a byte
            sums = (int.from_bytes(ts, "little") + int.from_bytes(ss, "little")).to_bytes(
                len(ts), "little").translate(mod_table(q))
        else:
            sums = type(ts)([(a + b) % q for a, b in zip(ts, ss)])
        yield [[rows[i * cells:(i + 1) * cells] for i in starts] for rows in (ts, ss, sums)]


def _tensor_witness(**values) -> dict:
    return {name: {"p": t.field.p, "n": t.dim, "d": t.order, "coeffs": list(t.coeffs)}
            if isinstance(t, Tensor) else t for name, t in values.items()}


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
    index for exhaustive pairs, a dict by row for seeded ones (see the module
    docstring).  The verdict and slack of a pair depend only on its triple
    (K(t + s), K(t), K(s)), so each distinct triple is decided once; a
    failing pair is replayed from scratch on tensors.  The direct sums are
    placed from seeded row pairs.
    """
    q = field.p
    exponent = dim * (order - 1)
    scale, scale_sq = q ** exponent, q ** (2 * exponent)
    tensor = partial(_tensor, field, order)
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
        return ks[0] == ks[1] * ks[2], None, lambda: _tensor_witness(
            t=tensor(pair[0]), s=tensor(pair[1]), note="direct sum not multiplicative")

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
        numerators: dict = {}  # by row: bytes, or a tuple above p = 256
        k = numerators.__getitem__

        def row_pair_ok(item):
            t, s, row_sum = item
            return verdict(k(row_sum), k(t), k(s), lambda: (tensor(t), tensor(s)))

        pairs, triples = trials, set()
        for ts, ss, row_sums in _row_pairs(q, dim, order, trials, seed):
            fresh = list(set(chain(row_sums, ts, ss)).difference(numerators))
            numerators.update(zip(fresh, fiber_counts(field, dim, order, fresh, budget)))
            triples.update(zip(map(k, row_sums), map(k, ts), map(k, ss)))
        walk = partial(tracker.drive, chain.from_iterable(
            zip(*chunk) for chunk in _row_pairs(q, dim, order, trials, seed)),
            row_pair_ok, lambda item: replay(tensor(item[0]), tensor(item[1])))
    if all(holds(*triple) for triple in triples):
        tracker.record(pairs, min((slack(*triple) for triple in triples), default=None))
    else:
        walk()
    if not exhaustive:
        numerators.clear()  # freed before the direct sums' chunks are counted

    notes = ()
    if disjoint_trials:
        blocks = tuple((tuple(range(start, start + dim)),) * order for start in (0, dim))
        equal = tracker.drive_counted(
            chain.from_iterable(zip(ts, ss) for ts, ss, _ in _row_pairs(
                q, dim, order, disjoint_trials, seed ^ 0x5D15)),
            lambda pair: (placed(2 * dim, blocks, pair),) + pair, direct_sum_ok, field, order,
            budget)
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


def _zero_counts(q: int, n: int, d: int, groups: tuple, budget: int,
                 lifted: bool = False) -> tuple[int, int, int, int]:
    """(#common zeros of the rows of groups[0], of groups[1], of both, domain size): a zero
    set bitmask per row and block of assignments, as large as a monomial table of _TABLE_BITS
    bits allows, and popcounts.  The budget is charged the assignments, then, where several
    blocks each build their table again, the (d + rows) n^d q^2 mask products of all, then,
    where `lifted`, the fiber walk of the :func:`_lifted` K's, which their shape fixes.  Zero
    sets are memoized by row with the block's table, cleared once they hold a table's bits."""
    total = q ** (n * d)
    _check_budget(total, budget, "correlation counting")
    low = n * d
    while low and q ** (low + 1) * n ** d > _TABLE_BITS:
        low -= 1
    rows = set(chain(*groups))
    blocks = q ** (n * d - low)
    _check_budget((blocks > 1) * blocks * (d + len(rows)) * n ** d * q * q, budget,
                  "correlation tables")
    if lifted:
        _check_budget(q ** (max(len(groups[0]) + len(groups[1]), n) * d), budget,
                      "zero-fiber enumeration")
    z_t = z_s = z_both = 0
    for high in product(range(q), repeat=n * d - low):
        full, table, memo = _monomial_table(q, n, d, high)
        if len(memo) * full.bit_length() >= _TABLE_BITS:  # its masks hold a table's bits
            memo.clear()
        for row in rows.difference(memo):
            values = [full] + [0] * (q - 1)
            for term, c in zip(table, row):
                if c:  # c * term takes value v where term takes v / c
                    inv = pow(c, -1, q)
                    values = combine_masks(values, [term[v * inv % q] for v in range(q)], add, q)
            memo[row] = values[0]
        t_zero, s_zero = (reduce(and_, map(memo.__getitem__, group), full) for group in groups)
        z_t += t_zero.bit_count()
        z_s += s_zero.bit_count()
        z_both += (t_zero & s_zero).bit_count()
    return z_t, z_s, z_both, total


def _lifted(n: int, d: int, groups: tuple) -> tuple:
    """The rows of :meth:`CorrelationInstance.lifted`'s sum and of its two tensors: each
    row of the families in turn placed under its own lead coordinate."""
    m, k = len(groups[0]), len(groups[1])
    size = max(m + k, n)
    lifted = placed(size, ((tuple(range(m + k)),) + (tuple(range(n)),) * d,), groups[0] + groups[1])
    cut, zero = m * size ** d, type(lifted)((0,))
    return lifted, lifted[:cut] + zero * (len(lifted) - cut), zero * cut + lifted[cut:]


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

    @property
    def rows(self) -> tuple:
        """The coefficients of each family, the instance as the law draws it."""
        return tuple(tuple(t.coeffs for t in group) for group in (self.t_group, self.s_group))

    def zero_counts(self, budget: int = DEFAULT_BUDGET) -> tuple[int, int, int, int]:
        """(#common zeros of T, of S, of both, domain size), by :func:`_zero_counts`."""
        return _zero_counts(self.field.p, self.dim, self.order, self.rows, budget)

    def lifted(self) -> tuple[Tensor, Tensor]:
        """Order-(d+1) tensors with a fresh leading slot selecting the family: the T family
        on leading coordinates 0..m-1, the S family on m..m+k-1, every slot padded to
        max(m + k, n)."""
        lifts = _lifted(self.dim, self.order, self.rows)[1:]
        return tuple(_tensor(self.field, self.order + 1, row) for row in lifts)


def _correlation_ok(field: PrimeField, n: int, d: int, groups: tuple, budget: int,
                    ks=None) -> tuple[bool, float, dict]:
    """The correlation verdict on the families' rows, its slack and details; `ks`
    are the K's of :func:`_lifted`, by default counted by bias_fiber."""
    q = field.p
    z_t, z_s, z_both, total = _zero_counts(q, n, d, groups, budget, lifted=True)
    ok = z_both * total >= z_t * z_s
    slack = z_both / total - (z_t * z_s) / (total * total)
    if ks is None:
        ks = _Recount(_lifted(n, d, groups), field, d + 1, budget)
    lift_dim = max(len(groups[0]) + len(groups[1]), n)
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
    """Common zeros of two tensor families, each a tuple of rows, are positively correlated."""
    q, cells = field.p, dim ** order
    universe = (f"random families p={q} n={dim} d={order} "
                f"sizes<={CORRELATION_MAX_EACH} trials={trials} seed={seed}")
    tracker = _Tracker("correlation", universe)

    def draw(gens: list) -> list:  # each trial's two family sizes, then its m + k tensor seeds
        sizes = [[1 + gen.below(CORRELATION_MAX_EACH) for _ in range(2)] for gen in gens]
        rows = iter(_rows(q, cells, [gen.next_u64() for gen, mk in zip(gens, sizes)
                                     for _ in range(sum(mk))]))
        return [tuple(tuple(islice(rows, size)) for size in mk) for mk in sizes]

    def check(groups: tuple, ks):
        ok, slack, details = _correlation_ok(field, dim, order, groups, budget, ks)
        return ok, slack, lambda: dict(_tensor_witness(**{
            f"{name}{j}": _tensor(field, order, row)
            for name, group in zip("ts", groups) for j, row in enumerate(group)}), **details)

    tracker.drive_counted(_universe(field, dim, order, trials=trials, seed=seed, draw=draw,
                                    ahead=2 + 2 * CORRELATION_MAX_EACH),
                          partial(_lifted, dim, order), check, field, order + 1, budget)
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
    rank_ones: dict[tuple[int, ...], Tensor] = {}  # by row, so a replay adds none
    sides = _partition_sides(order, False)

    def check(t: Tensor, ks):
        report = rank_exact(t, "prank", budget)
        if not report.exact:
            raise BudgetExceededError(f"exact partition rank search exceeded budget {budget}")
        k = ks[0]
        prank = report.value
        if exhaustive and prank == 1:
            rank_ones[t.coeffs] = t
        ok = k * q ** prank >= q ** exponent  # bias >= q^-prank, cross-multiplied
        slack = prank - analytic_rank(BiasValue(k, exponent, q)).value
        return ok, slack, lambda: _tensor_witness(t=t, prank=prank, k=k)

    def rank_one_ok(t: Tensor, ks):
        ok = ks[0] * q >= q ** exponent
        return ok, None, lambda: _tensor_witness(t=t, note="rank-one bias below 1/q")

    def rank_one(gen: SplitMix64) -> Tensor:
        side = sides[gen.below(len(sides))]
        a, b = (next(filter(any, map(gen.residues, repeat(q), repeat(dim ** k))))  # first nonzero
                for k in (len(side), order - len(side)))
        return Tensor._trusted(field, dim, order, tuple(
            [a[fa] * b[fb] % q for fa, fb in _cell_positions(dim, order, side)]))

    tracker.drive_counted(_universe(field, dim, order, exhaustive=exhaustive, trials=trials,
                                    seed=seed), _coeffs, check, field, order, budget)
    if not (exhaustive or trials):
        return tracker.result()
    # a rank-one draw reads its side's word, then dim^|A| + dim^(d - |A|) <= dim + dim^(d - 1)
    # residues for a and b where none is rejected and neither is zero
    tensors = rank_ones.values() if exhaustive else list(_universe(
        field, dim, order, trials=trials if dim else 0, seed=seed ^ 0x1E51,
        draw=partial(map, rank_one), ahead=1 + dim + dim ** (order - 1)))
    held = tracker.drive_counted(tensors, _coeffs, rank_one_ok, field, order, budget)
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

    def diagonal(diag: tuple[int, ...]) -> Tensor:
        return diagonal_tensor(field, order, diag)

    def closed_form_ok(diag: tuple[int, ...], ks):
        expected = diagonal_bias_numerator(q, dim, order, sum(1 for c in diag if c))
        k = ks[0]
        return k == expected, None, lambda: _tensor_witness(t=diagonal(diag), k=k,
                                                            expected=expected)

    def identity_ok(t: Tensor, ks):
        k = ks[0]
        ok = (k == diagonal_bias_numerator(q, dim, order, dim)
              and len(max_independent_set(t, budget)) == dim)
        return ok, None, lambda: _tensor_witness(t=t, k=k)

    tracker.drive_counted(_universe(field, dim, order, exhaustive=exhaustive, trials=trials,
                                    seed=seed), _coeffs, check, field, order, budget)
    if not (exhaustive or trials > 0):
        return tracker.result()
    diag_ok = tracker.drive_counted(_universe(field, dim, order, trials=DIAGONAL_TRIALS,
                                              seed=seed ^ 0xD1A6,
                                              draw=lambda gens: [gen.residues(q, dim)
                                                                 for gen in gens], ahead=dim),
                                    lambda diag: _coeffs(diagonal(diag)), closed_form_ok,
                                    field, order, budget)
    tracker.drive_counted([identity_tensor(field, dim, order)], _coeffs, identity_ok, field,
                          order, budget)
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

    def draw(gens: list) -> list:  # each trial's tensor seed, then the basis's dimension, then it
        rows = _rows(q, dim ** order, [gen.next_u64() for gen in gens])
        return [(t, random_full_rank_basis(field, dim, 1 + gen.below(dim), gen))
                for t, gen in zip(rows, gens)]

    def check(inst, ks):  # ks: the restriction's K, then t's
        t, span = inst  # a basis, or the sorted coordinates of a coordinate subspace
        b_t = BiasValue(ks[1], dim * (order - 1), q)
        b_sub = BiasValue(ks[0], len(span) * (order - 1), q)
        where = {"subset": list(span)} if type(span[0]) is int else {"basis": list(map(list, span))}
        return b_sub >= b_t, b_sub.to_float() - b_t.to_float(), lambda: _tensor_witness(
            t=_tensor(field, order, t), **where)

    def select(inst):  # the restriction to a coordinate subspace selects its cells
        t, subset = inst
        return type(t)(map(t.__getitem__, block_cells(dim, (subset,) * order))), t

    draws = list(_universe(field, dim, order, trials=trials, seed=seed, draw=draw,
                           ahead=2 + 2 * dim * dim))  # two candidates' words read ahead
    subsets = [subset for size in range(1, dim + 1) for subset in combinations(range(dim), size)]
    tracker.drive_counted(draws, lambda inst: (contracted(q, dim, order, *inst), inst[0]), check,
                          field, order, budget)
    tracker.drive_counted(((t, subset) for t, _ in draws[:max(1, trials // 10)]
                           for subset in subsets), select, check, field, order, budget)
    return tracker.result()


# ---------------------------------------------------------------------------
# Multi-component bound: |bias(R)| <= bias of the full component
# ---------------------------------------------------------------------------

@_law(dict(p=2, n=2, d=3, trials=500), dict(p=3, n=2, d=2, trials=200))
def law_lemma_bias(field: PrimeField, dim: int, order: int, *,
                   trials: int, seed: int = 0,
                   budget: int = DEFAULT_BUDGET) -> LawResult:
    """|bias(sum of subset components)| <= bias of the top component; a form is {slots: row}."""
    universe = f"random multiforms p={field.p} n={dim} d={order} trials={trials} seed={seed}"
    tracker = _Tracker("lemma-bias", universe)
    subsets = [frozenset(i for i in range(order) if bits >> i & 1) for bits in range(1 << order)]

    def check(form, ks):
        result = _multiform_bias(field, dim, order, form.items(), budget)
        top = BiasValue(ks[0], dim * (order - 1), field.p)
        if result.exact is not None:
            gap = top.as_fraction() - abs(result.exact)
            ok, slack = gap >= 0, float(gap)
        else:
            ok = result.magnitude <= top.to_float() + LEMMA_BIAS_TOL
            slack = top.to_float() - result.magnitude
        return ok, slack, lambda: _tensor_witness(
            top=_tensor(field, order, form[subsets[-1]]),
            components={str(sorted(k)): list(row) for k, row in form.items() if any(row)})

    def draw(gens: list) -> list:  # each form's seed, then random_multiform's sub-seeds
        seeds = words([gen.next_u64() for gen in gens], len(subsets))
        columns = [_rows(field.p, dim ** len(subset), seeds[j::len(subsets)])
                   for j, subset in enumerate(subsets)]
        return [dict(zip(subsets, rows)) for rows in zip(*columns)]

    tracker.drive_counted(_universe(field, dim, order, trials=trials, seed=seed, draw=draw),
                          lambda form: (form[subsets[-1]],), check, field, order, budget)
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

    def draw(gens: list) -> list:  # each trial's tensor seed, then its basis
        rows = _rows(field.p, dim ** order, [gen.next_u64() for gen in gens])
        return [(t, random_full_rank_basis(field, dim, dim, gen)) for t, gen in zip(rows, gens)]

    def check(inst, ks):
        t, basis = inst
        return ks[0] == ks[1], None, lambda: _tensor_witness(t=_tensor(field, order, t),
                                                             basis=[list(v) for v in basis])

    tracker.drive_counted(_universe(field, dim, order, trials=trials, seed=seed, draw=draw,
                                    ahead=1 + 2 * dim * dim),  # two candidates' words read ahead
                          lambda inst: (contracted(field.p, dim, order, *inst), inst[0]), check,
                          field, order, budget)
    return tracker.result()
