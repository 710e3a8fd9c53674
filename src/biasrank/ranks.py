"""Exact and bounded tensor / slice / partition rank, and independent sets.

Exact ranks are found by iterative deepening over sums of rank-one
candidate terms against the residual tensor.  Candidates are normalized
projectively (first nonzero coordinate of each free factor scaled to 1,
the remaining factor absorbs scalars) and deduplicated by coefficient
array; at each search node the chosen candidate must be nonzero at the
residual's first lexicographic nonzero coefficient, which is a complete
pruning rule.  Every returned decomposition is re-summed and verified
before it leaves this module.

The search space is tiny-instance only by design; when the candidate
space or the node budget runs out, an interval [analytic-rank ceiling,
greedy upper bound] is returned instead, exact only if the two meet.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Optional, Sequence

from .bias import DEFAULT_BUDGET, arank_ceil, bias_fiber
from .gf import PrimeField, matrix_rank
from .tensor import Tensor, from_entries, zero_tensor

KINDS = ("rank", "srank", "prank")

# Feasibility envelope for exact search: the candidate space must stay below
# this many rank-one tensors.  Admits (p=2, n<=2, d<=4) and (p=3, n=2, d=3);
# anything larger falls back to certified bounds.
MAX_SEARCH_CANDIDATES = 50_000


class BudgetError(RuntimeError):
    """Search-space budget exhausted; exact search is not attempted."""


@dataclass(frozen=True)
class RankOneTerm:
    """One summand of a decomposition.

    For `rank` the factors are d linear forms whose product the term is.
    For `srank`/`prank` the factors are two tensors on the slot sets
    (slots_a, complement); slice terms have a singleton slots_a.
    """

    kind: str
    slots_a: Optional[tuple[int, ...]]
    factors: tuple
    tensor: Tensor

    def expand(self) -> Tensor:
        return self.tensor


@dataclass(frozen=True)
class RankReport:
    kind: str
    lower: int
    upper: int
    exact: bool
    certificate: Optional[tuple[RankOneTerm, ...]]
    lower_source: str
    upper_source: str

    @property
    def value(self) -> int:
        if not self.exact:
            raise ValueError("rank was not computed exactly")
        return self.lower


def _verify_certificate(t: Tensor, terms: Sequence[RankOneTerm]):
    total = zero_tensor(t.field, t.dim, t.order)
    for term in terms:
        total = total + term.expand()
    if total != t:
        raise AssertionError("decomposition does not re-sum to the tensor")


# ---------------------------------------------------------------------------
# Candidate generation
# ---------------------------------------------------------------------------

def _nonzero_vectors(field: PrimeField, length: int):
    for v in product(field.elements(), repeat=length):
        if any(v):
            yield v


def _projective_vectors(field: PrimeField, length: int):
    """Nonzero coefficient arrays whose first nonzero entry is 1."""
    for v in _nonzero_vectors(field, length):
        first = next(x for x in v if x)
        if first == 1:
            yield v


def _outer_product(field: PrimeField, vectors: Sequence[Sequence[int]]) -> tuple[int, ...]:
    p = field.p
    coeffs = [1]
    for vec in vectors:
        coeffs = [(c * x) % p for c in coeffs for x in vec]
    return tuple(coeffs)


def _merge_product(field, dim, order, slots_a, arr_a, arr_b) -> tuple[int, ...]:
    """Coefficients of T1(x^A) * T2(x^B) as a full order-d array."""
    p = field.p
    slots_b = tuple(s for s in range(order) if s not in slots_a)
    coeffs = [0] * (dim ** order)
    len_b = dim ** len(slots_b)
    for fa, ca in enumerate(arr_a):
        if not ca:
            continue
        idx_a = []
        f = fa
        for _ in slots_a:
            idx_a.append(f % dim)
            f //= dim
        idx_a.reverse()
        for fb in range(len_b):
            cb = arr_b[fb]
            if not cb:
                continue
            idx_b = []
            f = fb
            for _ in slots_b:
                idx_b.append(f % dim)
                f //= dim
            idx_b.reverse()
            idx = [0] * order
            for s, i in zip(slots_a, idx_a):
                idx[s] = i
            for s, i in zip(slots_b, idx_b):
                idx[s] = i
            flat = 0
            for i in idx:
                flat = flat * dim + i
            coeffs[flat] = (coeffs[flat] + ca * cb) % p
    return tuple(coeffs)


def _partition_sides(order: int, slice_only: bool):
    """Canonical bipartition sides A (each unordered {A, B} listed once).

    Slice terms put a linear factor on any single slot, so only the
    singletons are used there.
    """
    if slice_only:
        return [(s,) for s in range(order)]
    sides = []
    for size in range(1, order // 2 + 1):
        for side in combinations(range(order), size):
            if 2 * size == order and 0 not in side:
                continue
            sides.append(side)
    return sides


def candidate_terms(field: PrimeField, dim: int, order: int, kind: str,
                    max_candidates: int) -> list[RankOneTerm]:
    """All rank-one tensors of the given kind, deduplicated by array."""
    if kind not in KINDS:
        raise ValueError(f"unknown rank kind {kind!r}")
    if order < 2:
        raise ValueError("candidate terms need order >= 2")
    p = field.p
    seen: dict[tuple[int, ...], RankOneTerm] = {}

    if kind == "rank":
        count = (p ** dim - 1) * ((p ** dim - 1) // (p - 1)) ** (order - 1)
        if count > max_candidates:
            raise BudgetError(f"{count} full-product candidates exceed the search budget")
        first = list(_nonzero_vectors(field, dim))
        rest = list(_projective_vectors(field, dim))
        for head in first:
            for tail in product(rest, repeat=order - 1):
                vectors = (head,) + tail
                coeffs = _outer_product(field, vectors)
                if coeffs not in seen:
                    tensor = Tensor(field, dim, order, coeffs)
                    seen[coeffs] = RankOneTerm(kind, None, vectors, tensor)
        return sorted(seen.values(), key=lambda term: term.tensor.coeffs)

    sides = _partition_sides(order, slice_only=(kind == "srank"))
    count = 0
    for side in sides:
        len_a, len_b = dim ** len(side), dim ** (order - len(side))
        count += ((p ** len_a - 1) // (p - 1)) * (p ** len_b - 1)
    if count > max_candidates:
        raise BudgetError(f"{count} bipartition candidates exceed the search budget")
    for side in sides:
        len_a, len_b = dim ** len(side), dim ** (order - len(side))
        slots_b = tuple(s for s in range(order) if s not in side)
        for arr_a in _projective_vectors(field, len_a):
            for arr_b in _nonzero_vectors(field, len_b):
                coeffs = _merge_product(field, dim, order, side, arr_a, arr_b)
                if coeffs not in seen:
                    t1 = Tensor(field, dim, len(side), arr_a)
                    t2 = Tensor(field, dim, len(slots_b), arr_b)
                    tensor = Tensor(field, dim, order, coeffs)
                    seen[coeffs] = RankOneTerm(kind, side, (t1, t2), tensor)
    return sorted(seen.values(), key=lambda term: term.tensor.coeffs)


# ---------------------------------------------------------------------------
# Exact search
# ---------------------------------------------------------------------------

def _search_depth(target: tuple[int, ...], by_coeffs, by_pos, p, depth,
                  nodes: list[int], node_limit: int) -> Optional[list]:
    """Depth-limited DFS: find exactly-at-most-`depth` terms summing to target."""
    failed: set = set()

    def dfs(residual: tuple[int, ...], remaining: int) -> Optional[list]:
        if not any(residual):
            return []
        if remaining == 0:
            return None
        state = (residual, remaining)
        if state in failed:
            return None
        if remaining == 1:
            term = by_coeffs.get(residual)
            return [term] if term is not None else None
        pos = next(i for i, c in enumerate(residual) if c)
        for term in by_pos.get(pos, ()):
            nodes[0] += 1
            if nodes[0] > node_limit:
                raise BudgetError("rank search exceeded its node budget")
            new_res = tuple((a - b) % p for a, b in zip(residual, term.tensor.coeffs))
            rest = dfs(new_res, remaining - 1)
            if rest is not None:
                return [term] + rest
        failed.add(state)
        return None

    return dfs(target, depth)


def rank_upper_greedy(t: Tensor, kind: str) -> int:
    """Size of a verified (not necessarily minimal) decomposition."""
    return len(greedy_decomposition(t, kind))


def greedy_decomposition(t: Tensor, kind: str) -> tuple[RankOneTerm, ...]:
    """A valid decomposition: rank-one probe first, then slot slicing.

    Order 2 uses pivot peeling, which is exact there; higher orders slice
    along the slot with the fewest nonzero slices.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown rank kind {kind!r}")
    if t.is_zero():
        return ()
    if t.order < 2:
        raise ValueError("greedy decomposition needs order >= 2")
    terms = _greedy(t, kind)
    _verify_certificate(t, terms)
    return tuple(terms)


def _matricization(t: Tensor, slots_a: tuple[int, ...]) -> list[list[int]]:
    slots_b = tuple(s for s in range(t.order) if s not in slots_a)
    n = t.dim
    rows = [[0] * (n ** len(slots_b)) for _ in range(n ** len(slots_a))]
    for idx, c in t.nonzero_entries():
        fa = 0
        for s in slots_a:
            fa = fa * n + idx[s]
        fb = 0
        for s in slots_b:
            fb = fb * n + idx[s]
        rows[fa][fb] = c
    return rows


def _rank_one_split(t: Tensor, slots_a: tuple[int, ...]) -> Optional[tuple]:
    """If the (A, B) matricization has rank 1, return (arr_a, arr_b)."""
    rows = _matricization(t, slots_a)
    field = t.field
    if matrix_rank(field, rows) != 1:
        return None
    r0 = next(i for i, row in enumerate(rows) if any(row))
    c0 = next(j for j, x in enumerate(rows[r0]) if x)
    inv = field.inv(rows[r0][c0])
    arr_a = tuple(row[c0] * inv % field.p for row in rows)
    arr_b = tuple(rows[r0])
    return arr_a, arr_b


def _full_product_factors(t: Tensor) -> Optional[tuple]:
    """Factor into d linear forms if every mode unfolding has rank 1."""
    current = t
    factors = []
    for _ in range(t.order - 1):
        split = _rank_one_split(current, (0,))
        if split is None:
            return None
        arr_a, arr_b = split
        factors.append(arr_a)
        current = Tensor(current.field, current.dim, current.order - 1, arr_b)
    if current.is_zero():
        return None
    factors.append(current.coeffs)
    # Normalize: all but the first factor projective, head absorbs scalars.
    field = t.field
    scale = 1
    out = []
    for i, vec in enumerate(factors):
        if i == 0:
            out.append(vec)
            continue
        lead = next(x for x in vec if x)
        inv = field.inv(lead)
        out.append(tuple(x * inv % field.p for x in vec))
        scale = scale * lead % field.p
    head = tuple(x * scale % field.p for x in out[0])
    return (head,) + tuple(out[1:])


def _greedy(t: Tensor, kind: str) -> list[RankOneTerm]:
    field, n, d = t.field, t.dim, t.order
    if t.is_zero():
        return []
    if kind == "rank":
        factors = _full_product_factors(t)
        if factors is not None:
            return [RankOneTerm("rank", None, factors, t)]
        if d == 2:
            return _peel_matrix(t)
        terms = []
        for i, slice_terms in _nonzero_slices(t):
            unit = tuple(1 if j == i else 0 for j in range(n))
            for sub in _greedy(slice_terms, "rank"):
                vectors = (unit,) + sub.factors
                expanded = Tensor(field, n, d, _outer_product(field, vectors))
                terms.append(RankOneTerm("rank", None, vectors, expanded))
        return terms
    # slice / partition: probe every candidate bipartition for rank one
    for side in _partition_sides(d, slice_only=(kind == "srank")):
        split = _rank_one_split(t, side)
        if split is not None:
            arr_a, arr_b = split
            slots_b = tuple(s for s in range(d) if s not in side)
            term = RankOneTerm(kind, side,
                               (Tensor(field, n, len(side), arr_a),
                                Tensor(field, n, len(slots_b), arr_b)), t)
            return [term]
    terms = []
    for i, slice_tensor in _nonzero_slices(t):
        unit = tuple(1 if j == i else 0 for j in range(n))
        expanded = from_entries(field, n, d,
                                (((i,) + idx, c) for idx, c in slice_tensor.nonzero_entries()))
        term = RankOneTerm(kind, (0,),
                           (Tensor(field, n, 1, unit), slice_tensor), expanded)
        terms.append(term)
    return terms


def _nonzero_slices(t: Tensor):
    """(index, order-(d-1) slice) for each nonzero slice along slot 0."""
    n, d = t.dim, t.order
    block = n ** (d - 1)
    out = []
    for i in range(n):
        chunk = t.coeffs[i * block: (i + 1) * block]
        if any(chunk):
            out.append((i, Tensor(t.field, n, d - 1, chunk)))
    return out


def _peel_matrix(t: Tensor) -> list[RankOneTerm]:
    """Exact rank decomposition of a matrix by pivot peeling."""
    field, n = t.field, t.dim
    p = field.p
    rows = [list(t.coeffs[i * n: (i + 1) * n]) for i in range(n)]
    terms = []
    while True:
        pivot = None
        for i in range(n):
            for j in range(n):
                if rows[i][j]:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        r0, c0 = pivot
        inv = field.inv(rows[r0][c0])
        u = tuple(rows[i][c0] * inv % p for i in range(n))
        v = tuple(rows[r0])
        for i in range(n):
            if u[i]:
                for j in range(n):
                    rows[i][j] = (rows[i][j] - u[i] * v[j]) % p
        expanded = Tensor(field, n, 2, _outer_product(field, (u, v)))
        terms.append(RankOneTerm("rank", None, (u, v), expanded))
    return terms


@dataclass(frozen=True)
class CandidateTable:
    """The rank-one candidates of one shape and kind, indexed for the search.

    `by_coeffs` maps a coefficient array to its term and `by_pos` lists,
    for each flat position, the terms nonzero there.  A caller that ranks
    many tensors of one shape builds the table once and passes it to
    every :func:`rank_exact` call.
    """

    p: int
    dim: int
    order: int
    kind: str
    terms: tuple[RankOneTerm, ...]
    by_coeffs: dict
    by_pos: dict


def candidate_table(field: PrimeField, dim: int, order: int, kind: str,
                    max_candidates: int) -> CandidateTable:
    """Build and index the candidates; BudgetError past `max_candidates`."""
    terms = tuple(candidate_terms(field, dim, order, kind, max_candidates=max_candidates))
    by_coeffs = {term.tensor.coeffs: term for term in terms}
    by_pos: dict[int, list[RankOneTerm]] = {}
    for term in terms:
        for pos, c in enumerate(term.tensor.coeffs):
            if c:
                by_pos.setdefault(pos, []).append(term)
    return CandidateTable(field.p, dim, order, kind, terms, by_coeffs, by_pos)


def search_cap(dim: int, order: int, budget: int) -> int:
    """The default candidate cap of an exact search at this shape and budget."""
    return min(budget // max(1, dim ** order), MAX_SEARCH_CANDIDATES)


def rank_exact(t: Tensor, kind: str, budget: int = DEFAULT_BUDGET,
               max_candidates: int | None = None,
               table: CandidateTable | None = None) -> RankReport:
    """Minimal decomposition size by iterative deepening, or an interval.

    The interval fallback (analytic-rank ceiling, greedy upper bound) is
    returned when the candidate space or node budget is exceeded.  The
    candidate space is capped at MAX_SEARCH_CANDIDATES unless the caller
    opts in to a larger search explicitly.  A caller-owned `table` of the
    same shape and kind is searched instead of building one.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown rank kind {kind!r}")
    if table is not None and (table.p, table.dim, table.order, table.kind) != (
            t.field.p, t.dim, t.order, kind):
        raise ValueError("candidate table is for another shape or kind")
    if t.is_zero():
        return RankReport(kind, 0, 0, True, (), "search", "search")
    if t.order == 1:
        term = RankOneTerm(kind, None, (t.coeffs,), t)
        return RankReport(kind, 1, 1, True, (term,), "search", "search")
    greedy = greedy_decomposition(t, kind)
    upper = len(greedy)
    if max_candidates is None:
        max_candidates = search_cap(t.dim, t.order, budget)
    try:
        if table is None:
            table = candidate_table(t.field, t.dim, t.order, kind, max_candidates)
        nodes = [0]
        node_limit = max(1000, budget // max(1, t.dim ** t.order))
        for depth in range(0, upper):
            found = _search_depth(t.coeffs, table.by_coeffs, table.by_pos,
                                  t.field.p, depth, nodes, node_limit)
            if found is not None:
                cert = tuple(found)
                _verify_certificate(t, cert)
                return RankReport(kind, depth, depth, True, cert, "search", "search")
        _verify_certificate(t, greedy)
        return RankReport(kind, upper, upper, True, greedy, "search", "greedy")
    except BudgetError:
        # When the certified lower bound meets the greedy size, the greedy
        # decomposition is provably minimal and the value is exact anyway.
        lower, source = _analytic_lower(t, budget)
        return RankReport(kind, lower, upper, lower == upper, greedy, source, "greedy")


def _analytic_lower(t: Tensor, budget: int) -> tuple[int, str]:
    """Certified integer lower bound; trivial 0 when bias is out of budget."""
    from .bias import BudgetExceededError
    try:
        return arank_ceil(bias_fiber(t, budget)), "analytic-rank"
    except BudgetExceededError:
        return 0, "trivial"


def rank_bounds(t: Tensor, kind: str, budget: int = DEFAULT_BUDGET) -> RankReport:
    """Certified interval without exact search: analytic lower, greedy upper."""
    if kind not in KINDS:
        raise ValueError(f"unknown rank kind {kind!r}")
    if t.is_zero():
        return RankReport(kind, 0, 0, True, (), "search", "search")
    greedy = greedy_decomposition(t, kind)
    lower, source = _analytic_lower(t, budget)
    return RankReport(kind, lower, len(greedy), lower == len(greedy), greedy,
                      source, "greedy")


def prank_lower_bound(t: Tensor, budget: int = DEFAULT_BUDGET) -> float:
    """Analytic rank as a float: a sound lower bound on the partition rank."""
    rank = bias_fiber(t, budget)
    from .bias import analytic_rank
    return analytic_rank(rank).value


# ---------------------------------------------------------------------------
# Independent sets
# ---------------------------------------------------------------------------

def is_independent_set(t: Tensor, indices: Sequence[int]) -> bool:
    """True iff among tuples from the set, exactly the diagonal is nonzero."""
    idx_set = sorted(set(indices))
    if len(idx_set) != len(tuple(indices)):
        raise ValueError("independent set indices must be distinct")
    for i in idx_set:
        if not 0 <= i < t.dim:
            raise ValueError(f"index {i} out of range for dimension {t.dim}")
    for tup in product(idx_set, repeat=t.order):
        value = t.entry(tup)
        if all(i == tup[0] for i in tup):
            if value == 0:
                return False
        elif value != 0:
            return False
    return True


def _can_extend(t: Tensor, current: tuple[int, ...], new: int) -> bool:
    """All non-constant tuples from current + {new} that use `new` vanish."""
    pool = current + (new,)
    for tup in product(pool, repeat=t.order):
        if new not in tup:
            continue
        if all(i == tup[0] for i in tup):
            continue
        if t.entry(tup) != 0:
            return False
    return True


def max_independent_set(t: Tensor) -> tuple[int, ...]:
    """Maximum-cardinality independent set, lexicographically least on ties.

    Branch and bound over indices with a nonzero diagonal entry; adding a
    vertex checks every new non-constant tuple, so partial sets are
    always genuinely independent.
    """
    candidates = [i for i in range(t.dim) if t.entry((i,) * t.order) != 0]
    best: list[tuple[int, ...]] = [()]

    def dfs(pos: int, current: tuple[int, ...]):
        if len(current) + (len(candidates) - pos) <= len(best[0]):
            return
        if pos == len(candidates):
            if len(current) > len(best[0]):
                best[0] = current
            return
        v = candidates[pos]
        if _can_extend(t, current, v):
            dfs(pos + 1, current + (v,))
        dfs(pos + 1, current)

    dfs(0, ())
    return best[0]
