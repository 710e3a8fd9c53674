"""Exact and bounded tensor / slice / partition rank, and independent sets.

A greedy decomposition of at most 2 terms, or of a matrix, is minimal:
its rank-one probe failed, or its pivot peel is exact; past that, each
kind has one exact method.

One step does all the elimination: :func:`_pivot_split` splits a matrix
at its first nonzero cell into (column over the pivot, row).  The rank-one
probe checks one split cell by cell; :func:`_peel` takes splits off the
residual, which is greedy's matrix peel and, on rows read column-major,
the duality's echelon cut.

Slice rank, and partition rank at order <= 3 (where every bipartition has
a singleton side, so the two agree), come from subspace duality:
srank(T) = min sum_i codim W_i over subspaces W_1..W_d of F_p^n with
T|_{W_1 x ... x W_d} = 0.  :func:`_slice_duality` walks W_1..W_{d-1} as
RREF bases; the largest admissible W_d is the common kernel of the
contracted forms T(w_1, ..., w_{d-1}, .), so codim W_d is their rank;
the bias kernel packs, contracts and ranks them.
:func:`_slice_certificate` expands T slot by slot along forms that cut
each W_i out, one slice term per form.

Tensor rank at every order d >= 3 comes from the slice span,
:func:`_slice_span`: rank(T) is the least dim W over spaces W of order-(d-1)
tensors that hold the span S of the slot-0 slices and are spanned by
rank-one ones.  Only W = S + U with U spanned by the quotient images of
rank-one tensors can qualify, so a depth-first walk over those images
meets each such U once, by its greedy basis.  No candidates are listed.

Partition rank at order >= 4 has no exact method past greedy.  At n <= 2
it needs none, since greedy slices slot 0 into at most n terms; past
that, such a shape gets its interval.

A slice or partition rank-one array is a head array on one side A times
an array on the other slots B, the plain product of their entries at each
cell; the pivot split, the slice certificate and arank-le-prank's seeded
rank-one draws take each cell's (A, B) position from one helper,
:func:`_cell_positions`.

:func:`_rank_one_term` writes the normal form of a rank-one tensor; every
term is in it except greedy `rank` terms past the probe, which the slice
recursion and the matrix peel factor themselves.  Every returned
decomposition is re-summed and verified before it leaves this module.

This module alone decides how large a search may be, and one rule holds
for every kind: each exact method is admitted by its own worst case,
charged against one node limit, budget // n^d.  The duality is admitted
when it has at most that many leaves, (sum_k [n k]_p)^(d-1), so it always
finishes; the slice span when it has at most that many buckets,
((p^n - 1)/(p - 1))^(d-1), and it then charges its point lookups against
the limit.  The interval [analytic-rank ceiling, greedy upper bound] is
computed before either walks; its ceiling is the walk's floor, and it is
the answer when no method is admitted or the lookups run out, exact only
if the two bounds meet.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, product
from math import prod
from operator import xor
from typing import Optional, Sequence

from .bias import DEFAULT_BUDGET, BudgetExceededError, _kernel, arank_ceil, bias_fiber
from .gf import PrimeField, mod_table
from .gf import matrix_rank  # noqa: F401  (the benchmark tracer wraps ranks.matrix_rank)
from .tensor import Tensor, block_cells, zero_tensor

KINDS = ("rank", "srank", "prank")


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
        total = total + term.tensor
    if total != t:
        raise AssertionError("decomposition does not re-sum to the tensor")


# ---------------------------------------------------------------------------
# Rank-one arrays
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


@lru_cache(maxsize=64)
def _cell_positions(dim: int, order: int, slots_a: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Each cell's (row, column) in the (A, B) matricization, in cell order.

    Row fa and column fb are the row-major indices of the cell's A-slots
    and of its other slots: each slot in turn appends its index digit to
    one of them.  So the cells of one row come by increasing column, and
    those of one column by increasing row.  Cached: the probe asks for the
    same few on every tensor.
    """
    positions = [(0, 0)]
    for s in range(order):
        if s in slots_a:
            positions = [(fa * dim + i, fb) for fa, fb in positions for i in range(dim)]
        else:
            positions = [(fa, fb * dim + i) for fa, fb in positions for i in range(dim)]
    return tuple(positions)


def _partition_sides(order: int, slice_only: bool):
    """Canonical bipartition sides A (each unordered {A, B} listed once).

    Slice terms put a linear factor on any single slot, so only the
    singletons are used there; an order-1 tensor has the one side (0,).
    """
    if slice_only or order == 1:
        return [(s,) for s in range(order)]
    sides = []
    for size in range(1, order // 2 + 1):
        for side in combinations(range(order), size):
            if 2 * size == order and 0 not in side:
                continue
            sides.append(side)
    return sides


# ---------------------------------------------------------------------------
# Greedy decomposition and the rank-one normal form
# ---------------------------------------------------------------------------

def greedy_decomposition(t: Tensor, kind: str) -> tuple[RankOneTerm, ...]:
    """A valid decomposition: rank-one probe first, then slot slicing.

    At order 2 the pivot peel is exact for every kind.  Otherwise t is
    sliced along slot 0: slice and partition rank take one slice term per
    nonzero slice, and tensor rank recurses into each slice.
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


def _pivot_split(p: int, cells, positions) -> Optional[tuple]:
    """(Column over the pivot, row) at a matrix's first nonzero (row, column),
    or None if it is 0.  Cell k sits at positions[k], in the order of
    :func:`_cell_positions`; the column is 1 at the pivot and 0 above it."""
    pivot = min((pos for pos, c in zip(positions, cells) if c), default=None)
    if pivot is None:
        return None
    r0, c0 = pivot
    column = [c for (_, fb), c in zip(positions, cells) if fb == c0]
    inv = pow(column[r0], p - 2, p)
    return (tuple(x * inv % p for x in column),
            tuple(c for (fa, _), c in zip(positions, cells) if fa == r0))


def _peel(p: int, cells, positions):
    """One :func:`_pivot_split` per unit of rank, each taken off the residual."""
    while (split := _pivot_split(p, cells, positions)) is not None:
        yield split
        a, b = split
        cells = [(c - a[fa] * b[fb]) % p for (fa, fb), c in zip(positions, cells)]


def _rank_one_split(t: Tensor, slots_a: tuple[int, ...]) -> Optional[tuple]:
    """If the (A, B) matricization has rank 1, return (arr_a, arr_b)."""
    p = t.field.p
    positions = _cell_positions(t.dim, t.order, slots_a)
    split = _pivot_split(p, t.coeffs, positions)
    if split is not None:
        a, b = split
        for (fa, fb), c in zip(positions, t.coeffs):
            if c != a[fa] * b[fb] % p:
                return None
    return split


def _full_product_factors(t: Tensor) -> Optional[tuple]:
    """Factor into d linear forms if every mode unfolding has rank 1.

    Each split leaves a projective slot-0 factor; the last factor's scalar
    moves onto the head, so the tails are projective.
    """
    field, p = t.field, t.field.p
    current = t
    factors = []
    for _ in range(t.order - 1):
        split = _rank_one_split(current, (0,))
        if split is None:
            return None
        arr_a, arr_b = split
        factors.append(arr_a)
        current = Tensor._trusted(field, current.dim, current.order - 1, arr_b)
    if not factors:  # order 1: the tensor is its own head
        return (t.coeffs,)
    lead = next(x for x in current.coeffs if x)
    inv = field.inv(lead)
    head = tuple(x * lead % p for x in factors[0])
    return (head, *factors[1:], tuple(x * inv % p for x in current.coeffs))


def _rank_one_term(t: Tensor, kind: str) -> Optional[RankOneTerm]:
    """The normal form of t as one term of `kind`, or None if t is not rank one.

    A full product has projective tails and a head that absorbs the
    scalars.  A slice or partition term splits across the first side, in
    :func:`_partition_sides` order, across which t has rank one, with a
    projective A-side array.
    """
    field, n, d = t.field, t.dim, t.order
    if kind == "rank":
        factors = _full_product_factors(t)
        return None if factors is None else RankOneTerm("rank", None, factors, t)
    for side in _partition_sides(d, slice_only=(kind == "srank")):
        split = _rank_one_split(t, side)
        if split is not None:
            arr_a, arr_b = split
            return RankOneTerm(kind, side, (Tensor._trusted(field, n, len(side), arr_a),
                                            Tensor._trusted(field, n, d - len(side), arr_b)), t)
    return None


def _greedy(t: Tensor, kind: str) -> list[RankOneTerm]:
    term = _rank_one_term(t, kind)
    if term is not None:
        return [term]
    field, n, d = t.field, t.dim, t.order
    if d == 2:
        return _peel_matrix(t, kind)
    terms = []
    for i, slice_tensor in _nonzero_slices(t):
        unit = tuple(1 if j == i else 0 for j in range(n))
        if kind == "rank":
            for sub in _greedy(slice_tensor, "rank"):
                vectors = (unit,) + sub.factors
                expanded = Tensor._trusted(field, n, d, _outer_product(field, vectors))
                terms.append(RankOneTerm("rank", None, vectors, expanded))
        else:
            factors = (Tensor._trusted(field, n, 1, unit), slice_tensor)
            expanded = _outer_product(field, (unit, slice_tensor.coeffs))
            terms.append(RankOneTerm(kind, (0,), factors, Tensor._trusted(field, n, d, expanded)))
    return terms


def _nonzero_slices(t: Tensor):
    """(index, order-(d-1) slice) for each nonzero slice along slot 0."""
    n, d = t.dim, t.order
    block = n ** (d - 1)
    out = []
    for i in range(n):
        chunk = t.coeffs[i * block: (i + 1) * block]
        if any(chunk):
            out.append((i, Tensor._trusted(t.field, n, d - 1, chunk)))
    return out


def _peel_matrix(t: Tensor, kind: str) -> list[RankOneTerm]:
    """One term u(x) v(y) per peeled split: linear forms for `rank`, else
    order-1 tensors on side (0,), the normal form, as u is projective."""
    field, n = t.field, t.dim
    terms = []
    for u, v in _peel(field.p, t.coeffs, _cell_positions(n, 2, (0,))):
        expanded = Tensor._trusted(field, n, 2, _outer_product(field, (u, v)))
        if kind != "rank":
            u, v = Tensor._trusted(field, n, 1, u), Tensor._trusted(field, n, 1, v)
        terms.append(RankOneTerm(kind, None if kind == "rank" else (0,), (u, v), expanded))
    return terms


# ---------------------------------------------------------------------------
# Slice rank by subspace duality
# ---------------------------------------------------------------------------

def _subspaces(p: int, dim: int, k: int):
    """The RREF basis B_1..B_k of every k-dimensional subspace of F_p^n, by
    pivots P_1..P_k and then free entries, each in lexicographic order."""
    for pivots in combinations(range(dim), k):
        units = [[int(j == q) for j in range(dim)] for q in pivots]
        free = [(r, j) for r, q in enumerate(pivots) for j in range(q + 1, dim) if j not in pivots]
        for values in product(range(p), repeat=len(free)):
            basis = [row[:] for row in units]
            for (r, j), v in zip(free, values):
                basis[r][j] = v
            yield basis


def _subspace_count(p: int, dim: int, k: int) -> int:
    """How many bases :func:`_subspaces` yields: the Gaussian binomial [n k]_p."""
    return prod(p ** (dim - i) - 1 for i in range(k)) // prod(p ** (i + 1) - 1 for i in range(k))


def _cut(p: int, dim: int, basis) -> list:
    """One (j, form) per non-pivot coordinate j of an RREF basis, with
    form(x) = x_j - sum_r x_{P_r} B_r[j]: these codim W forms vanish exactly
    on W, and each is 0 at the other non-pivot coordinates."""
    pivots = [row.index(1) for row in basis]
    return [(j, tuple(-basis[pivots.index(i)][j] % p if i in pivots else int(i == j)
                      for i in range(dim))) for j in range(dim) if j not in pivots]


def _echelon_cut(p: int, dim: int, rows) -> tuple:
    """An echelon basis of the span of `rows` over F_p, as (pivot, form):
    the :func:`_peel` of the rows read column-major, so each pivot is the
    first nonzero entry of its form, form[pivot] = 1, and every later form
    is 0 at that pivot."""
    positions = [(j, i) for i in range(len(rows)) for j in range(dim)]
    splits = _peel(p, [x for row in rows for x in row], positions)
    return tuple((form.index(1), form) for form, _ in splits)


def _slice_duality(t: Tensor, bound: int, floor: int = 0):
    """The cuts of subspaces W_1..W_d with T|_{W_1 x ... x W_d} = 0 and the
    least total codimension below `bound`, or None if none is below it.

    W_1..W_{d-1} run over :func:`_subspaces` by increasing codimension; T
    is contracted along each slot by the chosen basis, so the largest
    admissible W_d is the common kernel of the forms left at the last
    slot, and codim W_d is their rank.  The bias kernel of (p, n) packs,
    contracts and ranks the tensors.  A partial sum that reaches the best
    total so far is cut off, and the walk stops at a total of `floor`, a
    lower bound the caller knows.  `cuts[i]` lists the (j, form) pairs
    whose forms cut W_i out: the :func:`_cut` of its basis, and for W_d an
    echelon basis of the last forms.  The walk ranks at most one leaf per
    tuple W_1..W_{d-1}, so (sum_k [n k]_p)^(d-1) bounds its work.
    """
    p, n, d = t.field.p, t.dim, t.order
    kernel = _kernel(p, n)
    spaces = list(chain.from_iterable(_subspaces(p, n, k) for k in range(n, -1, -1)))
    best = [bound, None, None]

    def walk(slot, arrays, spent, bases):
        sliced = [kernel.slices(a, d - slot) for a in arrays]
        for basis in spaces:
            total = spent + n - len(basis)
            if total >= best[0]:
                return
            contracted = [f for s in sliced for f in kernel.contract(s, basis, d - slot)]
            if slot < d - 2:
                walk(slot + 1, contracted, total, bases + (basis,))
            else:
                total += kernel.rank(contracted)
                if total < best[0]:
                    best[:] = total, bases + (basis,), contracted
            if best[0] <= floor:
                return

    walk(0, [kernel.pack(t.coeffs)], 0, ())
    _, bases, forms = best
    if bases is None:
        return None
    return (*(_cut(p, n, basis) for basis in bases),
            _echelon_cut(p, n, [kernel.cells(f, n) for f in forms]))


def _slice_certificate(t: Tensor, cuts, kind: str) -> tuple[RankOneTerm, ...]:
    """One slice term per cut form, by the (<=) half of the duality.

    In each slot's cut, form(e_j) = 1 and every later form is 0 at e_j.
    Taking the term form(x^i) R(.., e_j, ..) off the residual R feeds slot
    i through x - form(x) e_j, a projection onto the kernel of the form
    that keeps the later forms' values.  Once a slot's forms are done, the
    residual reads that slot only through a projection into W_i; once
    every slot is done, it vanishes on W_1 x ... x W_d, so it is 0.
    """
    field, n, d = t.field, t.dim, t.order
    p = field.p
    residual = t.coeffs
    terms = []
    for slot, cut in enumerate(cuts):
        positions = _cell_positions(n, d, (slot,))
        for j, form in cut:
            row = [c for (fa, _), c in zip(positions, residual) if fa == j]
            coeffs = tuple(form[fa] * row[fb] % p for fa, fb in positions)
            terms.append(_rank_one_term(Tensor._trusted(field, n, d, coeffs), kind))
            residual = tuple((a - b) % p for a, b in zip(residual, coeffs))
    return tuple(terms)


# ---------------------------------------------------------------------------
# Tensor rank by slice span
# ---------------------------------------------------------------------------

def _reduced(p: int, cut, v):
    """v less the multiples of an echelon cut's forms that clear each pivot."""
    for q, form in cut:
        if c := v[q]:
            v = [(a - c * b) % p for a, b in zip(v, form)]
    return v


def _slice_span(t: Tensor, upper: int, node_limit: int,
                floor: int = 0) -> Optional[tuple[RankOneTerm, ...]]:
    """A least decomposition of t, of order d >= 3, into fewer than `upper`
    full products, or None; `floor` is a lower bound on rank(T) that the
    caller knows.  rank(T) is the least dim W over spaces W of order-(d-1)
    tensors that hold S, the span of the slot-0 slices, and are spanned by
    rank-one ones (Ja'Ja', SIAM J. Comput. 8, 1979; Buergisser, Clausen and
    Shokrollahi, Algebraic Complexity Theory, 1997, ch. 14).

    One rank-one member per projective class, the outer product of d - 1
    projective vectors, is bucketed by its normalized image in the quotient
    by S, read off the pivots of S's echelon cut.  Bucket 0 is S; the
    others are the points, sorted.  W = S + U is only worth trying for U
    spanned by points, since the rank-one members of W are bucket 0 and the
    buckets of U's points.  So a depth-first walk picks points by
    increasing index; the j-th pick looks up the p^(j-1) points that it
    adds to the span, and the branch is cut if one of them comes earlier
    than the pick, so that each such U is met once, by its greedy basis.
    W qualifies if bucket 0 and U's buckets have rank s + k, for s = dim S
    and k = dim U; dim W rises from max(2, s, floor).  Quotient vectors are
    ints of one-byte cells, added by XOR at p = 2 and reduced through a
    byte table at odd p.  Each pick is charged its lookups; past
    `node_limit`, BudgetExceededError.
    """
    field, n, d, p = t.field, t.dim, t.order, t.field.p
    size, kernel = n ** (d - 1), _kernel(p, n)
    s_cut = _echelon_cut(p, size, [t.coeffs[i * size:(i + 1) * size] for i in range(n)])
    s, pivots, buckets = len(s_cut), {q for q, _ in s_cut}, {}
    for vectors in product(_projective_vectors(field, n), repeat=d - 1):
        member = _outer_product(field, vectors)
        image = [x for j, x in enumerate(_reduced(p, s_cut, member)) if j not in pivots]
        inv = pow(next((x for x in image if x), 1), p - 2, p)
        buckets.setdefault(tuple(x * inv % p for x in image), []).append(kernel.pack(member))
    inside, mod = buckets.pop((0,) * (size - s), []), mod_table(p)
    points = sorted(buckets)
    groups = [buckets[point] for point in points]
    multiples = [[int.from_bytes(bytes(c * x % p for x in point), "little") for c in range(p)]
                 for point in points]
    index = {v: i for i, vs in enumerate(multiples) for v in vs[1:]}
    add = xor if p == 2 else (lambda a, b: int.from_bytes(
        (a + b).to_bytes(size - s, "little").translate(mod), "little"))
    nodes = 0

    def walk(start, left, span, members, need):
        nonlocal nodes
        if not left:
            return members if len(members) >= need and kernel.rank(members, d - 1) == need else None
        for i in range(start, len(points) - left + 1):
            nodes += len(span)
            if nodes > node_limit:
                raise BudgetExceededError("slice span exceeded its node budget")
            fresh = [add(multiples[i][1], v) for v in span]
            hits = [j for j in map(index.get, fresh) if j is not None]
            if min(hits) < i:
                continue
            grown = span + fresh + [add(c, v) for c in multiples[i][2:] for v in span] \
                if left > 1 else None
            found = walk(i + 1, left - 1, grown,
                         members + [m for j in hits for m in groups[j]], need)
            if found is not None:
                return found
        return None

    for k in range(max(2, s, floor) - s, upper - s):
        members = walk(0, k, [0], inside, s + k)
        if members is not None:
            chosen: list = []
            for m in members:
                if len(chosen) < s + k and kernel.rank(chosen + [m], d - 1) > len(chosen):
                    chosen.append(m)
            return _span_terms(t, [tuple(kernel.cells(m, size)) for m in chosen])
    return None


def _span_terms(t: Tensor, basis) -> tuple[RankOneTerm, ...]:
    """The terms c_.j x M_j of the slot-0 slices T_i = sum_j c_ij M_j in a
    least rank-one basis of a span that holds them, so no c_.j is 0.  Each
    M_j carries e_j on extra coordinates through an :func:`_echelon_cut`,
    so a slice reduced by the cut keeps minus its c_ij there."""
    field, n, d, r, p = t.field, t.dim, t.order, len(basis), t.field.p
    size = n ** (d - 1)
    cut = _echelon_cut(p, size + r, [m + tuple(int(i == j) for i in range(r))
                                     for j, m in enumerate(basis)])
    left = [_reduced(p, cut, t.coeffs[i * size:(i + 1) * size] + (0,) * r)[size:]
            for i in range(n)]
    return tuple(_rank_one_term(Tensor._trusted(field, n, d, _outer_product(
        field, ([-c % p for c in column], m))), "rank") for m, column in zip(basis, zip(*left)))


def rank_exact(t: Tensor, kind: str, budget: int = DEFAULT_BUDGET) -> RankReport:
    """Minimal decomposition size by the kind's exact method, or an interval.

    A greedy decomposition of at most two terms is minimal, since its
    rank-one probe failed, and so is one of a matrix, the pivot peel.
    Past that, the :func:`rank_bounds` interval comes first, and its
    analytic-rank ceiling is the exact method's floor (srank >= prank >=
    arank).  Each method is admitted by its worst case against the node
    limit budget // n^d: the slice span (tensor rank, every order) by its
    ((p^n - 1)/(p - 1))^(d-1) buckets, and its lookups are then charged;
    the duality (slice rank, and partition rank at order <= 3) by its
    (sum_k [n k]_p)^(d-1) leaves, so it always finishes.  Otherwise, or
    once the lookups run out, the interval is the answer.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown rank kind {kind!r}")
    if t.is_zero() or t.order == 1:
        return rank_bounds(t, kind, budget)
    greedy = greedy_decomposition(t, kind)
    cert = None
    if len(greedy) > 2 and t.order > 2:
        p, n, d = t.field.p, t.dim, t.order
        bounds, node_limit = _interval(t, kind, budget, greedy), budget // n ** d
        if kind == "rank" and ((p ** n - 1) // (p - 1)) ** (d - 1) <= node_limit:
            try:
                cert = _slice_span(t, len(greedy), node_limit, bounds.lower)
            except BudgetExceededError:
                return bounds
        elif kind != "rank" and (kind == "srank" or d <= 3) and sum(
                _subspace_count(p, n, k) for k in range(n + 1)) ** (d - 1) <= node_limit:
            cuts = _slice_duality(t, len(greedy), floor=max(2, bounds.lower))
            if cuts is not None:
                cert = _slice_certificate(t, cuts, kind)
        else:
            return bounds
    if cert is None:
        return RankReport(kind, len(greedy), len(greedy), True, greedy, "search", "greedy")
    _verify_certificate(t, cert)
    return RankReport(kind, len(cert), len(cert), True, cert, "search", "search")


def rank_bounds(t: Tensor, kind: str, budget: int = DEFAULT_BUDGET) -> RankReport:
    """Certified interval without exact search: analytic lower, greedy upper.

    The lower bound is the analytic-rank ceiling, or a trivial 0 when the
    bias is out of budget; when it meets the greedy size, the greedy
    decomposition is provably minimal and the value is exact.  Zero and
    order-1 tensors need no search and get the exact value.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown rank kind {kind!r}")
    if t.is_zero():
        return RankReport(kind, 0, 0, True, (), "search", "search")
    if t.order == 1:
        return RankReport(kind, 1, 1, True, (_rank_one_term(t, kind),), "search", "search")
    return _interval(t, kind, budget, greedy_decomposition(t, kind))


def _interval(t: Tensor, kind: str, budget: int, greedy) -> RankReport:
    """The :func:`rank_bounds` report of t, whose greedy decomposition is `greedy`."""
    try:
        lower, source = arank_ceil(bias_fiber(t, budget)), "analytic-rank"
    except BudgetExceededError:
        lower, source = 0, "trivial"
    return RankReport(kind, lower, len(greedy), lower == len(greedy), greedy, source, "greedy")


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


def _can_extend(t: Tensor, current: tuple[int, ...], new: int, charge) -> bool:
    """All non-constant tuples from current + {new} that use `new` vanish.

    `charge(count)` is told how many index tuples were examined.
    """
    pool = current + (new,)
    cells = block_cells(t.dim, (pool,) * t.order)  # the pool's sub-tensor, in product order
    for count, (tup, cell) in enumerate(zip(product(pool, repeat=t.order), cells), 1):
        if t.coeffs[cell] and new in tup and not all(i == tup[0] for i in tup):
            charge(count)
            return False
    charge(len(pool) ** t.order)
    return True


def max_independent_set(t: Tensor, budget: int = DEFAULT_BUDGET) -> tuple[int, ...]:
    """Maximum-cardinality independent set, lexicographically least on ties.

    Branch and bound over indices with a nonzero diagonal entry; adding a
    vertex checks every new non-constant tuple, so partial sets are
    always genuinely independent.  Every index tuple examined, the
    diagonal ones included, is charged against `budget`; past it,
    BudgetExceededError.
    """
    spent = [0]

    def charge(count: int):
        spent[0] += count
        if spent[0] > budget:
            raise BudgetExceededError(f"independent-set search examined {spent[0]} index "
                                      f"tuples, budget is {budget}")

    charge(t.dim)
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
        if _can_extend(t, current, v, charge):
            dfs(pos + 1, current + (v,))
        dfs(pos + 1, current)

    dfs(0, ())
    return best[0]
