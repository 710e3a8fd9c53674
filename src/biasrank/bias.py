"""Exact bias and analytic rank of tensors over prime fields.

The bias of an order-d tensor equals the probability that fixing the
last d-1 arguments leaves an identically-zero linear form in the first;
it is therefore an exact rational K / q^(n(d-1)) with integer K, which
is what every engine here returns.

Three engines compute it, two of them on one packed-slice kernel:

* :func:`bias_fiber` counts zero fibers.  It walks the last slot in
  reflected q-ary Gray-code order, so consecutive contractions differ by
  one slice (one XOR of int bitsets at q = 2), recurses through the
  trailing slots the same way, and ends every walk at the order-2 case,
  where a matrix of rank r has q^(n-r) zero fibers.  Scalar multiples of
  a fixing leave the same zero fibers, so one fixing per line is walked.
* :func:`bias_recursive` shares that walk and that rank base case, and
  additionally factors disjoint coordinate blocks (bias is
  multiplicative across them) and memoizes repeated subproblems; both
  accelerations are value-preserving.
* :func:`bias_histogram` walks every fixing of the trailing slots but
  takes no rank: it evaluates the linear form left in the first slot on
  every vector, tallies all q^(nd) values, and extracts the same rational
  from the histogram.

Since fiber and recursive share the walk, their agreement cannot catch a
fault in it.  The rank-free histogram, the naive zero-fiber oracle of the
tests and the reference engine of the benchmark (``perfbench/verify.py``,
which shares no code with this package) are the independent checks.

The module also provides the additive character chi, the complex bias of
multi-component forms, and the diagonal-tensor constant c(d, q).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional

from .gf import PrimeField, gf2_rank, matrix_rank, rank_mod_p
from .tensor import MultiComponentForm, Tensor

DEFAULT_BUDGET = 10 ** 8

# Cached lists of all vectors of F_p^n, keyed by (p, n).
_SPACE_CACHE: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}
_SPACE_CACHE_LIMIT = 1 << 16


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured evaluation budget."""


def _check_budget(count: int, budget: int, what: str):
    if count > budget:
        raise BudgetExceededError(f"{what} needs {count} evaluations, budget is {budget}")


def _space(p: int, dim: int):
    count = p ** dim
    key = (p, dim)
    cached = _SPACE_CACHE.get(key)
    if cached is None:
        cached = tuple(product(range(p), repeat=dim))
        if count <= _SPACE_CACHE_LIMIT:
            _SPACE_CACHE[key] = cached
    return cached


# ---------------------------------------------------------------------------
# Exact values
# ---------------------------------------------------------------------------

class BiasValue:
    """Exact rational numerator / base^exponent, kept unreduced.

    Comparisons cross-multiply arbitrary-precision integers, so equality
    and order between values with different exponents are exact.
    """

    __slots__ = ("numerator", "exponent", "base")

    def __init__(self, numerator: int, exponent: int, base: int):
        if base < 2:
            raise ValueError("base must be at least 2")
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        if not 0 <= numerator <= base ** exponent:
            raise ValueError(f"numerator {numerator} outside [0, {base}^{exponent}]")
        self.numerator = numerator
        self.exponent = exponent
        self.base = base

    def _cross(self, other: "BiasValue") -> tuple[int, int]:
        if not isinstance(other, BiasValue):
            raise TypeError("can only compare BiasValue with BiasValue")
        if self.base != other.base:
            raise ValueError("bias values over different field sizes")
        return (self.numerator * other.base ** other.exponent,
                other.numerator * self.base ** self.exponent)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiasValue):
            return NotImplemented
        a, b = self._cross(other)
        return a == b

    def __le__(self, other) -> bool:
        a, b = self._cross(other)
        return a <= b

    def __lt__(self, other) -> bool:
        a, b = self._cross(other)
        return a < b

    def __ge__(self, other) -> bool:
        a, b = self._cross(other)
        return a >= b

    def __gt__(self, other) -> bool:
        a, b = self._cross(other)
        return a > b

    def __hash__(self) -> int:
        return hash(self.as_fraction())

    def __mul__(self, other: "BiasValue") -> "BiasValue":
        if self.base != other.base:
            raise ValueError("bias values over different field sizes")
        return BiasValue(self.numerator * other.numerator,
                         self.exponent + other.exponent, self.base)

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, self.base ** self.exponent)

    def to_float(self) -> float:
        return float(self.as_fraction())

    def is_one(self) -> bool:
        return self.numerator == self.base ** self.exponent

    def is_zero(self) -> bool:
        return self.numerator == 0

    def __str__(self) -> str:
        return f"{self.numerator} / {self.base}^{self.exponent}"

    def __repr__(self) -> str:
        return f"BiasValue({self.numerator}, {self.exponent}, {self.base})"


@dataclass(frozen=True)
class AnalyticRank:
    """-log_q of a bias: the exact value plus a float within 1e-12 relative.

    `infinite` marks bias 0 (nonzero linear forms); the float is then inf.
    """

    bias: BiasValue
    value: float
    infinite: bool


def analytic_rank(b: BiasValue) -> AnalyticRank:
    if b.numerator == 0:
        return AnalyticRank(b, math.inf, True)
    # If K is an exact power of q the rank is an exact integer.
    k, m = 0, b.numerator
    while m % b.base == 0:
        m //= b.base
        k += 1
    if m == 1:
        return AnalyticRank(b, float(b.exponent - k), False)
    value = b.exponent - math.log(b.numerator) / math.log(b.base)
    return AnalyticRank(b, value, False)


def arank_ceil(b: BiasValue) -> int:
    """Smallest integer m with bias >= q^-m, computed exactly.

    Since combinatorial ranks are integers at least the analytic rank,
    this is a certified integer lower bound for them.
    """
    if b.numerator == 0:
        raise ValueError("bias 0 has infinite analytic rank")
    m = 0
    lhs, rhs = b.numerator, b.base ** b.exponent
    while lhs < rhs:
        lhs *= b.base
        m += 1
    return m


@dataclass(frozen=True)
class ValueHistogram:
    """Counts of each field value over the full input domain."""

    base: int
    counts: tuple[int, ...]
    domain_size: int

    def __post_init__(self):
        if len(self.counts) != self.base:
            raise ValueError("need one count per field element")
        if sum(self.counts) != self.domain_size:
            raise ValueError("histogram counts must sum to the domain size")


# ---------------------------------------------------------------------------
# The packed-slice Gray walk shared by the engines
# ---------------------------------------------------------------------------

# Gray step tables keyed by (p, n) and packing kernels keyed by (p, n, depth),
# both built on first use and cached only for p^n <= _SPACE_CACHE_LIMIT.  A
# kernel holds no Gray table: one is built only when a walk needs it.
_GRAY_CACHE: dict[tuple[int, int], tuple[tuple[int, ...], list[tuple[int, ...]]]] = {}
_KERNEL_CACHE: dict[tuple[int, int, int], "_Packed"] = {}
# Binary digits '0'/'1' to the bytes 0/1.
_BITS = bytes.maketrans(b"01", b"\x00\x01")


def gray_steps(p: int, n: int) -> tuple[int, ...]:
    """Reflected p-ary Gray code on F_p^n from the zero vector, as step codes.

    Code k raises digit k by one and code n + k lowers it by one (Knuth,
    TAOCP 4A, 7.2.1.1).  The p^n - 1 steps visit every vector exactly once,
    and every digit stays in [0, p).
    """
    digits = [0] * n
    rising = [True] * n
    steps = []
    for _ in range(p ** n - 1):
        k = 0
        while digits[k] == (p - 1 if rising[k] else 0):
            rising[k] = not rising[k]
            k += 1
        if rising[k]:
            digits[k] += 1
            steps.append(k)
        else:
            digits[k] -= 1
            steps.append(n + k)
    return tuple(steps)


def _gray(p: int, n: int) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """The Gray steps of F_p^n, and for each digit k the first p^k - 1 of them."""
    key = (p, n)
    table = _GRAY_CACHE.get(key)
    if table is None:
        steps = gray_steps(p, n)
        table = (steps, [steps[:p ** k - 1] for k in range(n)])
        if p ** n <= _SPACE_CACHE_LIMIT:
            _GRAY_CACHE[key] = table
    return table


def _reverse_slots(coeffs, n: int, order: int) -> list:
    """Row-major coefficients reordered so that the first index varies fastest."""
    if order <= 1:
        return list(coeffs)
    return [c for k in range(n) for c in _reverse_slots(coeffs[k::n], n, order - 1)]


class _Packed:
    """Tensors over F_p^n packed into one int each, and the Gray walk on them.

    Cell (i_1, ..., i_m) sits at position i_1 + i_2 n + ... + i_m n^(m-1), so
    the slices along the last slot are contiguous bit ranges.  At p = 2 a
    cell is one bit and a Gray step is one XOR.  At odd p a cell is a run of
    bytes holding the unreduced sum of y_k times slice k: the Gray digits
    y_k stay in [0, p), so a step adds or subtracts one packed slice without
    a carry or borrow between cells, and cells are read mod p.  `depth` is
    how many contractions deep a walk goes, which bounds the unreduced cells.
    """

    __slots__ = ("p", "n", "width", "bits", "powers", "column_mask", "_cell_orders")

    def __init__(self, p: int, n: int, depth: int):
        self.p, self.n = p, n
        self.width = max(1, (((p - 1) * (n * (p - 1)) ** depth).bit_length() + 7) // 8)
        self.bits = 1 if p == 2 else 8 * self.width
        self.powers = [p ** (n - r) for r in range(n + 1)]
        self.column_mask = (1 << (self.bits * n)) - 1
        self._cell_orders: dict[int, tuple[int, ...]] = {}

    def pack(self, cells: list[int]) -> int:
        """One int from residues listed in cell-position order."""
        if self.p == 2:
            return int("".join(map(str, cells[::-1])) or "0", 2)
        w = self.width
        if w == 1:
            return int.from_bytes(bytes(cells), "little")
        return int.from_bytes(b"".join(c.to_bytes(w, "little") for c in cells), "little")

    def pack_tensor(self, t: Tensor) -> int:
        """The coefficients of t, row-major, packed in cell-position order."""
        order = self._cell_orders.get(t.order)
        if order is None:
            order = tuple(_reverse_slots(range(self.n ** t.order), self.n, t.order))
            self._cell_orders[t.order] = order
        return self.pack(list(map(t.coeffs.__getitem__, order)))

    def cells(self, x: int, count: int):
        """The first `count` cells of x, unreduced at odd p."""
        if self.p == 2:
            return format(x, f"0{count}b")[::-1][:count].encode().translate(_BITS)
        w = self.width
        raw = x.to_bytes(count * w, "little")
        if w == 1:
            return raw
        return [int.from_bytes(raw[i:i + w], "little") for i in range(0, len(raw), w)]

    def residues(self, x: int, count: int) -> list[int]:
        return [c % self.p for c in self.cells(x, count)]

    def walk(self, x: int, order: int, lines: bool):
        """T(..., y) for every y in F_p^n in Gray order, each one slice away.

        With `lines`, one y per line through 0 instead: the y whose last
        nonzero digit is 1.  Digit k set to 1, the first p^k - 1 Gray steps
        walk the digits below k and visit those whose last nonzero digit is k.
        """
        shift = self.bits * self.n ** (order - 1)
        mask = (1 << shift) - 1
        slices = [(x >> (k * shift)) & mask for k in range(self.n)]
        all_steps, line_steps = _gray(self.p, self.n)
        walks = zip(slices, line_steps) if lines else [(0, all_steps)]
        if self.p == 2:
            deltas = slices + slices
            for current, steps in walks:
                yield current
                for step in steps:
                    current ^= deltas[step]
                    yield current
        else:
            deltas = slices + [-s for s in slices]
            for current, steps in walks:
                yield current
                for step in steps:
                    current += deltas[step]
                    yield current

    def matrix_fibers(self, x: int) -> int:
        """p^(n - rank) zero fibers of a packed order-2 tensor."""
        if not x:
            return self.powers[0]
        n = self.n
        if self.p == 2:
            mask = self.column_mask
            rank = gf2_rank([(x >> (j * n)) & mask for j in range(n)])
        else:
            cells = self.cells(x, n * n)
            rank = rank_mod_p(self.p, [cells[j * n:(j + 1) * n] for j in range(n)])
        return self.powers[rank]

    def zero_fibers(self, x: int, order: int) -> int:
        """K of a packed tensor of order >= 2: the walk down to the rank case.

        T(..., cy) = c T(..., y) has the zero fibers of T(..., y) for c != 0,
        so one y per line stands for p - 1 of them; y = 0 leaves the zero
        tensor, all of whose p^(n(order-2)) fixings are zero fibers.
        """
        if order == 2:
            return self.matrix_fibers(x)
        walked = sum(self.zero_fibers(child, order - 1)
                     for child in self.walk(x, order, lines=True))
        return self.p ** (self.n * (order - 2)) + (self.p - 1) * walked


def _kernel(p: int, n: int, depth: int) -> _Packed:
    key = (p, n, depth)
    kernel = _KERNEL_CACHE.get(key)
    if kernel is None:
        kernel = _Packed(p, n, depth)
        if p ** n <= _SPACE_CACHE_LIMIT:
            _KERNEL_CACHE[key] = kernel
    return kernel


def _pack_tensor(t: Tensor, depth: int) -> tuple[_Packed, int]:
    kernel = _kernel(t.field.p, t.dim, depth)
    return kernel, kernel.pack_tensor(t)


# ---------------------------------------------------------------------------
# Engine 1: zero-fiber counting
# ---------------------------------------------------------------------------

def bias_fiber(t: Tensor, budget: int = DEFAULT_BUDGET) -> BiasValue:
    """Count fixings of the trailing d-1 slots that kill the linear form.

    Returns K / q^(n(d-1)) with K the number of zero fibers.  The walk
    fixes the trailing slots down to order 2, where a matrix of rank r
    has q^(n-r) zero fibers.  Order 1 is the base case: bias 1 for the
    zero form, 0 otherwise.
    """
    if t.order < 1:
        raise ValueError("bias is defined for order >= 1")
    p = t.field.p
    exponent = t.dim * (t.order - 1)
    _check_budget(p ** exponent, budget, "zero-fiber enumeration")
    n = t.dim
    if t.order == 1:
        k = 0 if any(t.coeffs) else 1
    elif t.order == 2:
        k = p ** (n - matrix_rank(t.field, [t.coeffs[i * n:(i + 1) * n] for i in range(n)]))
    else:
        kernel, packed = _pack_tensor(t, t.order - 2)
        k = kernel.zero_fibers(packed, t.order)
    if t.order >= 2 and k < 1:
        raise AssertionError("multilinear bias must be positive for order >= 2")
    return BiasValue(k, exponent, p)


# ---------------------------------------------------------------------------
# Engine 2: order reduction with block factoring and a memo
# ---------------------------------------------------------------------------

def _components(cells, dim: int, order: int) -> list[list[int]]:
    """Connected coordinate blocks: indices co-occurring in some entry."""
    parent = list(range(dim))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    seen = set()
    for flat, c in enumerate(cells):
        if not c:
            continue
        idx = []
        for _ in range(order):
            idx.append(flat % dim)
            flat //= dim
        seen.update(idx)
        root = find(idx[0])
        for i in idx[1:]:
            parent[find(i)] = root
    groups: dict[int, list[int]] = {}
    for i in sorted(seen):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _block_cells(cells, dim: int, order: int, block: list[int]) -> list[int]:
    """Cells of the sub-tensor on the coordinates of one block."""
    positions = [0]
    for slot in range(order):
        weight = dim ** slot
        positions = [q + i * weight for i in block for q in positions]
    return [cells[q] for q in positions]


def bias_recursive(t: Tensor, budget: int = DEFAULT_BUDGET) -> BiasValue:
    """Average bias of the order-(d-1) contractions over the last slot.

    The same Gray walk as the fiber engine, ending at the same base case
    d = 2, where bias is q^(-rank); d = 1 matches the fiber engine.
    Disjoint coordinate blocks are factored (their biases multiply
    exactly) and repeated subproblems are memoized; the returned value is
    identical to plain recursion.  The budget meters fixings actually
    enumerated, so sparse tensors whose blocks factor stay cheap even
    when the dense enumeration would not.
    """
    if t.order < 1:
        raise ValueError("bias is defined for order >= 1")
    p = t.field.p
    exponent = t.dim * (t.order - 1)
    if t.order == 1:
        return BiasValue(0 if any(t.coeffs) else 1, exponent, p)
    memo: dict = {}
    steps = [0]

    def rec(x: int, dim: int, order: int) -> int:
        # Returns K with bias = K / p^(dim*(order-1)); above order 2, x is
        # reduced mod p, so equal subproblems share one memo key.
        kernel = _kernel(p, dim, 1)
        if order == 2:
            return kernel.matrix_fibers(x)
        key = (dim, order, x)
        hit = memo.get(key)
        if hit is not None:
            return hit
        cells = kernel.residues(x, dim ** order)
        comps = _components(cells, dim, order)
        support = sum(len(c) for c in comps)
        if len(comps) > 1 or support < dim:
            k = p ** ((dim - support) * (order - 1))
            for comp in comps:
                sub = _kernel(p, len(comp), 1)
                k *= rec(sub.pack(_block_cells(cells, dim, order, comp)), len(comp), order)
        else:
            steps[0] += p ** dim
            _check_budget(steps[0], budget, "recursive bias")
            size = dim ** (order - 1)
            walked = 0
            for child in kernel.walk(x, order, lines=True):
                if order > 3:
                    child = kernel.pack(kernel.residues(child, size))
                walked += rec(child, dim, order - 1)
            k = p ** (dim * (order - 2)) + (p - 1) * walked
        memo[key] = k
        return k

    kernel, packed = _pack_tensor(t, 1)
    return BiasValue(rec(packed, t.dim, t.order), exponent, p)


# ---------------------------------------------------------------------------
# Engine 3: full value histogram
# ---------------------------------------------------------------------------

def bias_histogram(t: Tensor, budget: int = DEFAULT_BUDGET) -> tuple[ValueHistogram, BiasValue]:
    """Evaluate T on every input, tally values, and recover the bias.

    The Gray walk fixes the trailing d-1 slots; the linear form c left in
    the first slot is then evaluated on every x in the same Gray order,
    where each step changes c(x) by one coefficient.  No rank is taken.
    Multilinearity makes the nonzero values equidistributed, so the
    character sum collapses to (N_0 * q - q^(nd)) / (q^n (q-1) q^(n(d-1)))
    and the division is exact; the engine asserts that.
    """
    if t.order < 1:
        raise ValueError("bias is defined for order >= 1")
    p, n = t.field.p, t.dim
    total = p ** (n * t.order)
    _check_budget(total, budget, "value histogram")
    counts = [0] * p
    kernel, packed = _pack_tensor(t, t.order - 1)
    steps = _gray(p, n)[0]

    def tally(x: int, order: int):
        if order > 1:
            for child in kernel.walk(x, order, lines=False):
                tally(child, order - 1)
            return
        form = kernel.residues(x, n)
        deltas = form + [-c for c in form]
        value = 0
        counts[0] += 1
        for step in steps:
            value += deltas[step]
            counts[value % p] += 1

    tally(packed, t.order)
    hist = ValueHistogram(p, tuple(counts), total)
    numerator = counts[0] * p - total
    denominator = (p ** n) * (p - 1)
    if numerator % denominator != 0:
        raise AssertionError("histogram numerator must divide exactly for a multilinear form")
    return hist, BiasValue(numerator // denominator, n * (t.order - 1), p)


def bias_all_engines(t: Tensor, budget: int = DEFAULT_BUDGET) -> dict[str, BiasValue]:
    """All three engines keyed by name; raises if they disagree."""
    values = {
        "fiber": bias_fiber(t, budget),
        "recursive": bias_recursive(t, budget),
        "histogram": bias_histogram(t, budget)[1],
    }
    first = values["fiber"]
    for name, other in values.items():
        if other != first:
            raise AssertionError(f"engine disagreement: {name} gave {other}, fiber gave {first}")
    return values


# ---------------------------------------------------------------------------
# Characters and multi-component forms
# ---------------------------------------------------------------------------

def chi(field: PrimeField, value: int) -> complex:
    """Additive character exp(2 pi i v / p); exactly +-1 when p = 2."""
    value %= field.p
    if field.p == 2:
        return complex(1.0 if value == 0 else -1.0)
    return cmath.exp(2j * math.pi * value / field.p)


@dataclass(frozen=True)
class MultiformBias:
    """Histogram and character-averaged bias of a multi-component form.

    For p = 2 the bias is the exact rational `exact`; for p > 2 it is a
    complex double whose absolute rounding error is at most
    `error_bound` (q character evaluations, each within a few ulp).
    """

    histogram: ValueHistogram
    value: complex
    magnitude: float
    error_bound: float
    exact: Optional[Fraction]


def bias_multiform(form: MultiComponentForm, budget: int = DEFAULT_BUDGET) -> MultiformBias:
    """Histogram of R over all inputs plus its (complex) bias."""
    p = form.field.p
    total = p ** (form.dim * form.order)
    _check_budget(total, budget, "multi-component enumeration")
    space = _space(p, form.dim)
    comp_data = []
    for subset, tensor in form.components.items():
        slots = tuple(sorted(subset))
        comp_data.append((slots, tensor.nonzero_entries()))
    counts = [0] * p
    for assignment in product(space, repeat=form.order):
        val = 0
        for slots, items in comp_data:
            for idx, c in items:
                term = c
                for pos, slot in enumerate(slots):
                    term = term * assignment[slot][idx[pos]] % p
                    if not term:
                        break
                val += term
        counts[val % p] += 1
    hist = ValueHistogram(p, tuple(counts), total)
    if p == 2:
        exact = Fraction(counts[0] - counts[1], total)
        value = complex(exact)
        return MultiformBias(hist, value, abs(exact), 0.0, exact)
    value = sum(counts[v] * chi(form.field, v) for v in range(p)) / total
    return MultiformBias(hist, value, abs(value), p * 1e-15, None)


# ---------------------------------------------------------------------------
# The diagonal-tensor constant
# ---------------------------------------------------------------------------

def c_constant(order: int, q: int) -> float:
    """Analytic rank per diagonal coordinate: -log_q(1 - (1 - 1/q)^(d-1)).

    Equals 1 at order 2; always at least 2^-order, and at least
    1 - log(order-1)/log(q) once q >= order.
    """
    if order < 2:
        raise ValueError("the constant is defined for order >= 2")
    if q < 2:
        raise ValueError("field size must be at least 2")
    numerator = q ** (order - 1) - (q - 1) ** (order - 1)
    return (order - 1) - math.log(numerator) / math.log(q)


def diagonal_bias_numerator(q: int, dim: int, order: int, support: int) -> int:
    """Exact K for a diagonal tensor with `support` nonzero entries.

    The closed form (1 - (1 - 1/q)^(d-1))^s, cleared to the common
    denominator q^(n(d-1)).
    """
    if not 0 <= support <= dim:
        raise ValueError("support must lie within the dimension")
    block = q ** (order - 1) - (q - 1) ** (order - 1)
    return block ** support * q ** ((dim - support) * (order - 1))
