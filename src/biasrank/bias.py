"""Exact bias and analytic rank of tensors over prime fields.

The bias of an order-d tensor equals the probability that fixing d-1
of its arguments (whichever slot is left free) leaves an identically-zero
linear form; it is therefore an exact rational K / q^(n(d-1)) with
integer K, which is what every engine here returns.

Every engine descends through one walk, :meth:`_Packed.descend`, on one
packed-slice kernel per field size and dimension.  It walks the leading
slots in reflected q-ary Gray-code order, so consecutive contractions
differ by one slice (one XOR of int bitsets at q = 2), and at odd q it
reduces every intermediate tensor before walking it.

* :func:`bias_fiber` counts zero fibers.  The walk goes down to order 2,
  where a matrix of rank r has q^(n-r) zero fibers; scalar multiples of a
  fixing leave the same zero fibers, so one fixing per line is walked.
  At q = 2 where the order-2 memo is off (n >= 4, and n <= 1) and
  2^n <= _CACHE_LIMIT it stops at order 3 instead:
  :meth:`_Packed.slice_fibers` bit-slices the 2^n matrices T(y, ., .) of a
  leaf and ranks them all in one Gauss-Jordan pass.
* :func:`bias_recursive` factors the tensor once into disjoint coordinate
  blocks (bias is multiplicative across them) and counts each distinct
  block once by the fiber engine's count; the value is the same.
* :func:`bias_histogram` takes no rank: it counts the values of T on all
  q^(nd) inputs by the value walk below and extracts the same rational.

The value walk serves the histogram and :func:`bias_multiform`.  It
homogenizes a multi-component form R on (F_q^n)^d into one order-d tensor
T on F_q^(n+1) whose last coordinate in a slot stands for "this slot is not
in the component", so R(x) = T((x^1, 1), ..., (x^d, 1)); a plain tensor is
the form with only its top component.  Where d >= 2, n >= 2 and q^(2n) <=
_CACHE_LIMIT the q^(2n) arguments of the last two slots are the lanes of
an int, and a Gray walk of the third adds one slice's values per step.
Elsewhere it walks down to order 1 and evaluates each distinct affine
form left in the last slot on every x once, weighted by its count.

The fiber count ends in :meth:`_Packed.matrix_fibers`, which memoizes the
order-2 count q^(n-rank) on its cached kernel when the key space is small:
for n >= 2 and q^(n^2) <= 2^12 (q = 2 with n <= 3, and n = 2 with q <= 7).
The key is the reduced matrix (the packed int at q = 2, the cells reduced
mod q at odd q), so a memo never holds more than q^(n^2) entries however
many distinct inputs a process sees; nothing is built before the first
walk.

The kernel is the only code that packs, slices, contracts and ranks
packed tensors; the slice-rank duality of :mod:`biasrank.ranks` uses it.

Since every engine shares the walk, their agreement cannot catch a fault
in it.  The naive oracles of the tests and the reference engine of the
benchmark (``perfbench/verify.py``, which shares no code with this
package) are the independent checks; the histogram still takes no rank (a
test makes every rank function raise), so it checks the rank base case.
On its lane path the histogram does not walk the last three slots (an
order-3 tensor is not walked at all), so there fiber against histogram
checks the walk's last levels independently.

The module also provides the additive character chi, the complex bias of
multi-component forms, and the diagonal-tensor constant c(d, q).
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import accumulate, chain, compress
from operator import add, mul, xor
from typing import Iterable, Iterator, Optional, Sequence

from .gf import PrimeField, combine_masks, digit_masks, gf2_rank, rank_mod_p
from .gf import matrix_rank  # noqa: F401  (the benchmark tracer wraps bias.matrix_rank)
from .tensor import MultiComponentForm, Tensor

DEFAULT_BUDGET = 10 ** 8

# Packing kernels, with their Gray tables, are cached only for p^n up to this size.
_CACHE_LIMIT = 1 << 16

# A kernel memoizes order-2 fiber counts only where n >= 2 and the p^(n^2)
# reduced matrices, the memo's bound, are at most this many.
_MEMO_KEYS = 1 << 12


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured evaluation budget."""


def _check_budget(count: int, budget: int, what: str):
    if count > budget:
        raise BudgetExceededError(f"{what} needs {count} evaluations, budget is {budget}")


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

# Packing kernels keyed by (p, n), built on first use and cached only for
# p^n <= _CACHE_LIMIT.  A kernel builds its Gray tables on its first walk.
_KERNEL_CACHE: dict[tuple[int, int], "_Packed"] = {}
# Binary digits '0'/'1' to the bytes 0/1, and back.
_BITS = bytes.maketrans(b"01", b"\x00\x01")
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


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


class _Packed:
    """Tensors over F_p^n packed into one int each, and the Gray walk on them.

    Cells are packed in the row-major order of `Tensor.coeffs`: cell
    (i_1, ..., i_m) sits at position i_1 n^(m-1) + ... + i_m, so the slices
    along the leading slot are contiguous bit ranges.  At p = 2 a
    cell is one bit and a Gray step is one XOR.  At odd p a cell is a run of
    bytes holding the unreduced sum of y_k times slice k: the Gray digits
    y_k stay in [0, p), so a step adds or subtracts one packed slice without
    a carry or borrow between cells, and cells are read mod p.  Every walk
    starts from reduced cells, so one contraction, at most n (p-1)^2 per
    cell, bounds the width; :meth:`reduced` brings cells back below p.

    `memo` maps each reduced matrix seen to its fiber count, or is None where
    the memo is off: at n < 2, where p^(n^2) > _MEMO_KEYS, or at odd p with
    cells wider than a byte.  `reduce` is the byte table of c -> c mod p at
    odd p with one-byte cells, and None otherwise.  `gray_table` is built by
    :meth:`gray` on the first walk, `lane_table` by the first
    :meth:`lane_products`, `fiber_lanes` by the first :meth:`slice_fibers`.
    """

    __slots__ = ("p", "n", "width", "bits", "powers", "column_mask", "memo", "reduce",
                 "gray_table", "lane_table", "fiber_lanes")

    def __init__(self, p: int, n: int):
        self.p, self.n = p, n
        self.width = max(1, ((n * (p - 1) ** 2).bit_length() + 7) // 8)
        self.bits = 1 if p == 2 else 8 * self.width
        self.powers = [p ** (n - r) for r in range(n + 1)]
        self.column_mask = (1 << (self.bits * n)) - 1
        small = n >= 2 and p ** (n * n) <= _MEMO_KEYS and (p == 2 or self.width == 1)
        self.memo = {} if small else None
        self.reduce = bytes(c % p for c in range(256)) if p != 2 and self.width == 1 else None
        self.gray_table = self.lane_table = self.fiber_lanes = None

    def pack(self, cells: Sequence[int]) -> int:
        """One int from residues listed in cell-position order."""
        if self.p == 2:
            return int(bytes(cells[::-1]).translate(_DIGITS) or b"0", 2)
        w = self.width
        if w == 1:
            return int.from_bytes(bytes(cells), "little")
        return int.from_bytes(b"".join(c.to_bytes(w, "little") for c in cells), "little")

    def cells(self, x: int, count: int):
        """The first `count` cells of x, unreduced at odd p."""
        if self.p == 2:
            return format(x, f"0{count}b")[::-1][:count].encode().translate(_BITS)
        w = self.width
        raw = x.to_bytes(count * w, "little")
        if w == 1:
            return raw
        return [int.from_bytes(raw[i:i + w], "little") for i in range(0, len(raw), w)]

    def gray(self) -> list[tuple[int, ...]]:
        """For each digit k, the first p^k - 1 Gray steps of F_p^n.

        Those steps touch only digits below n - 1, so they are the steps of
        F_p^(n-1) with each lowering code n - 1 + k moved up to n + k.
        """
        if self.gray_table is None:
            n = self.n
            prefix = tuple(s + (s >= n - 1) for s in gray_steps(self.p, n - 1)) if n else ()
            self.gray_table = [prefix[:self.p ** k - 1] for k in range(n)]
        return self.gray_table

    def lane_products(self) -> list:
        """Cell (i, j) of an order-2 tensor, u_i x_j, on the lanes (u, x) of
        coset vectors ending in 1 (lane digit j is x_j, digit n - 1 + i is u_i):
        at p = 2 item i n + j is its mask of 1s; at odd p item c lists, in that
        order, the value masks of c u_i x_j."""
        if self.lane_table is None:
            p, m = self.p, self.n - 1
            digits = digit_masks(p, 2 * m)
            one = [0, (1 << p ** (2 * m)) - 1] + [0] * (p - 2)
            xs, us = digits[:m] + [one], digits[m:] + [one]
            cells = [combine_masks(u, x, mul, p) for u in us for x in xs]
            self.lane_table = [f[1] for f in cells] if p == 2 else [None] + [
                [[f[v * pow(c, -1, p) % p] for v in range(p)] for f in cells] for c in range(1, p)]
        return self.lane_table

    def walk(self, x: int, order: int, lines: bool):
        """T(y, ...) for y in F_p^n in Gray order, each one slice away.

        With `lines`, one y per line through 0: the y whose last nonzero
        digit is 1.  Digit k set to 1, the first p^k - 1 Gray steps walk the
        digits below k and visit those whose last nonzero digit is k.
        Without, the coset of the y whose last digit is 1: the last line.
        """
        shift = self.bits * self.n ** (order - 1)
        mask = (1 << shift) - 1
        slices = [(x >> (k * shift)) & mask for k in range(self.n)]
        line_steps = self.gray()
        walks = zip(slices, line_steps) if lines else [(slices[-1], line_steps[-1])]
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

    def descend(self, x: int, order: int, stop: int, lines: bool) -> Iterator[int]:
        """The packed order-`stop` tensors left by walking the leading slots.

        Each slot from `order` down to stop + 1 is walked as in :meth:`walk`;
        at odd p every intermediate tensor is reduced before its own walk,
        so x must be reduced and every leaf is one contraction deep.
        """
        if order == stop:
            return iter((x,))
        children = self.walk(x, order, lines)
        if order - 1 == stop:
            return children
        children = self.reduced(children, self.n ** (order - 1))
        return chain.from_iterable(self.descend(child, order - 1, stop, lines)
                                   for child in children)

    def slices(self, x: int, order: int) -> list[int]:
        """The n slices of a packed order-`order` tensor along its leading slot."""
        shift = self.bits * self.n ** (order - 1)
        mask = (1 << shift) - 1
        return [(x >> (k * shift)) & mask for k in range(self.n)]

    def contract(self, slices: Sequence[int], ws: Iterable, order: int) -> list[int]:
        """T(w, ...) = sum_k w_k slice_k, reduced, for each w in ws, from the
        :meth:`slices` of an order-`order` T with reduced cells."""
        if self.p == 2:
            return [reduce(xor, compress(slices, w), 0) for w in ws]
        return list(self.reduced([sum(map(mul, w, slices)) for w in ws], self.n ** (order - 1)))

    def rank(self, forms: Iterable[int], order: int = 1) -> int:
        """The rank of packed order-`order` tensors as vectors, cells read mod p."""
        if self.p == 2:
            return gf2_rank(forms)
        return rank_mod_p(self.p, [self.cells(f, self.n ** order) for f in forms])

    def reduced(self, xs: Iterable[int], count: int) -> Iterable[int]:
        """Each x with its first `count` cells reduced mod p, packed again."""
        return xs if self.p == 2 else map(self.pack, self.keys(xs, count))

    def keys(self, xs: Iterable[int], count: int) -> Iterable:
        """The first `count` cells of each x mod p as a key, which `pack` reads
        at odd p: x at p = 2, bytes where cells are one byte, else a tuple."""
        if self.p == 2:
            return xs
        reduce = self.reduce
        if reduce is None:
            return (tuple(c % self.p for c in self.cells(x, count)) for x in xs)
        return (x.to_bytes(count, "little").translate(reduce) for x in xs)

    def matrix_fibers(self, x: int) -> int:
        """p^(n - rank) zero fibers of a packed order-2 tensor, memoized if on."""
        if not x:
            return self.powers[0]
        memo = self.memo
        if memo is None:
            return self._matrix_fibers(x)
        key = x if self.p == 2 else x.to_bytes(self.n * self.n, "little").translate(self.reduce)
        fibers = memo.get(key)
        if fibers is None:
            fibers = memo[key] = self._matrix_fibers(x)
        return fibers

    def _matrix_fibers(self, x: int) -> int:
        n = self.n
        if self.p == 2:
            mask = self.column_mask
            rank = gf2_rank([(x >> (j * n)) & mask for j in range(n)])
        else:
            cells = self.cells(x, n * n)
            rank = rank_mod_p(self.p, [cells[j * n:(j + 1) * n] for j in range(n)])
        return self.powers[rank]

    def slice_fibers(self, x: int) -> int:
        """Sum over y in F_2^n of 2^(n - rank T(y, ., .)) for a packed order-3 T
        at p = 2, by one Gauss-Jordan pass over all 2^n matrices at once.

        Bit y of plane c is cell c of T(y, ., .): the XOR of the lane masks
        {y : y_k = 1} over the slices k whose cell c is 1.  `spans[c]` holds
        the lanes with a pivot in column c and `pivots[c]` their pivot rows.
        """
        n = self.n
        full = (1 << (1 << n)) - 1
        lanes = self.fiber_lanes
        if lanes is None:
            lanes = self.fiber_lanes = [masks[1] for masks in digit_masks(2, n)]
        cells, area = self.cells(x, n ** 3), n * n
        planes = [reduce(xor, compress(lanes, cells[c::area]), 0) for c in range(area)]
        pivots, spans = [[0] * n for _ in range(n)], [0] * n
        for j in range(n):
            row = planes[j * n:(j + 1) * n]
            for c, bit in enumerate(row):  # row[c] is read after columns < c updated it
                if bit:
                    fresh = bit & ~spans[c]
                    spans[c] |= bit
                    pivot = pivots[c]
                    for k in range(c + 1, n):
                        pivot[k] |= row[k] & fresh
                        row[k] ^= pivot[k] & bit
        ranks = [full]  # ranks[r]: the lanes of rank r
        for span in spans:
            ranks = [lo & ~span | hi & span for lo, hi in zip(ranks + [0], [0] + ranks)]
        return sum(mask.bit_count() << (n - r) for r, mask in enumerate(ranks))


def _kernel(p: int, n: int) -> _Packed:
    key = (p, n)
    kernel = _KERNEL_CACHE.get(key)
    if kernel is None:
        kernel = _Packed(p, n)
        if p ** n <= _CACHE_LIMIT:
            _KERNEL_CACHE[key] = kernel
    return kernel


def _zero_fibers(field: PrimeField, n: int, order: int, coeffs: Sequence[int]) -> int:
    """K: the fixings of the leading order-1 slots that leave the zero form.

    The walk fixes the leading slots down to the leaf order s (a tensor of
    order s is its one leaf), one y per line: T(cy, ...) = c T(y, ...) has
    the zero fibers of T(y, ...) for c != 0, so a line stands for p - 1
    fixings.  With q = p^n, the q^(s-1) (q^(d-s) - (q-1)^(d-s)) fixings
    that put y = 0 in some walked slot leave the zero tensor.  The leaves
    are order-3 tensors, counted by :meth:`_Packed.slice_fibers`, at p = 2
    where the order-2 memo is off and 2^n <= _CACHE_LIMIT (its planes hold
    n^2 2^n bits); elsewhere they are matrices.
    """
    p = field.p
    if order == 1:
        return 0 if any(coeffs) else 1
    kernel = _kernel(p, n)
    stop, fibers = 2, kernel.matrix_fibers
    if p == 2 and order >= 3 and kernel.memo is None and 2 ** n <= _CACHE_LIMIT:
        stop, fibers = 3, kernel.slice_fibers
    leaves = kernel.descend(kernel.pack(coeffs), order, stop, lines=True)
    q = p ** n
    return (q ** (stop - 1) * (q ** (order - stop) - (q - 1) ** (order - stop))
            + (p - 1) ** (order - stop) * sum(map(fibers, leaves)))


# ---------------------------------------------------------------------------
# Engine 1: zero-fiber counting
# ---------------------------------------------------------------------------

def bias_fiber(t: Tensor, budget: int = DEFAULT_BUDGET) -> BiasValue:
    """Count fixings of the leading d-1 slots that kill the linear form left.

    Returns K / q^(n(d-1)) with K the number of zero fibers.  The walk
    fixes the leading slots down to order 2, where a matrix of rank r
    has q^(n-r) zero fibers; at p = 2 past the order-2 memo it stops at
    order 3 (see :func:`_zero_fibers`).  Order 1 is the base case: bias 1
    for the zero form, 0 otherwise.
    """
    if t.order < 1:
        raise ValueError("bias is defined for order >= 1")
    p = t.field.p
    exponent = t.dim * (t.order - 1)
    _check_budget(p ** exponent, budget, "zero-fiber enumeration")
    k = _zero_fibers(t.field, t.dim, t.order, t.coeffs)
    if t.order >= 2 and k < 1:
        raise AssertionError("multilinear bias must be positive for order >= 2")
    return BiasValue(k, exponent, p)


# ---------------------------------------------------------------------------
# Engine 2: block factoring over the fiber count
# ---------------------------------------------------------------------------

def _components(t: Tensor) -> list[list[int]]:
    """Connected coordinate blocks: indices co-occurring in some entry."""
    parent = list(range(t.dim))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    seen = set()
    for idx, _ in t.nonzero_entries():
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
    """The fiber count after factoring disjoint coordinate blocks.

    Bias is multiplicative across blocks that share no coordinate, so K is
    the product of the K of each block, counted once per distinct block by
    the fiber engine's walk, times q^(d-1) for each coordinate outside
    every block; the value is the fiber engine's.  The budget is checked
    before any walk: q^m for each node of order >= 3 that the walk of a
    distinct m-dimensional block expands, so tensors that factor into
    small blocks stay cheap even when the dense enumeration would not.
    """
    if t.order < 1:
        raise ValueError("bias is defined for order >= 1")
    p, n, order = t.field.p, t.dim, t.order
    blocks = Counter((len(comp), tuple(_block_cells(t.coeffs, n, order, comp)))
                     for comp in _components(t))
    work = 0
    for m, _ in blocks:
        lines = (p ** m - 1) // (p - 1)
        work += p ** m * sum(lines ** j for j in range(order - 2))
    _check_budget(work, budget, "recursive bias")
    k = p ** ((n - sum(m * count for (m, _), count in blocks.items())) * (order - 1))
    for (m, cells), count in blocks.items():
        k *= _zero_fibers(t.field, m, order, cells) ** count
    return BiasValue(k, n * (order - 1), p)


# ---------------------------------------------------------------------------
# Engine 3: full value histogram, by the rank-free value walk
# ---------------------------------------------------------------------------

def _value_counts(p: int, n: int, order: int, components) -> list[int]:
    """How often R(x) = sum of R_I(x^I) takes each value: the value walk.

    `components` pairs each slot set I with its tensor R_I, whose slots are
    those of I in increasing order.  Their homogenized tensor is counted by
    :func:`_lane_counts` where its lanes fit and by :func:`_keyed_counts`
    elsewhere.
    """
    size = n + 1
    cells = [0] * size ** order
    for slots, tensor in components:
        for idx, c in tensor.nonzero_entries():
            digits = iter(idx)
            flat = 0
            for slot in range(order):
                flat = flat * size + (next(digits) if slot in slots else n)
            cells[flat] = c
    kernel = _kernel(p, size)
    if order >= 2 and n >= 2 and p ** (2 * n) <= _CACHE_LIMIT:
        return _lane_counts(kernel, kernel.pack(cells), order)
    return _keyed_counts(kernel, kernel.pack(cells), order)


def _keyed_counts(kernel: _Packed, x: int, order: int) -> list[int]:
    """The value walk down to order 1: each distinct affine form left in the
    last slot is evaluated in Gray order from its constant coefficient."""
    p, size = kernel.p, kernel.n
    forms = Counter(kernel.keys(kernel.descend(x, order, 1, lines=False), size))
    steps = kernel.gray()[size - 1]
    counts = [0] * p
    for form, count in forms.items():
        if p == 2:
            form = kernel.cells(form, size)
        deltas = list(form) + [-c for c in form]
        value = form[size - 1]
        counts[value] += count
        for step in steps:
            value += deltas[step]
            counts[value % p] += count
    return counts


def _lane_counts(kernel: _Packed, x: int, order: int) -> list[int]:
    """The value walk down to order-3 nodes (an order-2 tensor is one node of
    one slice), each slice held as its values on the lanes of
    :meth:`_Packed.lane_products`; a Gray walk of the node's leading slot
    adds one slice per step and tallies every lane."""
    p, size = kernel.p, kernel.n
    area, products, counts = size * size, kernel.lane_products(), [0] * p
    slices, steps = (1, ()) if order == 2 else (size, kernel.gray()[size - 1])
    nodes = kernel.descend(x, order, 3, lines=False) if order > 2 else (x,)
    plus = partial(combine_masks, op=add, q=p)
    zero = [(1 << p ** (2 * size - 2)) - 1] + [0] * (p - 1)
    for node in kernel.keys(nodes, slices * area):
        if p == 2:
            cells = kernel.cells(node, slices * area)
            vectors = [reduce(xor, compress(products, cells[k * area:(k + 1) * area]), 0)
                       for k in range(slices)]
            deltas = vectors + vectors
            walk = accumulate(steps, lambda f, step: f ^ deltas[step], initial=vectors[-1])
            counts[1] += sum(map(int.bit_count, walk))
            continue
        vectors = [reduce(plus, [products[c][i] for i, c in enumerate(node[k * area:(k + 1) * area])
                                 if c], zero) for k in range(slices)]
        deltas = vectors + [[f[0]] + f[:0:-1] for f in vectors]
        for f in accumulate(steps, lambda f, step: plus(f, deltas[step]), initial=vectors[-1]):
            for v in range(1, p):
                counts[v] += f[v].bit_count()
    counts[0] = p ** ((size - 1) * order) - sum(counts)
    return counts


def bias_histogram(t: Tensor, budget: int = DEFAULT_BUDGET) -> tuple[ValueHistogram, BiasValue]:
    """Evaluate T on every input, tally values, and recover the bias.

    The value walk evaluates each distinct linear form that a fixing of the
    leading d-1 slots leaves in the last slot on every x once; no rank is
    taken.  Multilinearity makes the nonzero values equidistributed, so the
    character sum collapses to (N_0 * q - q^(nd)) / (q^n (q-1) q^(n(d-1)))
    and the division is exact; the engine asserts that.
    """
    if t.order < 1:
        raise ValueError("bias is defined for order >= 1")
    p, n = t.field.p, t.dim
    total = p ** (n * t.order)
    _check_budget(total, budget, "value histogram")
    counts = _value_counts(p, n, t.order, [(range(t.order), t)])
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
    """Histogram of R over all inputs, by the value walk, plus its (complex) bias."""
    if form.order < 1:
        raise ValueError("bias is defined for order >= 1")
    p = form.field.p
    total = p ** (form.dim * form.order)
    _check_budget(total, budget, "multi-component enumeration")
    counts = _value_counts(p, form.dim, form.order, form.components.items())
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
