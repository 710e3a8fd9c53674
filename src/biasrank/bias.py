"""Exact bias and analytic rank of tensors over prime fields.

The bias of an order-d tensor equals the probability that fixing d-1
of its arguments (whichever slot is left free) leaves an identically-zero
linear form; it is therefore an exact rational K / q^(n(d-1)) with
integer K, which is what every engine here returns.

Every engine descends through one walk, :meth:`_Packed.descend`, on one
packed-slice kernel per field size and dimension.  It walks the leading
slots in reflected q-ary Gray-code order, so consecutive contractions
differ by one slice (one XOR of int bitsets at q = 2), and at odd q it
reduces every intermediate tensor before walking it.  The walk may carry
several tensors of one shape as the lanes of one int, each at its own
offset: a step adds (or XORs) slice k of every lane at once, and one
byte-table translate reduces every lane.

* :func:`fiber_counts` counts zero fibers, K, for a list of coefficient
  rows, up to _LANES of them on one walk.  The walk goes down to order 2,
  where a matrix of rank r has q^(n-r) zero fibers; scalar multiples of a
  fixing leave the same zero fibers, so one fixing per line is walked.
  At an order-2 leaf every lane's memo key is read, the missing keys are
  counted, and the rest are looked up in one pass.  At q = 2 where the
  order-2 memo is off (n >= 4, and n <= 1) and 2^n <= _CACHE_LIMIT it
  stops at order 3 instead: :meth:`_Packed.slice_fibers` bit-slices the
  2^n matrices T(y, ., .) of every lane of a leaf and ranks them all in
  one Gauss-Jordan pass, with at most _CACHE_LIMIT (tensor, y) lanes.
  One row is one lane: :func:`bias_fiber` counts its tensor on a walk of
  one lane, with the same code.
* :func:`bias_recursive` factors the tensor once into disjoint coordinate
  blocks (bias is multiplicative across them) and counts each distinct
  block's sub-tensor once by the fiber engine's count; the value is the same.
* :func:`bias_histogram` takes no rank: it counts the values of T on all
  q^(nd) inputs by the value walk below and extracts the same rational.

The value walk serves the histogram and :func:`bias_multiform`.  It
homogenizes a multi-component form R on (F_q^n)^d into one order-d tensor
T on F_q^(n+1) whose last coordinate in a slot stands for "this slot is not
in the component", so R(x) = T((x^1, 1), ..., (x^d, 1)): R_I is the
sub-tensor of T on coordinates 0..n-1 in the slots of I and on n elsewhere,
and a plain tensor is the form with only its top component.  Where d >= 2,
n >= 2 and q^(2n) <= _CACHE_LIMIT the q^(2n) arguments of the last two
slots are the lanes of an int, and a Gray walk of the third adds one
slice's values per step.  Elsewhere, the keyed walk, it walks down to
order 1 and evaluates each distinct affine form left in the last slot on
every x once, weighted by its count.

The fiber count ends in :meth:`_Packed.matrix_counts`, which memoizes the
order-2 count q^(n-rank) on its cached kernel when the key space is small:
for n >= 2 and q^(n^2) <= 2^12 (q = 2 with n <= 3, and n = 2 with q <= 7).
The key is the reduced matrix (the packed int at q = 2, the cells reduced
mod q at odd q), so a memo never holds more than q^(n^2) entries however
many distinct inputs a process sees; nothing is built before the first
walk.  At odd q with one-byte cells and q^(2n) <= _CACHE_LIMIT (the
histogram's lane bound) no leaf is ranked: q^(n-rank) counts the w with
row . w = 0 for every row, the bit count of the AND of the rows' zero sets,
q^n-bit masks kept by reduced row (at most q^n) and filled on first sight.

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
from functools import lru_cache, partial, reduce, total_ordering
from itertools import accumulate, chain, compress, repeat
from operator import add, and_, lshift, mul, or_, rshift, sub, xor
from typing import Iterable, Iterator, Optional, Sequence

from .gf import PrimeField, combine_masks, digit_masks, gf2_rank, mod_table, rank_mod_p
from .gf import matrix_rank  # noqa: F401  (the benchmark tracer wraps bias.matrix_rank)
from .tensor import MultiComponentForm, Tensor, block_cells, placed

DEFAULT_BUDGET = 10 ** 8

# Packing kernels, with their Gray tables, are cached only for p^n up to this size.
_CACHE_LIMIT = 1 << 16

# Rows whose fiber counts share one walk, at most.
_LANES = 64

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

@total_ordering
class BiasValue:
    """Exact rational numerator / base^exponent, kept unreduced.

    Comparisons cross-multiply arbitrary-precision integers, so equality
    and order between values with different exponents are exact; the order
    is derived from `<` and `==`.
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

    def __lt__(self, other) -> bool:
        a, b = self._cross(other)
        return a < b

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
# Binary digits '0'/'1' to the bytes 0/1, and back: every nonzero byte to '1'.
_BITS = bytes.maketrans(b"01", b"\x00\x01")
_DIGITS = b"0" + b"1" * 255


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
    odd p with one-byte cells, and None otherwise.  `zero_sets` (None at
    p = 2, with wider cells, or where p^(2n) > _CACHE_LIMIT) maps each row r
    of a leaf to the mask of the w in F_p^n with r . w = 0, filled by
    :meth:`_key_fibers` on first sight.  `gray_table` is built by
    :meth:`gray` on the first walk, `lane_table` by the first
    :meth:`lane_products`, `fiber_lanes` (the masks {y : y_k = 1} of one
    tensor's 2^n lanes) by the first :meth:`slice_fibers`.

    A walk carries tensors of one shape as the lanes of one int (see
    :meth:`descend`); a lone tensor is a walk of one lane, on the same code.
    """

    __slots__ = ("p", "n", "width", "bits", "powers", "column_mask", "memo", "reduce",
                 "zero_sets", "gray_table", "lane_table", "fiber_lanes")

    def __init__(self, p: int, n: int):
        self.p, self.n = p, n
        self.width = max(1, ((n * (p - 1) ** 2).bit_length() + 7) // 8)
        self.bits = 1 if p == 2 else 8 * self.width
        self.powers = [p ** (n - r) for r in range(n + 1)]
        self.column_mask = (1 << (self.bits * n)) - 1
        small = n >= 2 and p ** (n * n) <= _MEMO_KEYS and (p == 2 or self.width == 1)
        self.memo = {} if small else None
        self.reduce = mod_table(p) if p != 2 and self.width == 1 else None
        self.zero_sets = {} if self.reduce and p ** (2 * n) <= _CACHE_LIMIT else None
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

    def walk(self, x: int, order: int, lines: bool, rep: int = 1):
        """T(y, ...) for y in F_p^n in Gray order, each one slice away.

        With `lines`, one y per line through 0: the y whose last nonzero
        digit is 1.  Digit k set to 1, the first p^k - 1 Gray steps walk the
        digits below k and visit those whose last nonzero digit is k.
        Without, the coset of the y whose last digit is 1: the last line.
        `rep` has bit 0 of every lane of x set (see :meth:`descend`).
        """
        slices = self.slices(x, order, rep)
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

    def descend(self, x: int, order: int, stop: int, lines: bool,
                lanes: int = 1) -> Iterator[int]:
        """The packed order-`stop` tensors left by walking the leading slots.

        Each slot from `order` down to stop + 1 is walked as in :meth:`walk`;
        at odd p every intermediate tensor is reduced before its own walk,
        so x must be reduced and every leaf is one contraction deep.  x may
        hold `lanes` tensors, lane i from cell i n^order on: every step
        slices, steps and reduces all lanes at once, and every node holds
        lane i's node from that cell on.
        """
        if order == stop:
            return iter((x,))
        stride = self.n ** order
        rep = int("1".rjust(self.bits * stride, "0") * lanes, 2)
        reach = (lanes - 1) * stride

        def nodes(x: int, order: int) -> Iterator[int]:
            children = self.walk(x, order, lines, rep)
            if order - 1 == stop:
                return children
            children = self.reduced(children, reach + self.n ** (order - 1))
            return chain.from_iterable(nodes(child, order - 1) for child in children)

        return nodes(x, order)

    def slices(self, x: int, order: int, rep: int = 1) -> list[int]:
        """The n slices of a packed order-`order` tensor along its leading slot,
        of every lane of x where `rep` has bit 0 of each lane set."""
        shift = self.bits * self.n ** (order - 1)
        mask = ((1 << shift) - 1) * rep
        return [(x >> (k * shift)) & mask for k in range(self.n)]

    def contract(self, slices: Sequence[int], ws: Iterable, order: int) -> list[int]:
        """T(w, ...) = sum_k w_k slice_k, reduced, for each w in ws, from the
        :meth:`slices` of an order-`order` T with reduced cells."""
        if self.p == 2:
            return [reduce(xor, compress(slices, w), 0) for w in ws]
        return list(self.reduced([sum(map(mul, w, slices)) for w in ws], self.n ** (order - 1)))

    def restrict(self, cells: Sequence[int], order: int, basis: Sequence) -> bytes:
        """At p = 2, the cells of T(B., ..., B.) for basis vectors B, each at T's cell of the same
        index (the n stride): slot by slot, the earlier slots lanes, output j to slice j."""
        n, x = self.n, self.pack(cells)
        for m in range(order, 0, -1):  # each lane holds an order-m tensor, its leading slot next
            slices = self.slices(x, m, ((1 << n ** order) - 1) // ((1 << n ** m) - 1))
            x = sum(y << j * n ** (m - 1) for j, y in enumerate(self.contract(slices, basis, m)))
        return self.cells(x, n ** order)

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

    def matrix_counts(self, leaves: Iterable[int], lanes: int, stride: int) -> list[int]:
        """For each lane, the sum of p^(n - rank) over its matrices in the packed
        order-2 leaves, lane i's from cell i stride on, memoized if on.

        Every lane's key is read first (its cells as an int at p = 2, as
        bytes or a list at odd p, reduced where they are memo keys); the keys
        the memo lacks are counted and filled in, and the rest are looked up
        in one pass.  A lone matrix is one lane: `lanes` 1, any stride >= n^2.
        """
        area, memo, reach = self.n * self.n, self.memo, lanes * stride
        if self.p == 2:
            mask, starts = (1 << area) - 1, range(0, reach, stride)
            keys = [(x >> j) & mask for x in leaves for j in starts]
        else:  # one-byte cells are reduced by one translate; rank_mod_p reduces wider ones
            if self.reduce is None:
                cells = [c for x in leaves for c in self.cells(x, reach)]
            else:
                raw = b"".join([x.to_bytes(reach, "little") for x in leaves])
                cells = raw.translate(self.reduce)
            keys = [cells[j:j + area] for j in range(0, len(cells), stride)]
        if memo is None:
            fibers = self._key_fibers(keys)
        else:
            fibers = list(map(memo.get, keys))
            if None in fibers:
                missing = list(set(keys).difference(memo))
                memo.update(zip(missing, self._key_fibers(missing)))
                fibers = list(map(memo.__getitem__, keys))
        return [sum(fibers[i::lanes]) for i in range(lanes)]

    def _key_fibers(self, keys: list) -> list[int]:
        """p^(n - rank) for each matrix given by its key: its packed int at
        p = 2, its n^2 cells (read mod p) at odd p.  Where `zero_sets` is on
        it takes no rank: p^(n - rank) is the bit count of the AND of the
        rows' zero sets.  Byte w of digit k below is w_k, so a row's sum of
        row_k digit k holds each row . w, unreduced, in byte w."""
        n, span = self.n, range(0, self.n * self.n, self.n)
        if self.p == 2:
            mask = self.column_mask
            return [self.powers[gf2_rank([(key >> j) & mask for j in span])] for key in keys]
        zeros, p = self.zero_sets, self.p
        if zeros is None:
            return [self.powers[rank_mod_p(p, [key[j:j + n] for j in span])] for key in keys]
        rows = [key[j:j + n] for key in keys for j in span]
        missing = set(rows).difference(zeros)
        if missing:
            zero = self.reduce.translate(b"1" + b"0" * 255)
            digits = [int.from_bytes(b"".join(bytes([v]) * p ** k for v in range(p))
                                     * p ** (n - 1 - k), "little") for k in range(n)]
            for row in missing:
                values = sum(map(mul, row, digits)).to_bytes(p ** n, "little")
                zeros[row] = int(values.translate(zero), 2)
        masks = list(map(zeros.__getitem__, rows))
        return list(map(int.bit_count, reduce(partial(map, and_), [masks[k::n] for k in range(n)])))

    def slice_fibers(self, leaves: Iterable[int], lanes: int, stride: int) -> list[int]:
        """For each lane, the sum over its packed order-3 leaves T at p = 2
        (lane i's from cell i stride on) of the sum over y in F_2^n of
        2^(n - rank T(y, ., .)), by one Gauss-Jordan pass per leaf over all
        lanes (i, y) at once.

        Bit i 2^n + y of plane c is cell c of lane i's T(y, ., .): the XOR of
        the masks {(i, y) : y_k = 1} over the (i, k) whose cell c is 1.
        `spans[c]` holds the lanes with a pivot in column c and `pivots[c]`
        their pivot rows.
        """
        n = self.n
        area, full, shifts = n * n, (1 << (lanes << n)) - 1, range(0, lanes << n, 1 << n)
        digits = self.fiber_lanes
        if digits is None:
            digits = self.fiber_lanes = [masks[1] for masks in digit_masks(2, n)]
        # one mask per slice position of a lane; past the first n they hold no cells
        padded = digits + [0] * (stride // area - n)
        table = [mask << shift for shift in shifts for mask in padded]
        suffix, weights = [0] * lanes, range(n, -1, -1)  # suffix[i]: the count over lanes >= i
        for x in leaves:
            cells = self.cells(x, (lanes - 1) * stride + n * area)
            planes = [reduce(xor, compress(table, cells[c::area]), 0) for c in range(area)]
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
            for i, shift in enumerate(shifts):
                counts = map(int.bit_count, map(rshift, ranks, repeat(shift)))
                suffix[i] += sum(map(lshift, counts, weights))
        return list(map(sub, suffix, suffix[1:] + [0]))


def _kernel(p: int, n: int) -> _Packed:
    key = (p, n)
    kernel = _KERNEL_CACHE.get(key)
    if kernel is None:
        kernel = _Packed(p, n)
        if p ** n <= _CACHE_LIMIT:
            _KERNEL_CACHE[key] = kernel
    return kernel


def fiber_counts(field: PrimeField, dim: int, order: int, rows: Sequence[Sequence[int]],
                 budget: Optional[int] = DEFAULT_BUDGET) -> list[int]:
    """K of each coefficient row: the fixings of the leading order-1 slots
    that leave the zero form, for order-`order` tensors on F_p^dim.

    Up to _LANES rows at a time are the lanes of one packed int, row i from
    cell i n^order on, and walk together (:meth:`_Packed.descend`).  The walk
    fixes the leading slots down to the leaf order s (a tensor of order s
    is its one leaf), one y per line: T(cy, ...) = c T(y, ...) has the zero
    fibers of T(y, ...) for c != 0, so a line stands for p - 1 fixings.
    With q = p^n, the q^(s-1) (q^(d-s) - (q-1)^(d-s)) fixings that put y = 0
    in some walked slot leave the zero tensor.  The leaves are order-3
    tensors, counted by :meth:`_Packed.slice_fibers`, at p = 2 where the
    order-2 memo is off and 2^n <= _CACHE_LIMIT (its planes hold n^2 2^n
    bits per lane, so fewer rows share a walk as n grows); elsewhere they
    are matrices.  The budget is checked once, as by :func:`bias_fiber`,
    where there is a row; None skips it for a caller that charged the walk.
    """
    p, n = field.p, dim
    rows = list(rows)
    if rows and budget is not None:
        _check_budget(p ** (n * (order - 1)), budget, "zero-fiber enumeration")
    if order == 1 or not n:
        return [int(not any(row)) for row in rows]
    kernel = _kernel(p, n)
    stop, leaf_counts, lanes = 2, kernel.matrix_counts, _LANES
    if p == 2 and order >= 3 and kernel.memo is None and 2 ** n <= _CACHE_LIMIT:
        stop, leaf_counts, lanes = 3, kernel.slice_fibers, min(lanes, _CACHE_LIMIT >> n)
    q, stride = p ** n, n ** order
    walked = order - stop
    base, scale = q ** (stop - 1) * (q ** walked - (q - 1) ** walked), (p - 1) ** walked
    counts = []
    for start in range(0, len(rows), lanes):
        batch = rows[start:start + lanes]
        x = kernel.pack(list(chain.from_iterable(batch)))
        leaves = kernel.descend(x, order, stop, lines=True, lanes=len(batch))
        counts += [base + scale * s for s in leaf_counts(leaves, len(batch), stride)]
    return counts


# ---------------------------------------------------------------------------
# Engine 1: zero-fiber counting
# ---------------------------------------------------------------------------

def bias_fiber(t: Tensor, budget: int = DEFAULT_BUDGET) -> BiasValue:
    """Count fixings of the leading d-1 slots that kill the linear form left.

    Returns K / q^(n(d-1)) with K the number of zero fibers.  The walk
    fixes the leading slots down to order 2, where a matrix of rank r
    has q^(n-r) zero fibers; at p = 2 past the order-2 memo it stops at
    order 3 (see :func:`fiber_counts`).  Order 1 is the base case: bias 1
    for the zero form, 0 otherwise.
    """
    if t.order < 1:
        raise ValueError("bias is defined for order >= 1")
    exponent = t.dim * (t.order - 1)
    k, = fiber_counts(t.field, t.dim, t.order, [t.coeffs], budget)
    if t.order >= 2 and k < 1:
        raise AssertionError("multilinear bias must be positive for order >= 2")
    return BiasValue(k, exponent, t.field.p)


# ---------------------------------------------------------------------------
# Engine 2: block factoring over the fiber count
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _touching(n: int, d: int) -> tuple[int, ...]:
    """For each coordinate i < n, the mask of the cells of an order-d tensor
    on F^n with i in their index."""
    return tuple(reduce(or_, masks, 0) for masks in zip(*digit_masks(n, d)))


def _components(t: Tensor) -> list[tuple[int, ...]]:
    """Connected coordinate blocks: indices co-occurring in some entry, each
    block sorted, in the order of their least index.

    The support is one bitset of cells.  A block grows from its least index
    to every index whose cells meet the support cells the block touches, and
    those cells then leave the support.
    """
    touching = _touching(t.dim, t.order)
    cells = t.coeffs if t.field.p <= 256 else map(bool, t.coeffs)
    support = int(bytes(cells)[::-1].translate(_DIGITS) or b"0", 2)
    blocks = []
    for mask in touching:
        block, cells = [], support & mask
        while cells and len(block) < len(grown := [i for i, m in enumerate(touching) if cells & m]):
            block = grown
            cells = support & reduce(or_, map(touching.__getitem__, block))
        if block:
            support ^= cells
            blocks.append(tuple(block))
    return blocks


def bias_recursive(t: Tensor, budget: int = DEFAULT_BUDGET) -> BiasValue:
    """The fiber count after factoring disjoint coordinate blocks.

    Bias is multiplicative across blocks that share no coordinate, so K is
    the product of the K of each block, counted once per distinct block by
    :func:`fiber_counts`, times q^(d-1) for each coordinate outside every
    block; the value is the fiber engine's.  The budget is checked before
    any walk: q^m for each node of order >= 3 that the walk of a distinct
    m-dimensional block expands, so tensors that factor into small blocks
    stay cheap even when the dense enumeration would not.
    """
    if t.order < 1:
        raise ValueError("bias is defined for order >= 1")
    p, n, order, coeff = t.field.p, t.dim, t.order, t.coeffs.__getitem__
    blocks = Counter((len(comp), tuple(map(coeff, block_cells(n, (comp,) * order))))
                     for comp in _components(t))
    work = 0
    for m, _ in blocks:
        lines = (p ** m - 1) // (p - 1)
        work += p ** m * sum(lines ** j for j in range(order - 2))
    _check_budget(work, budget, "recursive bias")
    k = p ** ((n - sum(m * count for (m, _), count in blocks.items())) * (order - 1))
    for (m, cells), count in blocks.items():
        k *= fiber_counts(t.field, m, order, [cells], None)[0] ** count
    return BiasValue(k, n * (order - 1), p)


# ---------------------------------------------------------------------------
# Engine 3: full value histogram, by the rank-free value walk
# ---------------------------------------------------------------------------

def _value_counts(p: int, n: int, order: int, components) -> list[int]:
    """How often R(x) = sum of R_I(x^I) takes each value: the value walk.

    `components` pairs each slot set I with the coefficients of R_I (a tuple or
    bytes), whose slots are those of I in increasing order.  Their homogenized
    tensor is counted by :func:`_lane_counts` where its lanes fit and by
    :func:`_keyed_counts` elsewhere.
    """
    components = list(components) or [((), (0,))]  # no component: the zero constant
    size, rows = n + 1, [coeffs for _, coeffs in components]
    cells = placed(size, _homogenized(n, order, tuple(slots for slots, _ in components)), rows)
    kernel = _kernel(p, size)
    if order >= 2 and n >= 2 and p ** (2 * n) <= _CACHE_LIMIT:
        return _lane_counts(kernel, kernel.pack(cells), order)
    return _keyed_counts(kernel, kernel.pack(cells), order)


@lru_cache(maxsize=64)
def _homogenized(n: int, order: int, slot_sets: tuple) -> tuple:
    """Where each R_I sits in the homogenized tensor: 0..n-1 in the slots of I, n elsewhere."""
    coords = tuple(range(n))
    return tuple(tuple(coords if slot in slots else (n,) for slot in range(order))
                 for slots in slot_sets)


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
    counts = _value_counts(p, n, t.order, [(range(t.order), t.coeffs)])
    hist = ValueHistogram(p, tuple(counts), total)
    numerator = counts[0] * p - total
    denominator = (p ** n) * (p - 1)
    if numerator % denominator != 0:
        raise AssertionError("histogram numerator must divide exactly for a multilinear form")
    return hist, BiasValue(numerator // denominator, n * (t.order - 1), p)


# The engines by name, each (t, budget) -> BiasValue, in report order.
ENGINES = {
    "fiber": bias_fiber,
    "recursive": bias_recursive,
    "histogram": lambda t, budget=DEFAULT_BUDGET: bias_histogram(t, budget)[1],
}


def bias_all_engines(t: Tensor, budget: int = DEFAULT_BUDGET) -> dict[str, BiasValue]:
    """Every engine of :data:`ENGINES` keyed by name; raises if they disagree."""
    values = {name: engine(t, budget) for name, engine in ENGINES.items()}
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
    return _multiform_bias(form.field, form.dim, form.order,
                           [(slots, t.coeffs) for slots, t in form.components.items()], budget)


def _multiform_bias(field: PrimeField, dim: int, order: int, components,
                    budget: int) -> MultiformBias:
    """:func:`bias_multiform` of the form whose components :func:`_value_counts` reads."""
    if order < 1:
        raise ValueError("bias is defined for order >= 1")
    p, total = field.p, field.p ** (dim * order)
    _check_budget(total, budget, "multi-component enumeration")
    counts = _value_counts(p, dim, order, components)
    hist = ValueHistogram(p, tuple(counts), total)
    if p == 2:
        exact = Fraction(counts[0] - counts[1], total)
        value = complex(exact)
        return MultiformBias(hist, value, abs(exact), 0.0, exact)
    value = sum(counts[v] * chi(field, v) for v in range(p)) / total
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
