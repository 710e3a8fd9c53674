"""Exact arithmetic in prime fields F_p and dense linear algebra over them.

Residues are plain Python ints in [0, p).  Vectors are tuples of residues
and matrices are sequences of rows; :class:`PrimeField` carries the
modulus and all modular arithmetic.  Ranks come from one Gaussian
elimination per field kind: :func:`gf2_rank` on rows packed as int
bitsets, by word-wide XOR, and :func:`rank_mod_p` on rows of residues
for odd p.  :func:`matrix_rank` dispatches between them, and the bias
kernel calls both directly on its packed matrices.  :class:`Cells` is the
one packed layout of reduced vectors, for the rank code and the p = 2 restriction.

A function on q^m points can be held as q value masks, bit x of mask v set
where it takes value v (:func:`digit_masks`, :func:`combine_masks`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, repeat
from operator import lshift, xor
from typing import Iterable, Sequence

from .rng import SplitMix64

# Largest accepted modulus: keeps a*b inside a 64-bit word on any backend
# that stores residues in machine words.
MAX_MODULUS = 1 << 31

Vector = tuple[int, ...]

# Binary digits '0'/'1' to the bytes 0/1, and back: every nonzero byte to '1'.
_BITS = bytes.maketrans(b"01", b"\x00\x01")
_DIGITS = b"0" + b"1" * 255


def is_prime(n: int) -> bool:
    """Primality by trial division (moduli here are small by contract)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class PrimeField:
    """The prime field F_p; all elements are residues in [0, p)."""

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int):
            raise TypeError("modulus must be an int")
        if self.p >= MAX_MODULUS:
            raise ValueError(f"modulus {self.p} exceeds limit {MAX_MODULUS}")
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    def inv(self, a: int) -> int:
        """Multiplicative inverse by Fermat's little theorem."""
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0 in a prime field")
        return pow(a, self.p - 2, self.p)

    def elements(self) -> range:
        return range(self.p)

    def __str__(self) -> str:
        return f"F_{self.p}"


# ---------------------------------------------------------------------------
# Ranks, packed vectors and random bases
# ---------------------------------------------------------------------------

def gf2_rank(rows: Iterable[int]) -> int:
    """Rank over F_2 of rows packed as int bitsets, by word-wide XOR.

    Each nonzero row in turn becomes a pivot on its lowest set bit and is
    XORed into every remaining row that has that bit.
    """
    rows = list(rows)
    rank = 0
    while rows:
        pivot = rows.pop()
        if pivot:
            low = pivot & -pivot
            for i, r in enumerate(rows):
                if r & low:
                    rows[i] = r ^ pivot
            rank += 1
    return rank


def rank_mod_p(p: int, rows: Iterable[Sequence[int]]) -> int:
    """Rank over F_p of rows of nonnegative ints, read mod p.

    Each row in turn becomes a pivot on its first entry nonzero mod p and
    is eliminated from every remaining row; no reduced form is kept.
    """
    rows = list(rows)
    rank = 0
    while rows:
        pivot = rows.pop()
        for col, lead in enumerate(pivot):
            if lead % p:
                break
        else:
            continue
        inv = pow(lead, p - 2, p)
        for i, r in enumerate(rows):
            f = r[col] * inv % p
            if f:
                rows[i] = [(a - f * b) % p for a, b in zip(r, pivot)]
        rank += 1
    return rank


def matrix_rank(field: PrimeField, rows: Sequence[Sequence[int]]) -> int:
    """Exact rank over F_p.  Empty matrices have rank 0."""
    rows = [tuple(r) for r in rows]
    if not rows or not rows[0]:
        return 0
    ncols = len(rows[0])
    for r in rows:
        if len(r) != ncols:
            raise ValueError("ragged matrix")
    if field.p == 2:
        return gf2_rank(sum(1 << j for j, x in enumerate(r) if x & 1) for r in rows)
    return rank_mod_p(field.p, rows)


class Cells:
    """Vectors of `count` residues mod p packed in one int, cell 0 highest, so
    packed ints sort as the tuples of their cells.  A cell is a bit at p = 2,
    added by XOR; at odd p it holds 2(p - 1), so a sum has no carry, and each
    of its cells sheds p where adding 2^(w-1) - p sets the cell's top bit."""

    def __init__(self, p: int, count: int):
        w = 1 if p == 2 else (2 * p - 2).bit_length()
        ones = ((1 << w * count) - 1) // ((1 << w) - 1)
        lift, high = ones * ((1 << w - 1) - p), ones << w - 1
        self.p, self.count, self.w, self.mask = p, count, w, (1 << w) - 1
        self.shifts = range(w * count - w, -1, -w)
        self.add = xor if p == 2 else lambda a, b: (x := a + b) - ((x + lift & high) >> w - 1) * p

    def pack(self, cells: Sequence[int]) -> int:
        if self.p == 2:
            return int(bytes(cells).translate(_DIGITS) or b"0", 2)
        return sum(map(lshift, cells, self.shifts))

    def cells(self, x: int) -> list[int]:
        if self.p == 2:
            return list(bin(x | 1 << self.count)[3:].encode().translate(_BITS))
        return [x >> shift & self.mask for shift in self.shifts]

    def scale(self, x: int, c: int) -> int:
        """c x for c >= 1: doubled at each bit of c below its top, x added at each 1."""
        out = x
        for bit in bin(c)[3:]:
            out = self.add(self.add(out, out), x) if bit == "1" else self.add(out, out)
        return out

    def multiples(self, x: int) -> list[int]:
        """c x for c = 0, ..., p - 1."""
        return list(accumulate(repeat(x, self.p - 1), self.add, initial=0))

    def rank(self, xs: Iterable[int]) -> int:
        return gf2_rank(xs) if self.p == 2 else rank_mod_p(self.p, map(self.cells, xs))

    def echelon(self, xs: Iterable[int]) -> list[tuple[int, int, list[int]]]:
        """An echelon basis of the span of xs, as (pivot, form, -c form for c = 0, ..., p - 1).
        Each pivot is the first cell nonzero in any vector left, taken from the first such
        vector; its form is that vector scaled to 1 there, and is cleared from the others."""
        xs, cut, p, w = [x for x in xs if x], [], self.p, self.w
        while xs:
            tops = [(x.bit_length() - 1) // w for x in xs]
            x = xs.pop(tops.index(top := max(tops)))
            negated = self.multiples(self.scale(x, -pow(x >> top * w, -1, p) % p))
            cut.append((self.count - 1 - top, negated[-1], negated))  # (p - 1)(-form) = form
            xs = [y for y in (self.add(y, negated[y >> top * w & self.mask]) for y in xs) if y]
        return cut

    def reduce(self, x: int, cut) -> int:
        """x less the multiples of an :meth:`echelon` cut's forms that clear each pivot in turn."""
        add, mask, shifts = self.add, self.mask, self.shifts
        for q, _, negated in cut:
            x = add(x, negated[x >> shifts[q] & mask])
        return x


# ---------------------------------------------------------------------------
# Functions held as value masks
# ---------------------------------------------------------------------------

def digit_masks(q: int, m: int) -> list[list[int]]:
    """For each base-q digit k < m of the points 0 .. q^m - 1, the q masks of
    the points whose digit k is v."""
    full = (1 << q ** m) - 1
    return [[(((1 << q ** k) - 1) << (v * q ** k)) * (full // ((1 << q ** (k + 1)) - 1))
             for v in range(q)] for k in range(m)]


@lru_cache(maxsize=64)
def mod_table(p: int) -> bytes:
    """The byte table of c -> c mod p, which `bytes.translate` reads."""
    return bytes(c % p for c in range(256))


def combine_masks(f: Sequence[int], g: Sequence[int], op, q: int) -> list[int]:
    """op(f, g) mod q, each function listing the bitmask where it takes each value."""
    h = [0] * q
    for u, fu in enumerate(f):
        if fu:
            for v, gv in enumerate(g):
                h[op(u, v) % q] |= fu & gv
    return h


def random_vector(field: PrimeField, n: int, gen: SplitMix64) -> Vector:
    return gen.residues(field.p, n)


def random_full_rank_basis(field: PrimeField, n: int, k: int, gen: SplitMix64) -> tuple[Vector, ...]:
    """k linearly independent vectors in F_p^n, by rejection."""
    if k > n:
        raise ValueError("cannot pick more independent vectors than the dimension")
    while True:
        cand = tuple(random_vector(field, n, gen) for _ in range(k))
        if matrix_rank(field, cand) == k:
            return cand
