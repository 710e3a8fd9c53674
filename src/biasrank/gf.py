"""Exact arithmetic in prime fields F_p and dense linear algebra over them.

Residues are plain Python ints in [0, p).  Vectors are tuples of residues
and matrices are sequences of rows; :class:`PrimeField` carries the
modulus and all modular arithmetic.  Ranks come from one Gaussian
elimination per field kind: :func:`gf2_rank` on rows packed as int
bitsets, by word-wide XOR, and :func:`rank_mod_p` on rows of residues
for odd p.  :func:`matrix_rank` dispatches between them, and the bias
kernel calls both directly on its packed matrices.

A function on q^m points can be held as q value masks, bit x of mask v set
where it takes value v (:func:`digit_masks`, :func:`combine_masks`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .rng import SplitMix64

# Largest accepted modulus: keeps a*b inside a 64-bit word on any backend
# that stores residues in machine words.
MAX_MODULUS = 1 << 31

Vector = tuple[int, ...]


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
# Ranks and random bases
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
