"""Deterministic pseudo-randomness built on SplitMix64.

Every randomized routine in the package draws from SplitMix64 so that a
given seed yields identical values on every platform and Python version.
Uniform residues are produced by rejection sampling, which keeps the
distribution exactly uniform for any modulus.

Word j of SplitMix64(s) (Steele, Lea and Flood 2014) is
mix(s + (j + 1) gamma), so the words of many generators do not depend on
each other.  :func:`words` computes a batch of them at once: each word is
a 64-bit lane of one int, the lanes 128 bits apart and read in an explicit
byte order, and each step of the mix is a few big-int operations on every
lane.  :func:`residue_cells` turns such a batch into the rows that
`SplitMix64.residues` gives, a byte per residue below bound 257, and falls back
to `residues` if any word is rejected; `residues` stays the stream API and the reference.
:class:`Prefetched` is a stream that reads its first words from such a batch.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from typing import Sequence

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_SUBSTREAM = 0xA3EC647659359ACD


class SplitMix64:
    """SplitMix64: 64-bit state, one avalanche mix per output."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), exact via rejection sampling."""
        return self.residues(bound, 1)[0]

    def residues(self, bound: int, count: int) -> tuple[int, ...]:
        """`count` uniform integers in [0, bound), exact via rejection sampling.

        A next_u64 word at or above the largest multiple of bound that fits
        in 64 bits is rejected.  The mix of next_u64 is inlined, so a draw
        costs no call.
        """
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % bound)
        state = self._state
        out = []
        while count > 0:
            state = (state + _GAMMA) & _MASK64
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            z ^= z >> 31
            if z < limit:
                out.append(z % bound)
                count -= 1
        self._state = state
        return tuple(out)


class Prefetched(SplitMix64):
    """SplitMix64(seed) whose first words are `ahead`, the words :func:`words` gives it, read
    without mixing; past them it goes on from word len(ahead) (:func:`skip`).  So every read
    is SplitMix64(seed)'s, a rejected word included."""

    __slots__ = ("_ahead",)

    def __init__(self, seed: int, ahead: Sequence[int]):
        self._state = skip(seed, len(ahead))
        self._ahead = iter(ahead)

    def next_u64(self) -> int:
        word = next(self._ahead, None)
        return SplitMix64.next_u64(self) if word is None else word

    def residues(self, bound: int, count: int) -> tuple[int, ...]:
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit, out = (1 << 64) - ((1 << 64) % bound), []
        if count > 0:
            for word in self._ahead:
                if word < limit:
                    out.append(word % bound)
                    if len(out) == count:
                        return tuple(out)
        return tuple(out) + SplitMix64.residues(self, bound, count - len(out))


def substream_seed(seed: int, index: int) -> int:
    """The seed of :func:`substream`: seed XOR index * odd constant."""
    return (seed ^ (index * _SUBSTREAM)) & _MASK64


def substream(seed: int, index: int) -> SplitMix64:
    """Independent generator for trial `index` of a run seeded with `seed`.

    The derivation is fixed (:func:`substream_seed`) so trial results are
    reproducible regardless of evaluation order.
    """
    return SplitMix64(substream_seed(seed, index))


def skip(seed: int, start: int) -> int:
    """The seed whose words are those of SplitMix64(seed) from word `start` on."""
    return (seed + start * _GAMMA) & _MASK64


def words(seeds: Sequence[int], count: int) -> list[int]:
    """The first `count` next_u64 words of SplitMix64(s) for each seed s, seed by seed."""
    if count <= 0 or not seeds:
        return []
    out = array("Q", _mixed(seeds, count).to_bytes(16 * count * len(seeds), "little"))
    if sys.byteorder == "big":
        out.byteswap()
    return out[::2].tolist()


def _mixed(seeds: Sequence[int], count: int) -> int:
    """The words of :func:`words` in the low halves of 128-bit lanes of one int; the lane
    mask clears each lane's high half before a multiply or a shift, so none crosses lanes."""
    steps, mask = _lanes(count, len(seeds))[:2]
    z = int.from_bytes(b"".join([(s & _MASK64).to_bytes(16, "little") * count for s in seeds]),
                       "little")
    z = (z + steps) & mask
    z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
    z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
    return z ^ (z >> 31)


@lru_cache(maxsize=4)
def _lanes(count: int, streams: int) -> tuple[int, ...]:
    """(j + 1) gamma in lane j mod count of count * streams lanes; their low 64, 1, 32, 41 bits."""
    steps = b"".join([((j + 1) * _GAMMA & _MASK64).to_bytes(16, "little") for j in range(count)])
    ones = int.from_bytes((b"\x01" + bytes(15)) * (count * streams), "little")
    return (int.from_bytes(steps * streams, "little"), ones * _MASK64, ones, ones * 0xFFFFFFFF,
            ones * ((1 << 41) - 1))


def residue_cells(bound: int, count: int, seeds: Sequence[int]) -> Sequence[int]:
    """SplitMix64(s).residues(bound, count) for each seed s, joined, from one batch of words:
    a tuple, or bytes below bound 257, where each lane w of the mixed int is reduced inside it
    as by an invariant integer (Granlund and Montgomery, PLDI 1994): w mod bound is that of
    v = (2^32 mod bound) (w >> 32) + (w mod 2^32) < 2^41, and v // bound = v m >> s for s = 41
    + bound.bit_length() and m = ceil(2^s / bound), as m bound - 2^s < bound <= 2^(s - 41).  w is
    rejected where w + 2^64 mod bound carries into bit 64, and then `residues` draws every row."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    cells, kind = None, bytes if bound <= 256 else tuple
    if count > 0 and seeds and kind is bytes:
        z, (ones, low, below) = _mixed(seeds, count), _lanes(count, len(seeds))[2:]
        if not (z + (1 << 64) % bound * ones) >> 64 & ones:
            v = (z >> 32 & low) * ((1 << 32) % bound) + (z & low)
            shift = 41 + bound.bit_length()
            v -= (v * -(-(1 << shift) // bound) >> shift & below) * bound
            cells = v.to_bytes(16 * count * len(seeds), "little")[::16]
    elif count > 0 and seeds and max(flat := words(seeds, count)) < (1 << 64) - (1 << 64) % bound:
        cells = tuple([w % bound for w in flat])
    return cells if cells is not None else kind(
        [c for s in seeds for c in SplitMix64(s).residues(bound, count)])


def residue_rows(bound: int, count: int, seeds: Sequence[int]) -> list[tuple[int, ...]]:
    """The rows of :func:`residue_cells`, one tuple per seed."""
    cells = residue_cells(bound, count, seeds)
    return [tuple(cells[i * count:(i + 1) * count]) for i in range(len(seeds))]
