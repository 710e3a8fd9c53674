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
lane.  :func:`residue_rows` turns such a batch into the rows that
`SplitMix64.residues` gives, and falls back to `residues` if any word of
the batch is rejected; `residues` stays the stream API and the reference.
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


def substream_seed(seed: int, index: int) -> int:
    """The seed of :func:`substream`: seed XOR index * odd constant."""
    return (seed ^ (index * _SUBSTREAM)) & _MASK64


def substream(seed: int, index: int) -> SplitMix64:
    """Independent generator for trial `index` of a run seeded with `seed`.

    The derivation is fixed (:func:`substream_seed`) so trial results are
    reproducible regardless of evaluation order.
    """
    return SplitMix64(substream_seed(seed, index))


def words(seeds: Sequence[int], count: int) -> list[int]:
    """The first `count` next_u64 words of SplitMix64(s) for each seed s, seed by seed.

    Every word is a 64-bit lane of one int, 128 bits apart.  The lane mask
    clears each lane's high half before a multiply, so no product carries
    into the next lane, and before a shift, so none shifts into this one.
    """
    if count <= 0 or not seeds:
        return []
    mask, steps = _lanes(count, len(seeds))
    z = int.from_bytes(b"".join([(s & _MASK64).to_bytes(16, "little") * count for s in seeds]),
                       "little")
    z = (z + steps) & mask
    z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
    z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
    z ^= z >> 31
    out = array("Q", z.to_bytes(16 * count * len(seeds), "little"))
    if sys.byteorder == "big":
        out.byteswap()
    return out[::2].tolist()


@lru_cache(maxsize=4)
def _lanes(count: int, streams: int) -> tuple[int, int]:
    """The lane mask of count * streams lanes, and (j + 1) gamma in lane j mod count."""
    steps = b"".join([((j + 1) * _GAMMA & _MASK64).to_bytes(16, "little") for j in range(count)])
    return (int.from_bytes((b"\xff" * 8 + bytes(8)) * (count * streams), "little"),
            int.from_bytes(steps * streams, "little"))


def residue_rows(bound: int, count: int, seeds: Sequence[int]) -> list[tuple[int, ...]]:
    """SplitMix64(s).residues(bound, count) for each seed s, from one batch of words.

    If any word of the batch is rejected, every row is drawn by `residues`.
    """
    if bound <= 0:
        raise ValueError("bound must be positive")
    if count <= 0 or not seeds:
        return [()] * len(seeds)
    flat = words(seeds, count)
    if max(flat) >= (1 << 64) - ((1 << 64) % bound):
        return [SplitMix64(s).residues(bound, count) for s in seeds]
    flat = [w % bound for w in flat]
    return [tuple(flat[i:i + count]) for i in range(0, len(flat), count)]
