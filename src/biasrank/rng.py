"""Deterministic pseudo-randomness built on SplitMix64.

Every randomized routine in the package draws from SplitMix64 so that a
given seed yields identical values on every platform and Python version.
Uniform residues are produced by rejection sampling, which keeps the
distribution exactly uniform for any modulus.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


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


def substream(seed: int, index: int) -> SplitMix64:
    """Independent generator for trial `index` of a run seeded with `seed`.

    The derivation is fixed (seed XOR index * odd constant) so trial
    results are reproducible regardless of evaluation order.
    """
    return SplitMix64((seed ^ (index * 0xA3EC647659359ACD)) & _MASK64)
