"""Seeded splitmix64 generator for reproducible sample points.

The generator advances a 64-bit counter by the golden-gamma constant and
scrambles it with two xor-multiply rounds.  Identical seeds give
identical streams on every platform, which is what report reproducibility
needs; statistical quality beyond that is not a goal here.
"""

from __future__ import annotations

from typing import Sequence

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """splitmix64 stream seeded by one 64-bit integer."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """Uniform double in [lo, hi) with 53 mantissa bits."""
        unit = (self.next_u64() >> 11) * (2.0 ** -53)
        return lo + (hi - lo) * unit

    def point_in_box(self, region: Sequence[tuple[float, float]]) -> list[float]:
        return [self.uniform(float(lo), float(hi)) for lo, hi in region]
