"""Portable seedable random stream (SplitMix64).

All randomness that feeds query streams goes through :class:`SplitMix64`
so that a given 64-bit seed reproduces the same parameter sequence on any
platform and in any implementation of the same scheme.  The generator is
the standard SplitMix64 mix function (Steele, Lea, Flood 2014) applied to
a counter advanced by the golden-gamma constant; uniform doubles take the
53 high bits of each output.  The mix runs on uint64 arrays, a block of
outputs per call, and wraps modulo 2^64 as the scheme does.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
#: (shift, multiplier) of the two mixing rounds, and the final shift
_ROUNDS = tuple((np.uint64(shift), np.uint64(multiplier)) for shift, multiplier
                in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)))
_LAST_SHIFT = np.uint64(31)
_MANTISSA_SHIFT = np.uint64(11)


class SplitMix64:
    """Deterministic 64-bit generator; one instance per stream."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK

    def next_block(self, n: int) -> np.ndarray:
        """The next n outputs, in stream order, as a uint64 array.

        Array arithmetic on uint64 wraps without a warning (a numpy scalar
        would warn), so the counters and the mix stay in arrays.
        """
        z = (np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
             + np.uint64(self._state))
        self._state = (self._state + n * _GAMMA) & _MASK
        for shift, multiplier in _ROUNDS:
            z = (z ^ (z >> shift)) * multiplier
        return z ^ (z >> _LAST_SHIFT)

    def uniform_array(self, lows, highs, shape) -> np.ndarray:
        """Uniform doubles in [lo, hi), drawn in C order over ``shape``;
        ``lows`` and ``highs`` broadcast against it (one interval per
        component along the last axis)."""
        u = (self.next_block(math.prod(shape)) >> _MANTISSA_SHIFT) * 2.0**-53
        lows = np.asarray(lows, dtype=float)
        return lows + (np.asarray(highs, dtype=float) - lows) * u.reshape(shape)
