"""Deterministic 64-bit random number generation.

Implements SplitMix64 in counter mode: draw k is a pure function of
(seed, k), so streams can be generated in bulk with numpy and are
bit-identical across platforms and runs. `fork` derives independent child
streams for submodules (layer init, per-sample masks, shuffling) without
any shared mutable state beyond the draw counter.
"""

from __future__ import annotations

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)

# float64 mantissa scale: u64 >> 11 gives 53 random bits
_INV_2_53 = 1.0 / float(1 << 53)


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _M1
    z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


class Rng:
    """Counter-based SplitMix64 stream.

    Every draw advances an integer counter; the k-th output is
    mix64(seed + (k+1) * GAMMA) regardless of how draws were batched, so
    `Rng(s).uniform(10)` and ten calls of `Rng(s).uniform(1)` agree bitwise.
    """

    def __init__(self, seed: int):
        self.seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self.counter = np.uint64(0)

    def _raw(self, count: int) -> np.ndarray:
        if count < 0:
            raise ValueError(f"draw count must be >= 0, got {count}")
        with np.errstate(over="ignore"):
            ks = self.counter + np.uint64(1) + np.arange(count, dtype=np.uint64)
            out = _mix64(self.seed + ks * _GAMMA)
        self.counter = self.counter + np.uint64(count)
        return out

    def uniform(self, shape, low: float = 0.0, high: float = 1.0,
                dtype=np.float64) -> np.ndarray:
        """Uniform floats in [low, high), drawn in row-major order.

        Values are built from the top 53 bits of each word, so the base
        draw in [0, 1) is exact in float64 and identical for both dtypes
        before the final cast.
        """
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        u = (self._raw(n) >> np.uint64(11)).astype(np.float64) * _INV_2_53
        out = low + u * (high - low)
        return out.reshape(shape).astype(dtype)

    def shuffle(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n) (Fisher–Yates on drawn words)."""
        perm = np.arange(n)
        if n < 2:
            return perm
        words = self._raw(n - 1)
        for i in range(n - 1, 0, -1):
            j = int(words[n - 1 - i] % np.uint64(i + 1))
            perm[i], perm[j] = perm[j], perm[i]
        return perm

    def fork(self, *tags: int) -> "Rng":
        """Child stream keyed by integer tags; advances this stream one draw
        per tag."""
        child = self
        with np.errstate(over="ignore"):
            for tag in tags:
                mixed = _mix64(child._raw(1)[0] ^ (np.uint64(tag & 0xFFFFFFFFFFFFFFFF) * _GAMMA))
                child = Rng(int(mixed))
        return child
