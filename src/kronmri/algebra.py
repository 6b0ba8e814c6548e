"""Fixed mixing-matrix sets for known hypercomplex algebras.

Three presets: real (n=1), complex (n=2), quaternion (n=4). Each preset is
the list of sign matrices whose weighted sum sum_i q_i * M[i] equals the
left-multiplication matrix of the element q in that algebra, with basis
order (1, i) for complex and (1, i, j, k) for quaternions, Hamilton
convention. A Kronecker layer carrying a preset as its frozen mixing set
therefore realizes the algebra product exactly, which `verify_algebra`
checks against a direct multiplication-table oracle; it returns the
record `kronmri verify-algebra` prints per preset (`preset`, `trials`,
`max_abs_deviation`, `tolerance`, `passed`).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NumericError
from .layers import KroneckerLinear
from .rng import Rng

# The most trials `verify_algebra` runs: about 2 minutes per preset on a
# 2-core Xeon (one trial takes about 0.1 ms), so a typo cannot run for ever.
MAX_TRIALS = 10**6

_REAL = [np.array([[1.0]])]

_COMPLEX = [
    np.array([[1.0, 0.0],
              [0.0, 1.0]]),
    np.array([[0.0, -1.0],
              [1.0, 0.0]]),
]

# Left Hamilton matrices: column u of _QUATERNION[i] is e_i * e_u expressed
# in the (1, i, j, k) basis.
_QUATERNION = [
    np.eye(4),
    np.array([[0.0, -1.0, 0.0, 0.0],
              [1.0, 0.0, 0.0, 0.0],
              [0.0, 0.0, 0.0, -1.0],
              [0.0, 0.0, 1.0, 0.0]]),
    np.array([[0.0, 0.0, -1.0, 0.0],
              [0.0, 0.0, 0.0, 1.0],
              [1.0, 0.0, 0.0, 0.0],
              [0.0, -1.0, 0.0, 0.0]]),
    np.array([[0.0, 0.0, 0.0, -1.0],
              [0.0, 0.0, -1.0, 0.0],
              [0.0, 1.0, 0.0, 0.0],
              [1.0, 0.0, 0.0, 0.0]]),
]

_PRESETS = {"real": _REAL, "complex": _COMPLEX, "quaternion": _QUATERNION}

# Structure constants e_i * e_j = sign * e_index, one table per algebra.
# Entry [i][j] = (index, sign).
_TABLES = {
    "real": [[(0, 1.0)]],
    "complex": [
        [(0, 1.0), (1, 1.0)],
        [(1, 1.0), (0, -1.0)],
    ],
    "quaternion": [
        [(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)],
        [(1, 1.0), (0, -1.0), (3, 1.0), (2, -1.0)],
        [(2, 1.0), (3, -1.0), (0, -1.0), (1, 1.0)],
        [(3, 1.0), (2, 1.0), (1, -1.0), (0, -1.0)],
    ],
}


class AlgebraPreset:
    """Named algebra with its mixing matrices and multiplication table."""

    def __init__(self, name: str):
        if name not in _PRESETS:
            raise ConfigError(f"unknown algebra preset {name!r} "
                              f"(known: {', '.join(sorted(_PRESETS))})")
        self.name = name
        self.matrices = [m.copy() for m in _PRESETS[name]]
        self.n = len(self.matrices)

    def product(self, q: np.ndarray, p: np.ndarray) -> np.ndarray:
        """q * p by direct table lookup (the oracle path, no matrices)."""
        q = np.asarray(q, dtype=np.float64)
        p = np.asarray(p, dtype=np.float64)
        if q.shape != (self.n,) or p.shape != (self.n,):
            raise ConfigError(f"coefficient vectors must have length {self.n}")
        out = np.zeros(self.n)
        table = _TABLES[self.name]
        for i in range(self.n):
            for j in range(self.n):
                idx, sign = table[i][j]
                out[idx] += sign * q[i] * p[j]
        return out

    def layer(self, q: np.ndarray, dtype=np.float64) -> KroneckerLinear:
        """Kronecker layer computing x -> q * x, mixing frozen to the preset."""
        q = np.asarray(q, dtype=dtype)
        layer = KroneckerLinear(self.n, self.n, self.n, dtype=dtype, mixing=self.matrices)
        layer.blocks.data[...] = q[:, None, None]
        return layer


def preset(name: str) -> AlgebraPreset:
    return AlgebraPreset(name)


def verify_algebra(algebra: AlgebraPreset, trials: int, rng: Rng,
                   tol: float = 1e-10) -> dict:
    """Check the layer realization against the multiplication-table oracle.

    For random coefficient vectors p, q the layer built from the preset with
    block weights q must map p to q * p. Returns the record `kronmri
    verify-algebra` prints for the preset: `preset` (its name), `trials`,
    `max_abs_deviation` (the worst over every trial), `tolerance` (`tol`)
    and `passed`. Raises NumericError, its message holding that record, if
    any trial deviates by more than `tol`. `trials` must be in
    [1, MAX_TRIALS] and `tol` finite and >= 0 (ConfigError otherwise).
    """
    if not 1 <= trials <= MAX_TRIALS:
        raise ConfigError(f"trials must be in [1, {MAX_TRIALS}], got {trials}")
    if not (np.isfinite(tol) and tol >= 0):
        raise ConfigError(f"tol must be finite and >= 0, got {tol}")
    from .tensor import Tensor

    worst = 0.0
    for _ in range(trials):
        q = rng.uniform((algebra.n,), -2.0, 2.0)
        p = rng.uniform((algebra.n,), -2.0, 2.0)
        layer = algebra.layer(q)
        got = layer(Tensor(p[None, :])).data[0]
        want = algebra.product(q, p)
        worst = max(worst, float(np.max(np.abs(got - want))))
    record = {"preset": algebra.name, "trials": trials, "max_abs_deviation": worst,
              "tolerance": tol, "passed": worst <= tol}
    if not record["passed"]:
        raise NumericError(f"algebra verification failed: {record}")
    return record
