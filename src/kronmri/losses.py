"""Composite training loss for complex-image reconstruction.

L = ALPHA * charbonnier(xhat, x)
  + BETA  * charbonnier(fft2c(xhat), fft2c(x))

with ALPHA = 15 on the image term and BETA = 0.1 on the frequency term.
Both terms run on 2-channel complex pairs through tape ops, so the total is
differentiable w.r.t. the reconstruction.
"""

from __future__ import annotations

from . import tensor as T
from .errors import ShapeError
from .kspace import fft2c
from .tensor import Tensor

ALPHA = 15.0
BETA = 0.1
CHARBONNIER_EPS = 1e-3


def charbonnier(a: Tensor, b: Tensor) -> Tensor:
    """Smooth L1: mean of sqrt((a-b)^2 + eps^2) with eps = CHARBONNIER_EPS.
    Differentiable at a == b."""
    if a.shape != b.shape:
        raise ShapeError(f"charbonnier shape mismatch: {a.shape} vs {b.shape}")
    d = T.sub(a, b)
    return T.mean_(T.sqrt_(T.add(T.mul(d, d), CHARBONNIER_EPS * CHARBONNIER_EPS)))


def loss_total(xhat: Tensor, x: Tensor) -> Tensor:
    """Weighted image + frequency loss, scalar."""
    if xhat.shape != x.shape:
        raise ShapeError(f"loss_total shape mismatch: {xhat.shape} vs {x.shape}")
    return T.add(T.mul(charbonnier(xhat, x), ALPHA),
                 T.mul(charbonnier(fft2c(xhat), fft2c(x)), BETA))
