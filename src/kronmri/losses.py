"""Composite training loss for complex-image reconstruction.

L = alpha * charbonnier(xhat, x)
  + beta  * charbonnier(fft2c(xhat), fft2c(x))

Both terms run on 2-channel complex pairs through tape ops, so the total is
differentiable w.r.t. the reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tensor as T
from .errors import ConfigError, ShapeError
from .kspace import fft2c
from .tensor import Tensor

CHARBONNIER_EPS = 1e-3


@dataclass
class LossWeights:
    alpha: float = 15.0
    beta: float = 0.1

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ConfigError(f"loss weights must be non-negative, got "
                              f"({self.alpha}, {self.beta})")


def charbonnier(a: Tensor, b: Tensor, eps: float = CHARBONNIER_EPS) -> Tensor:
    """Smooth L1: mean of sqrt((a-b)^2 + eps^2). Differentiable at a == b."""
    if eps <= 0:
        raise ConfigError(f"charbonnier eps must be positive, got {eps}")
    if a.shape != b.shape:
        raise ShapeError(f"charbonnier shape mismatch: {a.shape} vs {b.shape}")
    d = T.sub(a, b)
    return T.mean_(T.sqrt_(T.add(T.mul(d, d), float(eps * eps))))


def loss_total(xhat: Tensor, x: Tensor, weights: LossWeights | None = None,
               eps: float = CHARBONNIER_EPS) -> Tensor:
    """Weighted image + frequency loss, scalar."""
    if xhat.shape != x.shape:
        raise ShapeError(f"loss_total shape mismatch: {xhat.shape} vs {x.shape}")
    w = weights if weights is not None else LossWeights()
    return T.add(T.scale(charbonnier(xhat, x, eps), w.alpha),
                 T.scale(charbonnier(fft2c(xhat), fft2c(x), eps), w.beta))
