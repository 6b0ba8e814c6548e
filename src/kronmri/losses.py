"""Composite training loss for complex-image reconstruction.

L = alpha * charbonnier(xhat, x)
  + beta  * charbonnier(fft2c(xhat), fft2c(x))
  + gamma * mean |f(xhat) - f(x)|        (optional feature extractor)

All terms run on 2-channel complex pairs through tape ops, so the total is
differentiable w.r.t. the reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .kspace import fft2c
from .layers import DENSE, KroneckerConv2d
from .rng import Rng
from .tensor import Tensor

CHARBONNIER_EPS = 1e-3


@dataclass
class LossWeights:
    alpha: float = 15.0
    beta: float = 0.1
    gamma: float = 0.0025

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0 or self.gamma < 0:
            raise ConfigError(f"loss weights must be non-negative, got "
                              f"({self.alpha}, {self.beta}, {self.gamma})")


def charbonnier(a: Tensor, b: Tensor, eps: float = CHARBONNIER_EPS) -> Tensor:
    """Smooth L1: mean of sqrt((a-b)^2 + eps^2). Differentiable at a == b."""
    if eps <= 0:
        raise ConfigError(f"charbonnier eps must be positive, got {eps}")
    if a.shape != b.shape:
        raise ShapeError(f"charbonnier shape mismatch: {a.shape} vs {b.shape}")
    d = T.sub(a, b)
    return T.mean_(T.sqrt_(T.add(T.mul(d, d), float(eps * eps))))


class ConvFeatureExtractor:
    """Frozen random conv stack usable as the perceptual feature map.

    Stands in for a pretrained feature network: two 3x3 convs with ReLU,
    weights drawn once from the seed and never trained. Accepts [2,H,W] or
    [B,2,H,W] complex pairs.
    """

    def __init__(self, seed: int = 0, channels: int = 8, dtype=np.float32):
        rng = Rng(seed)
        self.conv1 = KroneckerConv2d(2, channels, 3, 1, padding=1, rng=rng.fork(0),
                                     dtype=dtype, **DENSE)
        self.conv2 = KroneckerConv2d(channels, channels, 3, 1, padding=1, rng=rng.fork(1),
                                     dtype=dtype, **DENSE)
        for layer in (self.conv1, self.conv2):
            for p in layer.parameters():
                p.requires_grad = False

    def __call__(self, img: Tensor) -> Tensor:
        x = T.reshape(img, (1,) + img.shape) if img.data.ndim == 3 else img
        return self.conv2(T.relu(self.conv1(x)))


def loss_total(xhat: Tensor, x: Tensor, weights: LossWeights | None = None,
               extractor=None, eps: float = CHARBONNIER_EPS) -> Tensor:
    """Weighted image + frequency (+ optional perceptual) loss, scalar."""
    if xhat.shape != x.shape:
        raise ShapeError(f"loss_total shape mismatch: {xhat.shape} vs {x.shape}")
    w = weights if weights is not None else LossWeights()
    total = T.add(T.scale(charbonnier(xhat, x, eps), w.alpha),
                  T.scale(charbonnier(fft2c(xhat), fft2c(x), eps), w.beta))
    if extractor is not None and w.gamma != 0.0:
        perc = T.mean_(T.abs_(T.sub(extractor(xhat), extractor(x))))
        total = T.add(total, T.scale(perc, w.gamma))
    return total
