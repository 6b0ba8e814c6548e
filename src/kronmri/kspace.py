"""Fourier-domain simulation: centered FFTs, Cartesian masks, phantoms.

Complex images and k-space grids travel as 2-channel real tensors with the
channel axis third from the right ([2,H,W] or [B,2,H,W]); channel 0 is the
real part, channel 1 the imaginary part.

`fft2c`/`ifft2c` use the centered orthonormal convention (ifftshift, unitary
2-D DFT, fftshift) and are exact inverses. Both are differentiable: the real
representation of a unitary map is orthogonal, so each one's backward pass
is the other's forward applied to the gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .rng import Rng
from .tensor import Tensor

CENTER_FRACTION_DEFAULTS = {8: 0.04, 16: 0.02}


def _require_complex_pair(t: Tensor, op: str) -> None:
    if t.data.ndim < 3 or t.shape[-3] != 2:
        raise ShapeError(f"{op} expects [..., 2, H, W], got {t.shape}")


def _fft2c_data(x: np.ndarray, inverse: bool) -> np.ndarray:
    # Overflow on finite input near the dtype's limit is reported once, by
    # the calling op's finite check, not by numpy warnings first.
    with np.errstate(all="ignore"):
        z = x[..., 0, :, :] + 1j * x[..., 1, :, :]
        z = np.fft.ifftshift(z, axes=(-2, -1))
        z = (np.fft.ifft2 if inverse else np.fft.fft2)(z, norm="ortho")
        z = np.fft.fftshift(z, axes=(-2, -1))
        out = np.stack([z.real, z.imag], axis=-3)
        # numpy's FFT keeps the input's precision (complex64 in, complex64
        # out), so this cast copies nothing; it only pins the output dtype.
        return out.astype(x.dtype, copy=False)


def fft2c(img: Tensor) -> Tensor:
    """Centered orthonormal 2-D DFT of a 2-channel complex image."""
    _require_complex_pair(img, "fft2c")
    out = _fft2c_data(img.data, inverse=False)

    def vjp(g, needs):
        return (_fft2c_data(g, inverse=True),)

    return T._apply("fft2c", (img,), out, vjp)


def ifft2c(k: Tensor) -> Tensor:
    """Inverse of fft2c."""
    _require_complex_pair(k, "ifft2c")
    out = _fft2c_data(k.data, inverse=True)

    def vjp(g, needs):
        return (_fft2c_data(g, inverse=False),)

    return T._apply("ifft2c", (k,), out, vjp)


def complex_magnitude(img: np.ndarray) -> np.ndarray:
    """Pointwise magnitude of a 2-channel complex image array, [..., H, W];
    a Tensor is a ShapeError (pass its `.data`)."""
    arr = np.asarray(img)
    if arr.ndim < 3 or arr.shape[-3] != 2:
        raise ShapeError(f"complex_magnitude expects [..., 2, H, W], got {arr.shape}")
    return np.hypot(arr[..., 0, :, :], arr[..., 1, :, :])


@dataclass
class CartesianMask:
    """Column-sampling pattern for one k-space grid."""

    width: int
    af: int
    center_fraction: float
    sampled: np.ndarray  # float64 vector of 0.0/1.0 per column

    @property
    def center_columns(self) -> int:
        return int(np.ceil(self.center_fraction * self.width))

    @property
    def sampled_fraction(self) -> float:
        return float(self.sampled.mean())


def gen_cartesian_mask(width: int, af: int, center_fraction: float | None = None,
                       *, rng: Rng) -> CartesianMask:
    """Random Cartesian column mask at acceleration factor `af`.

    A band of ceil(center_fraction*width) central columns is always
    sampled, and it holds column width//2, where `fft2c` puts DC: it
    starts at (width - center)//2, or further right where that band would
    end before width//2 (one column at an even width). Each remaining
    column is kept with probability
    p = (width/af - center) / (width - center), which makes the expected
    sampled fraction exactly 1/af.
    """
    if af not in CENTER_FRACTION_DEFAULTS:
        raise ConfigError(f"acceleration factor must be one of "
                          f"{sorted(CENTER_FRACTION_DEFAULTS)}, got {af}")
    if width < 16:
        raise ConfigError(f"mask width must be >= 16, got {width}")
    if center_fraction is None:
        center_fraction = CENTER_FRACTION_DEFAULTS[af]
    if not 0.0 < center_fraction < 1.0:
        raise ConfigError(f"center_fraction must be in (0, 1), got {center_fraction}")

    center = int(np.ceil(center_fraction * width))
    rest = width - center
    if rest == 0:
        raise ConfigError(
            f"center_fraction {center_fraction} covers all {width} columns; "
            f"nothing is left to undersample")
    p = (width / af - center) / rest
    if not 0.0 <= p <= 1.0:
        raise ConfigError(
            f"center_fraction {center_fraction} incompatible with af {af}: "
            f"outside-probability {p:.4f} not in [0, 1]")

    sampled = np.zeros(width, dtype=np.float64)
    start = max((width - center) // 2, width // 2 - center + 1)
    sampled[start:start + center] = 1.0
    draws = rng.uniform((rest,))
    outside = np.flatnonzero(sampled == 0.0)
    sampled[outside[draws < p]] = 1.0
    return CartesianMask(width, af, center_fraction, sampled)


def apply_mask(k: Tensor, columns) -> Tensor:
    """Zero the unmeasured k-space columns; measured ones pass through
    bit-identical, phase included. The one column-selection op.

    `columns` holds 0 or 1 per column, bool or float: `[W]` is one mask for
    every sample, `[B,1,1,W]` one per sample of a `[B,2,H,W]` batch. Other
    values are a ConfigError, other shapes a ShapeError.
    """
    _require_complex_pair(k, "apply_mask")
    cols = np.asarray(columns)
    if cols.shape not in (k.shape[-1:], k.shape[:-3] + (1, 1) + k.shape[-1:]):
        raise ShapeError(f"mask of shape {cols.shape} is not [W] or [B,1,1,W] "
                         f"for k-space of shape {k.shape}")
    if not np.isin(cols, (0, 1)).all():
        raise ConfigError("mask values must be 0 or 1")
    keep = cols.astype(bool, copy=False)
    out = np.where(keep, k.data, k.data.dtype.type(0.0))

    def vjp(g, needs):
        return (np.where(keep, g, g.dtype.type(0.0)),)

    return T._apply("apply_mask", (k,), out, vjp)


def gen_phantom(height: int, width: int, n_ellipses: int, rng: Rng,
                dtype=np.float64) -> Tensor:
    """Synthetic complex phantom: random ellipses plus a smooth phase map.

    Magnitude is the clipped-to-[0,1] sum of ellipse intensities; phase is a
    quadratic polynomial over the grid rescaled into [-pi/4, pi/4]. Returns
    a [2, H, W] tensor (real, imag).
    """
    if height < 16 or width < 16:
        raise ConfigError(f"phantom size must be >= 16, got {height}x{width}")
    if n_ellipses < 0:
        raise ConfigError(f"n_ellipses must be >= 0, got {n_ellipses}")

    v, u = np.meshgrid(np.linspace(-1.0, 1.0, height),
                       np.linspace(-1.0, 1.0, width), indexing="ij")
    mag = np.zeros((height, width))
    if n_ellipses:
        draws = rng.uniform((n_ellipses, 6))
        for cx, cy, sa, sb, rot, inten in draws:
            cx = -0.55 + 1.1 * cx
            cy = -0.55 + 1.1 * cy
            a = 0.08 + 0.42 * sa
            b = 0.08 + 0.42 * sb
            theta = np.pi * rot
            inten = 0.2 + 0.8 * inten
            du, dv = u - cx, v - cy
            ru = du * np.cos(theta) + dv * np.sin(theta)
            rv = -du * np.sin(theta) + dv * np.cos(theta)
            mag += inten * (((ru / a) ** 2 + (rv / b) ** 2) <= 1.0)
        mag = np.clip(mag, 0.0, 1.0)

    coeffs = rng.uniform((6,), -1.0, 1.0)
    amp = rng.uniform((1,), 0.0, np.pi / 4)[0]
    phase = (coeffs[0] + coeffs[1] * u + coeffs[2] * v
             + coeffs[3] * u * u + coeffs[4] * u * v + coeffs[5] * v * v)
    peak = np.max(np.abs(phase))
    phase = phase * (amp / peak) if peak > 0 else np.zeros_like(phase)

    out = np.stack([mag * np.cos(phase), mag * np.sin(phase)]).astype(dtype)
    return Tensor(out)
