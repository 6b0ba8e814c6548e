"""Reconstruction quality metrics on magnitude images.

Both metrics take plain 2-D arrays (a Tensor is a ShapeError) and a
`data_range`, the dynamic range of the ground truth. They are evaluation
code: pure numpy in float64, no autodiff involvement.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def _as_image(x, op: str) -> np.ndarray:
    arr = np.asarray(x)
    if arr.ndim != 2:
        raise ShapeError(f"{op} expects a 2-D magnitude image, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NumericError(f"{op}: non-finite pixels")
    return arr.astype(np.float64)


def _finite(score, op: str) -> float:
    """`score` as a float; finite pixels can still overflow the float64
    arithmetic of a metric, which is a NumericError, not a score."""
    if not np.isfinite(score):
        raise NumericError(f"{op}: the score overflowed to {float(score)}")
    return float(score)


def psnr(xhat, x, data_range: float) -> float:
    """Peak signal-to-noise ratio in dB: 10*log10(range^2 / MSE).

    Returns +inf when the images are identical (MSE exactly zero).
    """
    a = _as_image(xhat, "psnr")
    b = _as_image(x, "psnr")
    if a.shape != b.shape:
        raise ShapeError(f"psnr shape mismatch: {a.shape} vs {b.shape}")
    if not (np.isfinite(data_range) and data_range > 0):
        raise ConfigError(f"data_range must be finite and positive, got {data_range}")
    with np.errstate(all="ignore"):
        mse = float(np.mean((a - b) ** 2))
        if mse == 0.0:
            return float("inf")
        return _finite(10.0 * np.log10(data_range * data_range / mse), "psnr")


def _gaussian_taps() -> np.ndarray:
    half = (SSIM_WINDOW - 1) / 2.0
    coords = np.arange(SSIM_WINDOW) - half
    g = np.exp(-(coords ** 2) / (2.0 * SSIM_SIGMA ** 2))
    return g / g.sum()


_TAPS = _gaussian_taps()


def _local_means(img: np.ndarray) -> np.ndarray:
    """Weighted mean over every valid 11x11 window. The normalized Gaussian
    window is the outer product of `_TAPS` with itself, so it is applied
    as two 1-D passes, 11 shifted multiply-adds along each axis."""
    ho, wo = img.shape[0] - SSIM_WINDOW + 1, img.shape[1] - SSIM_WINDOW + 1
    rows = _TAPS[0] * img[:, :wo]
    for j in range(1, SSIM_WINDOW):
        rows += _TAPS[j] * img[:, j:j + wo]
    out = _TAPS[0] * rows[:ho]
    for i in range(1, SSIM_WINDOW):
        out += _TAPS[i] * rows[i:i + ho]
    return out


def ssim(xhat, x, data_range: float) -> float:
    """Mean structural similarity over valid windows (Gaussian weighting).

    Identical inputs give exactly 1.0: every statistic of the two images is
    computed through the same expressions, so numerator and denominator of
    each window ratio are bitwise equal.
    """
    a = _as_image(xhat, "ssim")
    b = _as_image(x, "ssim")
    if a.shape != b.shape:
        raise ShapeError(f"ssim shape mismatch: {a.shape} vs {b.shape}")
    if a.shape[0] < SSIM_WINDOW or a.shape[1] < SSIM_WINDOW:
        raise ShapeError(f"ssim needs at least {SSIM_WINDOW}x{SSIM_WINDOW} images, "
                         f"got {a.shape}")
    if not (np.isfinite(data_range) and data_range > 0):
        raise ConfigError(f"data_range must be finite and positive, got {data_range}")

    try:
        c1 = (SSIM_K1 * data_range) ** 2
        c2 = (SSIM_K2 * data_range) ** 2
    except OverflowError:
        raise NumericError(f"ssim: data_range {data_range} overflows the window constants")
    with np.errstate(all="ignore"):
        mu_a = _local_means(a)
        mu_b = _local_means(b)
        var_a = _local_means(a * a) - mu_a * mu_a
        var_b = _local_means(b * b) - mu_b * mu_b
        cov = _local_means(a * b) - mu_a * mu_b

        num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
        den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
        return _finite(np.mean(num / den), "ssim")
