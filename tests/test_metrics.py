"""PSNR and SSIM against direct-formula and double-loop oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view

from kronmri.errors import ConfigError, NumericError, ShapeError
from kronmri.kspace import complex_magnitude, gen_phantom
from kronmri.metrics import (SSIM_K1, SSIM_K2, SSIM_SIGMA, SSIM_WINDOW,
                             _local_means, psnr, ssim)
from kronmri.rng import Rng
from kronmri.tensor import Tensor


def gaussian_window_oracle():
    half = (SSIM_WINDOW - 1) / 2.0
    w = np.zeros((SSIM_WINDOW, SSIM_WINDOW))
    for i in range(SSIM_WINDOW):
        for j in range(SSIM_WINDOW):
            w[i, j] = math.exp(-((i - half) ** 2 + (j - half) ** 2)
                               / (2.0 * SSIM_SIGMA ** 2))
    return w / w.sum()


def ssim_oracle(a: np.ndarray, b: np.ndarray, data_range: float) -> float:
    """Per-window double loop: weighted moments computed from scratch."""
    w = gaussian_window_oracle()
    c1 = (SSIM_K1 * data_range) ** 2
    c2 = (SSIM_K2 * data_range) ** 2
    h, wd = a.shape
    vals = []
    for i in range(h - SSIM_WINDOW + 1):
        for j in range(wd - SSIM_WINDOW + 1):
            pa = a[i:i + SSIM_WINDOW, j:j + SSIM_WINDOW]
            pb = b[i:i + SSIM_WINDOW, j:j + SSIM_WINDOW]
            mu_a = (w * pa).sum()
            mu_b = (w * pb).sum()
            var_a = (w * pa * pa).sum() - mu_a ** 2
            var_b = (w * pb * pb).sum() - mu_b ** 2
            cov = (w * pa * pb).sum() - mu_a * mu_b
            vals.append(((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                        / ((mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)))
    return float(np.mean(vals))


def phantom_magnitude(seed: int, size: int = 32) -> np.ndarray:
    img = gen_phantom(size, size, 6, Rng(seed))
    return complex_magnitude(img.data)


class TestPsnr:
    def test_identical_images_inf_sentinel(self):
        a = Rng(3).uniform((16, 16))
        assert psnr(a, a.copy(), data_range=1.0) == float("inf")

    def test_zeros_vs_ones_is_zero_db(self):
        # MSE = 1 with range 1: 10*log10(1/1) = 0
        z = np.zeros((12, 12))
        o = np.ones((12, 12))
        assert psnr(z, o, data_range=1.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 7, 19])
    def test_matches_direct_formula(self, seed):
        rng = Rng(seed)
        a = rng.uniform((20, 20))
        b = rng.uniform((20, 20))
        dr = 2.5
        mse = np.mean((a - b) ** 2)
        expect = 10.0 * np.log10(dr * dr / mse)
        assert abs(psnr(a, b, dr) - expect) < 1e-9

    def test_strictly_decreases_with_noise(self):
        rng = Rng(11)
        base = rng.uniform((24, 24))
        noise = rng.uniform((24, 24), -1, 1)
        vals = [psnr(base + lvl * noise, base, data_range=1.0)
                for lvl in (0.01, 0.05, 0.25)]
        assert vals[0] > vals[1] > vals[2]

    def test_tensors_are_shape_errors(self):
        """The metrics take arrays; a Tensor is not unwrapped."""
        a = Tensor(Rng(5).uniform((16, 16)))
        b = Rng(6).uniform((16, 16))
        for args in ((a, b), (b, a)):
            for metric in (psnr, ssim):
                with pytest.raises(ShapeError):
                    metric(*args, 1.0)
        with pytest.raises(ShapeError):
            complex_magnitude(Tensor(Rng(7).uniform((2, 16, 16))))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            psnr(np.zeros((8, 8)), np.zeros((8, 9)), 1.0)

    def test_non_2d_rejected(self):
        with pytest.raises(ShapeError):
            psnr(np.zeros((2, 8, 8)), np.zeros((2, 8, 8)), 1.0)

    @pytest.mark.parametrize("dr", [0.0, -1.0, math.nan, math.inf])
    def test_bad_data_range_rejected(self, dr):
        with pytest.raises(ConfigError):
            psnr(np.zeros((8, 8)), np.ones((8, 8)), dr)

    @pytest.mark.parametrize("metric", [psnr, ssim])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("which", [0, 1])
    def test_non_finite_pixels_rejected(self, metric, value, which):
        imgs = [np.ones((16, 16)), np.ones((16, 16))]
        imgs[which][3, 5] = value
        with pytest.raises(NumericError):
            metric(*imgs, 1.0)


class TestSsim:
    def test_identical_images_exactly_one(self):
        for seed in range(5):
            a = Rng(seed).uniform((16, 16))
            assert ssim(a, a.copy(), data_range=1.0) == 1.0

    def test_identical_phantom_exactly_one(self):
        mag = phantom_magnitude(2)
        assert ssim(mag, mag.copy(), data_range=float(mag.max())) == 1.0

    def test_inverted_phantom_scores_low(self):
        mag = phantom_magnitude(4, size=48)
        dr = float(mag.max())
        assert ssim(dr - mag, mag, data_range=dr) < 0.3

    @pytest.mark.parametrize("seed", [1, 8, 21])
    def test_matches_double_loop_oracle(self, seed):
        rng = Rng(seed)
        a = rng.uniform((18, 15))
        b = np.clip(a + 0.2 * rng.uniform((18, 15), -1, 1), 0, 1)
        assert abs(ssim(a, b, 1.0) - ssim_oracle(a, b, 1.0)) < 1e-6

    def test_oracle_on_phantoms(self):
        a = phantom_magnitude(13, size=24)
        b = phantom_magnitude(14, size=24)
        dr = float(a.max())
        assert abs(ssim(a, b, dr) - ssim_oracle(a, b, dr)) < 1e-6

    def test_symmetric(self):
        rng = Rng(9)
        a = rng.uniform((20, 20))
        b = rng.uniform((20, 20))
        assert abs(ssim(a, b, 1.0) - ssim(b, a, 1.0)) < 1e-12

    def test_bounded(self):
        for seed in range(8):
            rng = Rng(100 + seed)
            a = rng.uniform((16, 16))
            b = rng.uniform((16, 16))
            assert -1.0 <= ssim(a, b, 1.0) <= 1.0

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(img=st.tuples(st.integers(11, 40), st.integers(11, 40)).flatmap(
        lambda shape: arrays(np.float64, shape,
                             elements=st.floats(0.0, 1e3, allow_subnormal=False))))
    def test_separable_local_means_match_2d_window(self, img):
        """The two 1-D passes against the 2-D form they replaced: every
        11x11 window view contracted with the normalized 2-D Gaussian. On
        nonnegative (magnitude) images each mean matches to 1e-12 relative;
        the floor at the smallest normal float64 covers subnormal products."""
        window = gaussian_window_oracle()
        ref = np.tensordot(sliding_window_view(img, (SSIM_WINDOW, SSIM_WINDOW)),
                           window, axes=([2, 3], [0, 1]))
        got = _local_means(img)
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref) + np.finfo(np.float64).tiny)

    def test_window_constants(self):
        assert (SSIM_WINDOW, SSIM_SIGMA, SSIM_K1, SSIM_K2) == (11, 1.5, 0.01, 0.03)

    def test_image_smaller_than_window_rejected(self):
        with pytest.raises(ShapeError):
            ssim(np.zeros((10, 16)), np.zeros((10, 16)), 1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            ssim(np.zeros((16, 16)), np.zeros((16, 17)), 1.0)

    @pytest.mark.parametrize("dr", [0.0, math.nan, math.inf])
    def test_bad_data_range_rejected(self, dr):
        with pytest.raises(ConfigError):
            ssim(np.zeros((16, 16)), np.zeros((16, 16)), dr)

    def test_range_whose_constants_overflow_is_numeric_error(self):
        """(K2 * range)**2 overflows float64 above about 4.5e155."""
        with pytest.raises(NumericError, match="data_range"):
            ssim(np.zeros((16, 16)), np.zeros((16, 16)), 1e300)
