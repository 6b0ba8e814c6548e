"""Centered FFT, Cartesian masks, phantoms: oracles and statistics."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronmri import tensor as T
from kronmri.errors import ConfigError, ShapeError
from kronmri.kspace import (CENTER_FRACTION_DEFAULTS, apply_mask,
                            complex_magnitude, fft2c, gen_cartesian_mask,
                            gen_phantom, ifft2c)
from kronmri.rng import Rng
from kronmri.tensor import Tape, Tensor, backward


def naive_centered_dft(img: np.ndarray) -> np.ndarray:
    """O(N^4) double-sum oracle for the centered orthonormal 2-D DFT.

    Even dimensions only: both spatial and frequency indices are measured
    from the grid center, which reproduces the shift convention exactly.
    """
    z = img[0] + 1j * img[1]
    h, w = z.shape
    assert h % 2 == 0 and w % 2 == 0
    out = np.zeros((h, w), dtype=complex)
    ys = np.arange(h) - h // 2
    xs = np.arange(w) - w // 2
    for ky in range(h):
        for kx in range(w):
            phase = np.exp(-2j * np.pi * ((ky - h // 2) * ys[:, None] / h
                                          + (kx - w // 2) * xs[None, :] / w))
            out[ky, kx] = (z * phase).sum()
    out /= np.sqrt(h * w)
    return np.stack([out.real, out.imag])


def rand_image(rng, shape=(2, 8, 8), dtype=np.float64):
    return Tensor(rng.uniform(shape, -1, 1, dtype=dtype))


class TestFft2c:
    def test_center_delta_has_flat_magnitude(self):
        img = np.zeros((2, 4, 4))
        img[0, 2, 2] = 1.0
        k = fft2c(Tensor(img)).data
        mags = np.hypot(k[0], k[1])
        assert np.allclose(mags, 1.0 / 4.0, atol=1e-12)  # 1/sqrt(16)

    def test_constant_image_concentrates_at_dc(self):
        img = np.zeros((2, 8, 8))
        img[0] = 0.3
        k = fft2c(Tensor(img)).data
        mags = np.hypot(k[0], k[1])
        assert mags[4, 4] == pytest.approx(0.3 * 8.0, abs=1e-12)  # c*sqrt(HW)
        off = mags.copy()
        off[4, 4] = 0.0
        assert np.max(off) < 1e-12

    def test_matches_naive_dft_oracle(self):
        img = rand_image(Rng(400))
        k = fft2c(img).data
        oracle = naive_centered_dft(img.data)
        assert np.max(np.abs(k - oracle)) < 1e-10

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-10)])
    def test_round_trip(self, dtype, tol):
        img = rand_image(Rng(401), dtype=dtype)
        back = ifft2c(fft2c(img)).data
        assert back.dtype == dtype
        assert np.max(np.abs(back - img.data)) < tol

    def test_parseval(self):
        img = rand_image(Rng(402), shape=(2, 16, 16))
        k = fft2c(img).data
        a = np.linalg.norm(img.data)
        b = np.linalg.norm(k)
        assert abs(a - b) / a < 1e-5

    def test_batched_matches_single(self):
        rng = Rng(403)
        batch = rng.uniform((3, 2, 8, 8), -1, 1)
        k = fft2c(Tensor(batch)).data
        for i in range(3):
            assert np.allclose(k[i], fft2c(Tensor(batch[i])).data, atol=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            fft2c(Tensor(np.zeros((3, 4, 4))))
        with pytest.raises(ShapeError):
            ifft2c(Tensor(np.zeros((8, 8))))

    def test_gradient_is_adjoint(self):
        # d/dx sum(w * fft2c(x)) must match central differences.
        rng = Rng(404)
        x = Tensor(rng.uniform((2, 4, 4), -1, 1), requires_grad=True)
        w = rng.uniform((2, 4, 4), -1, 1)
        with Tape():
            loss = T.sum_(T.mul(fft2c(x), Tensor(w)))
        g = backward(loss)[x].data
        h = 1e-6
        num = np.zeros_like(x.data)
        flat, nflat = x.data.reshape(-1), num.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float((fft2c(Tensor(x.data)).data * w).sum())
            flat[i] = orig - h
            dn = float((fft2c(Tensor(x.data)).data * w).sum())
            flat[i] = orig
            nflat[i] = (up - dn) / (2 * h)
        assert np.max(np.abs(g - num)) < 1e-6

    def test_ifft_gradient_round_trip(self):
        rng = Rng(405)
        x = Tensor(rng.uniform((2, 4, 4), -1, 1), requires_grad=True)
        with Tape():
            loss = T.sum_(T.mul(ifft2c(fft2c(x)), ifft2c(fft2c(x))))
        g = backward(loss)[x].data
        assert np.allclose(g, 2 * x.data, atol=1e-10)


class TestFft2cProperties:
    @staticmethod
    def pair(rng, batch, h, w):
        shape = (2, h, w) if batch is None else (batch, 2, h, w)
        return Tensor(rng.uniform(shape, -1, 1))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(batch=st.sampled_from([None, 1, 3]), h=st.integers(1, 9), w=st.integers(1, 9),
           seed=st.integers(0, 2**32 - 1))
    def test_mutual_inverses(self, batch, h, w, seed):
        x = self.pair(Rng(seed), batch, h, w)
        assert np.max(np.abs(ifft2c(fft2c(x)).data - x.data)) < 1e-12
        assert np.max(np.abs(fft2c(ifft2c(x)).data - x.data)) < 1e-12

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(batch=st.sampled_from([None, 1, 3]), h=st.integers(1, 9), w=st.integers(1, 9),
           seed=st.integers(0, 2**32 - 1))
    def test_adjoint(self, batch, h, w, seed):
        # <F x, y> == <x, F^H y> in the real inner product of the channel pairs
        rng = Rng(seed)
        x, y = self.pair(rng, batch, h, w), self.pair(rng, batch, h, w)
        lhs = float(np.sum(fft2c(x).data * y.data))
        rhs = float(np.sum(x.data * ifft2c(y).data))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, x.data.size)


class TestCartesianMask:
    def test_center_columns_always_on(self):
        for seed in range(20):
            m = gen_cartesian_mask(64, 8, rng=Rng(seed))
            center = m.center_columns
            start = (64 - center) // 2
            assert np.all(m.sampled[start:start + center] == 1.0)

    @pytest.mark.parametrize("af", [8, 16])
    def test_center_band_holds_the_dc_column(self, af):
        """fft2c puts DC at column width//2. With draws that keep no other
        column, the mask is the band alone: contiguous, of the documented
        size, and holding width//2 at every width."""
        class NoDraws:
            def uniform(self, shape):
                return np.ones(shape)

        for width in range(16, 401):
            dc = np.abs(fft2c(Tensor(np.ones((2, 2, width)))).data).sum(axis=(0, 1))
            assert np.argmax(dc) == width // 2
            m = gen_cartesian_mask(width, af, rng=NoDraws())
            band = np.flatnonzero(m.sampled)
            assert len(band) == m.center_columns
            assert band[-1] - band[0] == len(band) - 1
            assert band[0] <= width // 2 <= band[-1], (width, band)

    @pytest.mark.parametrize("width,af,digest", [
        (64, 8, "aaf088e8e7a3565c"), (64, 16, "809380ac14dc8ab2"),
        (320, 8, "8d2625fae0676308"), (320, 16, "0703dca432657ff2")])
    def test_default_width_masks_are_pinned(self, width, af, digest):
        """The masks of the default sizes (64 and 320) are those drawn
        before the band was moved onto DC, seeds 0-2."""
        h = hashlib.sha256()
        for seed in range(3):
            h.update(gen_cartesian_mask(width, af, rng=Rng(seed)).sampled.tobytes())
        assert h.hexdigest()[:16] == digest

    def test_expected_fraction_over_thousand_draws(self):
        fractions = [gen_cartesian_mask(320, 8, rng=Rng(10_000 + s)).sampled_fraction
                     for s in range(1000)]
        mean = float(np.mean(fractions))
        assert abs(mean - 1 / 8) / (1 / 8) < 0.125

    def test_af16_expected_fraction(self):
        fractions = [gen_cartesian_mask(320, 16, rng=Rng(20_000 + s)).sampled_fraction
                     for s in range(300)]
        mean = float(np.mean(fractions))
        assert abs(mean - 1 / 16) / (1 / 16) < 0.125

    def test_reference_width_center_count(self):
        m = gen_cartesian_mask(320, 8, rng=Rng(1))
        assert m.center_columns == 13  # ceil(0.04 * 320)

    def test_zero_outside_probability_boundary(self):
        # af == 1/center_fraction: only the center survives.
        m = gen_cartesian_mask(320, 8, center_fraction=0.125, rng=Rng(2))
        assert m.sampled.sum() == m.center_columns == 40

    def test_determinism(self):
        a = gen_cartesian_mask(128, 16, rng=Rng(77))
        b = gen_cartesian_mask(128, 16, rng=Rng(77))
        assert np.array_equal(a.sampled, b.sampled)

    def test_mask_is_binary(self):
        m = gen_cartesian_mask(96, 8, rng=Rng(5))
        assert set(np.unique(m.sampled)).issubset({0.0, 1.0})

    def test_config_errors(self):
        with pytest.raises(ConfigError):
            gen_cartesian_mask(64, 5, rng=Rng(0))          # unsupported af
        with pytest.raises(ConfigError):
            gen_cartesian_mask(8, 8, rng=Rng(0))           # width too small
        with pytest.raises(ConfigError):
            gen_cartesian_mask(64, 8, center_fraction=0.5, rng=Rng(0))  # p < 0

    def test_defaults_table(self):
        assert CENTER_FRACTION_DEFAULTS == {8: 0.04, 16: 0.02}


class TestApplyMask:
    def test_all_ones_identity(self):
        rng = Rng(500)
        k = rand_image(rng)
        out = apply_mask(k, np.ones(8))
        assert out.data.tobytes() == k.data.tobytes()

    def test_column_loop_oracle(self):
        rng = Rng(501)
        k = rand_image(rng, shape=(2, 6, 16))
        m = gen_cartesian_mask(16, 8, center_fraction=0.1, rng=Rng(3))
        out = apply_mask(k, m.sampled).data
        for col in range(16):
            if m.sampled[col]:
                assert np.array_equal(out[:, :, col], k.data[:, :, col])
            else:
                assert np.all(out[:, :, col] == 0.0)

    def test_idempotent_exactly(self):
        k = rand_image(Rng(502), shape=(2, 8, 16))
        m = gen_cartesian_mask(16, 8, center_fraction=0.1, rng=Rng(4))
        once = apply_mask(k, m.sampled)
        twice = apply_mask(once, m.sampled)
        assert once.data.tobytes() == twice.data.tobytes()

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            apply_mask(rand_image(Rng(1)), gen_cartesian_mask(16, 8,
                                                              center_fraction=0.1,
                                                              rng=Rng(0)).sampled)

    def test_gradient_masks_backward_too(self):
        k = Tensor(Rng(503).uniform((2, 4, 16), -1, 1), requires_grad=True)
        m = gen_cartesian_mask(16, 8, center_fraction=0.1, rng=Rng(5))
        with Tape():
            loss = T.sum_(apply_mask(k, m.sampled))
        g = backward(loss)[k].data
        assert np.array_equal(g[0, 0], m.sampled)

    @staticmethod
    def column_loop(k, cols):
        """Oracle: copy k's measured columns one at a time into zeros."""
        cols = np.broadcast_to(cols, k.shape[:-3] + (1, 1, k.shape[-1]))
        out = np.zeros_like(k)
        for idx in np.ndindex(*cols.shape[:-3]):
            for c in range(k.shape[-1]):
                if cols[idx][0, 0, c]:
                    out[idx][..., c] = k[idx][..., c]
        return out

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), width=st.integers(1, 24), batched=st.booleans(),
           as_bool=st.booleans(), dtype=st.sampled_from([np.float32, np.float64]))
    def test_forward_and_vjp_match_column_loop(self, data, width, batched,
                                               as_bool, dtype):
        b, h = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 5))
        shape = (b, 2, h, width) if batched else (2, h, width)
        mshape = (b, 1, 1, width) if batched else (width,)
        bits = np.array(data.draw(st.lists(st.booleans(), min_size=int(np.prod(mshape)),
                                           max_size=int(np.prod(mshape))))).reshape(mshape)
        cols = bits if as_bool else bits.astype(dtype)
        seed = data.draw(st.integers(0, 2 ** 31 - 1))
        k = Tensor(Rng(seed).uniform(shape, -1, 1, dtype=dtype), requires_grad=True)
        g = Rng(seed + 1).uniform(shape, -1, 1, dtype=dtype)
        with Tape():
            out = apply_mask(k, cols)
            loss = T.sum_(T.mul(out, Tensor(g)))
        grad = backward(loss)[k].data
        assert out.dtype == grad.dtype == dtype
        assert np.array_equal(out.data, self.column_loop(k.data, bits))
        assert np.array_equal(grad, self.column_loop(g, bits))

    @pytest.mark.parametrize("bad", [np.nan, 0.5, 2.0, -1.0, np.inf])
    @pytest.mark.parametrize("batched", [False, True])
    def test_values_other_than_zero_or_one_are_config_errors(self, bad, batched):
        cols = np.ones((2, 1, 1, 8) if batched else (8,))
        cols.flat[3] = bad
        with pytest.raises(ConfigError):
            apply_mask(rand_image(Rng(504), shape=(2, 2, 4, 8)), cols)

    @pytest.mark.parametrize("mshape", [(7,), (9,), (3, 1, 1, 8), (1, 1, 1, 1, 8),
                                        (4, 8), (2, 1, 8), (), (2, 1, 4, 8)])
    def test_shapes_that_are_not_column_masks_are_shape_errors(self, mshape):
        """A wrong width, a batch that does not match, a mask of higher rank
        than k, a row or channel axis, and a scalar."""
        with pytest.raises(ShapeError):
            apply_mask(rand_image(Rng(505), shape=(2, 2, 4, 8)), np.ones(mshape))


class TestZeroFilled:
    def test_full_mask_reproduces_image(self):
        img = gen_phantom(32, 32, 4, Rng(600), dtype=np.float32)
        k = fft2c(img)
        recon = ifft2c(apply_mask(k, np.ones(32))).data
        assert np.max(np.abs(recon - img.data)) < 1e-4

    def test_linearity(self):
        rng = Rng(601)
        k1, k2 = rand_image(rng), rand_image(rng)
        lhs = ifft2c(T.add(k1, k2)).data
        rhs = ifft2c(k1).data + ifft2c(k2).data
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_center_only_mask_blurs(self):
        img = gen_phantom(64, 64, 5, Rng(602))
        k = fft2c(img)
        m = gen_cartesian_mask(64, 8, center_fraction=0.125, rng=Rng(7))
        assert m.sampled.sum() == m.center_columns
        recon = ifft2c(apply_mask(k, m.sampled))
        err_low = np.linalg.norm(complex_magnitude(recon.data) - complex_magnitude(img.data))
        assert err_low > 1e-3  # genuinely lossy on a structured phantom


class TestPhantom:
    def test_zero_ellipses_zero_image(self):
        img = gen_phantom(16, 16, 0, Rng(700))
        assert np.all(img.data == 0.0)

    def test_determinism(self):
        a = gen_phantom(32, 24, 6, Rng(701))
        b = gen_phantom(32, 24, 6, Rng(701))
        assert a.data.tobytes() == b.data.tobytes()

    def test_bounds_over_thousand_seeds(self):
        worst_mag, worst_phase = 0.0, 0.0
        for seed in range(1000):
            img = gen_phantom(24, 24, 3, Rng(40_000 + seed))
            mag = complex_magnitude(img.data)
            worst_mag = max(worst_mag, float(mag.max()))
            assert mag.min() >= 0.0
            lit = mag > 1e-12
            if np.any(lit):
                phase = np.arctan2(img.data[1], img.data[0])[lit]
                worst_phase = max(worst_phase, float(np.abs(phase).max()))
        assert worst_mag <= 1.0 + 1e-12
        assert worst_phase <= np.pi / 4 + 1e-9

    def test_shape_and_dtype(self):
        img = gen_phantom(16, 20, 2, Rng(702), dtype=np.float32)
        assert img.shape == (2, 16, 20)
        assert img.dtype == np.float32

    def test_size_validation(self):
        with pytest.raises(ConfigError):
            gen_phantom(8, 32, 2, Rng(0))

    def test_magnitude_helper_matches_hypot(self):
        img = gen_phantom(16, 16, 3, Rng(703))
        mag = complex_magnitude(img.data)
        assert np.allclose(mag, np.sqrt(img.data[0] ** 2 + img.data[1] ** 2),
                           atol=1e-12)
