"""Charbonnier and composite loss: loop oracles, the fixed weights, gradients."""

import math

import numpy as np
import pytest

from kronmri.errors import ShapeError
from kronmri.kspace import fft2c, gen_phantom
from kronmri.losses import ALPHA, BETA, CHARBONNIER_EPS, charbonnier, loss_total
from kronmri.rng import Rng
from kronmri.tensor import Tape, Tensor, backward, grad_check


def rand_pair(seed, shape=(2, 8, 8), dtype=np.float64):
    rng = Rng(seed)
    return (Tensor(rng.uniform(shape, -1, 1, dtype=dtype)),
            Tensor(rng.uniform(shape, -1, 1, dtype=dtype)))


class TestCharbonnier:
    def test_equal_inputs_give_eps(self):
        # 2x2 so the mean is an exact power-of-two reduction
        a = Tensor(np.full((2, 2), 0.7))
        eps = CHARBONNIER_EPS
        assert charbonnier(a, Tensor(a.data.copy())).item() == math.sqrt(eps * eps)

    def test_small_eps_limit_is_abs_difference(self):
        # sqrt(9 + eps^2) - 3 is about eps^2 / 6
        a = Tensor(np.array([3.0]))
        b = Tensor(np.array([0.0]))
        assert charbonnier(a, b).item() == pytest.approx(3.0, abs=CHARBONNIER_EPS ** 2)

    @pytest.mark.parametrize("seed", [0, 5, 17])
    def test_matches_scalar_loop_oracle(self, seed):
        a, b = rand_pair(seed, shape=(4, 4))
        eps = CHARBONNIER_EPS
        acc = 0.0
        for i in range(4):
            for j in range(4):
                acc += math.sqrt((a.data[i, j] - b.data[i, j]) ** 2 + eps * eps)
        assert abs(charbonnier(a, b).item() - acc / 16.0) < 1e-12

    def test_differentiable_at_equality(self):
        a = Tensor(Rng(1).uniform((3, 3)), requires_grad=True)
        b = Tensor(a.data.copy())
        with Tape():
            loss = charbonnier(a, b)
        g = backward(loss)[a]
        assert np.all(np.isfinite(g.data))
        assert np.allclose(g.data, 0.0)

    def test_gradient_matches_finite_differences(self):
        a = Tensor(Rng(2).uniform((3, 4), -1, 1), requires_grad=True)
        b = Tensor(Rng(3).uniform((3, 4), -1, 1))
        report = grad_check(lambda: charbonnier(a, b), [a])
        assert report["passed"], report

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            charbonnier(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))


class TestLossTotal:
    def test_equal_inputs_floor(self):
        # at xhat == x both Charbonnier terms sit at their eps floor
        x = gen_phantom(16, 16, 4, Rng(6))
        val = loss_total(Tensor(x.data.copy()), x).item()
        assert val == pytest.approx((ALPHA + BETA) * CHARBONNIER_EPS, rel=1e-6)

    @pytest.mark.parametrize("seed", [4, 12])
    def test_matches_term_by_term_oracle(self, seed):
        xhat, x = rand_pair(seed)
        img = charbonnier(xhat, x).item()
        freq = charbonnier(fft2c(xhat), fft2c(x)).item()
        expect = 15.0 * img + 0.1 * freq
        got = loss_total(xhat, x).item()
        assert abs(got - expect) < 1e-9

    def test_non_negative(self):
        for seed in range(6):
            xhat, x = rand_pair(100 + seed)
            assert loss_total(xhat, x).item() >= 0.0

    def test_gradient_passes_grad_check(self):
        rng = Rng(31)
        xhat = Tensor(rng.uniform((2, 6, 6), -1, 1), requires_grad=True)
        x = Tensor(rng.uniform((2, 6, 6), -1, 1))
        report = grad_check(lambda: loss_total(xhat, x), [xhat])
        assert report["passed"], report

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            loss_total(Tensor(np.zeros((2, 8, 8))), Tensor(np.zeros((2, 8, 9))))

