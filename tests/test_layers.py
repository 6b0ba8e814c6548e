"""Factorized layers vs dense baselines: oracles, counts, init, gradients."""

import numpy as np
import pytest

from kronmri import tensor as T
from kronmri.errors import ConfigError, ShapeError
from kronmri.layers import DENSE, KroneckerConv2d, KroneckerLinear, count_params
from kronmri.rng import Rng
from kronmri.tensor import Tape, Tensor, backward, grad_check


def nhwc(a):
    """An NCHW array in the channels-last layout conv layers take."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1))


def kron_np(a, b):
    p, q = a.shape
    r, s = b.shape
    out = np.zeros((p * r, q * s), dtype=a.dtype)
    for i in range(p):
        for j in range(q):
            out[i * r:(i + 1) * r, j * s:(j + 1) * s] = a[i, j] * b
    return out


class TestKroneckerLinearForward:
    def test_n1_with_unit_mixing_matches_dense_bitwise(self):
        rng = Rng(100)
        kl = KroneckerLinear(6, 4, 1, rng=rng, dtype=np.float64)
        kl.mixing.data[...] = 1.0  # unit mixing, still a factorized (kron_sum) layer
        assert kl.kind == "kron_linear"
        dense = KroneckerLinear(6, 4, 1, dtype=np.float64, **DENSE)
        dense.blocks.data[0] = kl.materialize_weight().data
        x = Tensor(Rng(101).uniform((3, 6), -1, 1))
        assert np.array_equal(kl(x).data, dense(x).data)

    def test_complex_arithmetic_oracle(self):
        # Mixing {I, [[0,-1],[1,0]]} with blocks {Wr, Wi} acts on stacked
        # (real||imag) vectors as the complex matrix Wr + i*Wi.
        rng = Rng(102)
        wr = rng.uniform((3, 2), -1, 1)
        wi = rng.uniform((3, 2), -1, 1)
        kl = KroneckerLinear(4, 6, 2, dtype=np.float64,
                             mixing=[np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]])])
        kl.blocks.data[0] = wr
        kl.blocks.data[1] = wi
        a = rng.uniform((5, 2), -1, 1)
        b = rng.uniform((5, 2), -1, 1)
        x = np.concatenate([a, b], axis=1)           # (real || imag) layout
        out = kl(Tensor(x)).data
        expect = (wr + 1j * wi) @ (a + 1j * b).T     # direct complex arithmetic
        assert np.max(np.abs(out[:, :3] - expect.real.T)) < 1e-12
        assert np.max(np.abs(out[:, 3:] - expect.imag.T)) < 1e-12

    def test_matches_materialized_weight(self):
        rng = Rng(103)
        kl = KroneckerLinear(4, 4, 2, rng=rng, dtype=np.float64)
        kl.bias.data[...] = Rng(104).uniform((4,), -1, 1)
        x = Rng(105).uniform((3, 4), -1, 1)
        out = kl(Tensor(x)).data
        w = kl.materialize_weight().data
        assert np.max(np.abs(out - (x @ w.T + kl.bias.data))) < 1e-12

    def test_width_mismatch_is_shape_error(self):
        kl = KroneckerLinear(4, 4, 2, rng=Rng(0))
        with pytest.raises(ShapeError):
            kl(Tensor(np.zeros((2, 5), dtype=np.float32)))

    def test_divisibility_is_config_error(self):
        with pytest.raises(ConfigError):
            KroneckerLinear(5, 4, 2, rng=Rng(0))
        with pytest.raises(ConfigError):
            KroneckerConv2d(4, 6, 3, 4, rng=Rng(0))

    def test_linearity_with_zero_bias(self):
        rng = Rng(106)
        kl = KroneckerLinear(4, 8, 2, rng=rng, dtype=np.float64)
        x1 = Rng(107).uniform((2, 4), -1, 1)
        x2 = Rng(108).uniform((2, 4), -1, 1)
        a, b = 0.7, -1.3
        lhs = kl(Tensor(a * x1 + b * x2)).data
        rhs = a * kl(Tensor(x1)).data + b * kl(Tensor(x2)).data
        assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestMaterialize:
    def test_n1_returns_block_unchanged(self):
        kl = KroneckerLinear(3, 3, 1, rng=Rng(109), dtype=np.float64)
        kl.mixing.data[...] = 1.0
        assert kl.kind == "kron_linear"
        assert np.array_equal(kl.materialize_weight().data, kl.blocks.data[0])

    def test_zero_mixing_contributes_nothing(self):
        kl = KroneckerLinear(4, 4, 2, dtype=np.float64,
                             mixing=[np.eye(2), np.zeros((2, 2))])
        s = Rng(110).uniform((2, 2), -1, 1)
        kl.blocks.data[0] = s
        kl.blocks.data[1] = Rng(111).uniform((2, 2), -1, 1)
        w = kl.materialize_weight().data
        assert np.array_equal(w, kron_np(np.eye(2), s))

    def test_conv_materialize_matches_blocks(self):
        rng = Rng(112)
        kc = KroneckerConv2d(4, 6, 3, 2, rng=rng, dtype=np.float64)
        w = kc.materialize_weight().data
        assert w.shape == (6, 4, 3, 3)
        expect = np.zeros_like(w)
        for i in range(2):
            a = kc.mixing.data[i]
            f = kc.blocks.data[i]
            for y in range(3):
                for x in range(3):
                    expect[:, :, y, x] += kron_np(a, f[:, :, y, x])
        assert np.max(np.abs(w - expect)) < 1e-14


class TestParamCounts:
    def test_dense_linear_128(self):
        assert KroneckerLinear(128, 128, 1, rng=Rng(0), **DENSE).param_count() == 16512

    def test_kron_linear_n2_128(self):
        kl = KroneckerLinear(128, 128, 2, rng=Rng(0))
        assert kl.param_count() == 2 * 4 + 2 * 64 * 64 + 128 == 8328

    def test_kron_linear_n4_128(self):
        kl = KroneckerLinear(128, 128, 4, rng=Rng(0))
        assert kl.param_count() == 4 * 16 + 4 * 32 * 32 + 128 == 4288

    def test_conv_counts(self):
        assert KroneckerConv2d(16, 32, 3, 1, rng=Rng(0), **DENSE).param_count() == 32 * 16 * 9 + 32
        kc = KroneckerConv2d(16, 32, 3, 2, rng=Rng(0))
        assert kc.param_count() == 8 + (32 * 16 * 9) // 2 + 32

    def test_frozen_mixing_excluded(self):
        kl = KroneckerLinear(8, 8, 2, rng=Rng(0), mixing=np.ones((2, 2, 2)))
        assert kl.param_count() == 2 * 4 * 4 + 8
        assert all(not p.data.shape == (2, 2, 2) for p in kl.parameters())

    @pytest.mark.parametrize("size", [64, 128, 256])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_ratio_band(self, size, k, n):
        rng = Rng(1)
        kron = KroneckerConv2d(size, size, k, n, rng=rng)
        dense = KroneckerConv2d(size, size, k, 1, rng=rng, **DENSE)
        ratio = kron.param_count() / dense.param_count()
        assert 1.0 / n < ratio < 1.0 / n + 0.05


class TestInit:
    def test_same_seed_bitwise_identical(self):
        a = KroneckerConv2d(8, 8, 3, 2, rng=Rng(7))
        b = KroneckerConv2d(8, 8, 3, 2, rng=Rng(7))
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            assert pa.data.tobytes() == pb.data.tobytes()

    def test_bias_exactly_zero(self):
        for layer in (KroneckerLinear(8, 8, 2, rng=Rng(1)),
                      KroneckerConv2d(4, 4, 3, 1, rng=Rng(2), **DENSE)):
            assert np.all(layer.bias.data == 0.0)

    def test_n1_block_variance_matches_dense(self):
        # The single reduced block at n=1 is drawn from the same fan-in
        # bound as a dense weight; empirical variances agree within 10%.
        draws_k = np.concatenate(
            [KroneckerLinear(64, 64, 1, rng=Rng(1000 + i), dtype=np.float64)
             .blocks.data[0].reshape(-1) for i in range(3)])
        draws_d = np.concatenate(
            [KroneckerLinear(64, 64, 1, rng=Rng(2000 + i), dtype=np.float64, **DENSE)
             .blocks.data.reshape(-1) for i in range(3)])
        assert draws_k.size >= 10_000 and draws_d.size >= 10_000
        ratio = draws_k.var() / draws_d.var()
        assert 0.9 < ratio < 1.1

    def test_mixing_bound(self):
        kl = KroneckerLinear(8, 8, 4, rng=Rng(3), dtype=np.float64)
        bound = 1.0 / np.sqrt(4)
        for m in kl.mixing.data:
            assert np.all(np.abs(m) <= bound)

    def test_block_bound(self):
        kc = KroneckerConv2d(8, 8, 3, 2, rng=Rng(4), dtype=np.float64)
        bound = np.sqrt(1.0 / (8 * 9))
        for f in kc.blocks.data:
            assert np.all(np.abs(f) <= bound)


class TestConvForward:
    def test_n1_matches_dense_bitwise(self):
        rng = Rng(120)
        kc = KroneckerConv2d(3, 5, 3, 1, rng=rng, padding=1, dtype=np.float64)
        kc.mixing.data[...] = 1.0
        assert kc.kind == "kron_conv"
        dense = KroneckerConv2d(3, 5, 3, 1, padding=1, dtype=np.float64, **DENSE)
        dense.blocks.data[0] = kc.blocks.data[0]
        x = Tensor(nhwc(Rng(121).uniform((2, 3, 6, 6), -1, 1)))
        assert np.array_equal(kc(x).data, dense(x).data)

    def test_complex_pointwise_product(self):
        # n=2, 1x1 kernels, 2-channel image = per-pixel complex multiply.
        kc = KroneckerConv2d(2, 2, 1, 2, dtype=np.float64,
                             mixing=[np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]])])
        wr, wi = 0.8, -1.7
        kc.blocks.data[0] = wr
        kc.blocks.data[1] = wi
        rng = Rng(122)
        re = rng.uniform((1, 1, 4, 4), -1, 1)
        im = rng.uniform((1, 1, 4, 4), -1, 1)
        x = np.concatenate([re, im], axis=1)
        out = kc(Tensor(nhwc(x))).data.transpose(0, 3, 1, 2)
        z = (re + 1j * im) * (wr + 1j * wi)
        assert np.max(np.abs(out[:, :1] - z.real)) < 1e-12
        assert np.max(np.abs(out[:, 1:] - z.imag)) < 1e-12

    def test_matches_materialized_kernel(self):
        rng = Rng(123)
        kc = KroneckerConv2d(4, 8, 3, 2, rng=rng, padding=1, dtype=np.float64)
        kc.bias.data[...] = Rng(124).uniform((8,), -1, 1)
        x = Tensor(nhwc(Rng(125).uniform((1, 4, 5, 5), -1, 1)))
        direct = kc(x).data
        via = T.conv2d(x, Tensor(kc.materialize_weight().data),
                       Tensor(kc.bias.data), stride=1, padding=1).data
        assert np.max(np.abs(direct - via)) < 1e-10


class TestGradients:
    def test_kron_linear_all_params(self):
        rng = Rng(130)
        kl = KroneckerLinear(4, 4, 2, rng=rng, dtype=np.float64)
        x = Tensor(Rng(131).uniform((3, 4), -1, 1))

        def f():
            out = kl(x)
            return T.mean_(T.mul(out, out))

        report = grad_check(f, kl.parameters())
        assert report.passed, repr(report)

    def test_kron_conv_all_params(self):
        rng = Rng(132)
        kc = KroneckerConv2d(2, 4, 3, 2, rng=rng, padding=1, stride=2, dtype=np.float64)
        x = Tensor(nhwc(Rng(133).uniform((2, 2, 4, 4), -1, 1)))

        def f():
            out = kc(x)
            return T.mean_(T.mul(out, out))

        report = grad_check(f, kc.parameters())
        assert report.passed, repr(report)

    def test_gradient_flows_to_input(self):
        kl = KroneckerLinear(4, 4, 2, rng=Rng(134), dtype=np.float64)
        x = Tensor(Rng(135).uniform((2, 4), -1, 1), requires_grad=True)
        with Tape():
            loss = T.mean_(T.mul(kl(x), kl(x)))
        grads = backward(loss)
        assert x in grads
        assert grads[x].shape == x.shape

    def test_frozen_mixing_gets_no_grad(self):
        kl = KroneckerLinear(4, 4, 2, rng=Rng(136), dtype=np.float64,
                             mixing=np.ones((2, 2, 2)))
        x = Tensor(Rng(137).uniform((2, 4), -1, 1))
        with Tape():
            loss = T.sum_(kl(x))
        grads = backward(loss)
        assert kl.mixing not in grads
        assert kl.blocks in grads


class TestSerialization:
    @pytest.mark.parametrize("make", [
        lambda rng: KroneckerLinear(8, 4, 2, rng=rng),
        lambda rng: KroneckerLinear(8, 4, 1, rng=rng, **DENSE),
        lambda rng: KroneckerConv2d(4, 8, 3, 2, rng=rng, stride=2, padding=1),
        lambda rng: KroneckerConv2d(4, 8, 3, 1, rng=rng, padding=1, **DENSE),
    ])
    def test_roundtrip_through_arrays(self, make):
        # arrays() are views that carry every parameter: copying one layer's
        # arrays into a layer built alike from another seed makes it equal
        layer, clone = make(Rng(140)), make(Rng(141))
        assert clone.manifest() == layer.manifest()
        for name, dst in clone.arrays().items():
            dst[...] = layer.arrays()[name]
        for (na, pa), (nb, pb) in zip(layer.named_parameters(), clone.named_parameters()):
            assert na == nb
            assert pa.data.tobytes() == pb.data.tobytes()

    def test_kron_array_names(self):
        kl = KroneckerLinear(4, 4, 2, rng=Rng(144))
        assert set(kl.arrays()) == {"A_0", "A_1", "S_0", "S_1", "bias"}
        kc = KroneckerConv2d(4, 4, 3, 2, rng=Rng(145))
        assert set(kc.arrays()) == {"A_0", "A_1", "F_0", "F_1", "bias"}


class TestDenseCase:
    def test_kind_and_manifest(self):
        dense = KroneckerConv2d(4, 8, 3, 1, padding=1, rng=Rng(150), **DENSE)
        assert dense.kind == "dense_conv"
        assert dense.manifest() == {"kind": "dense_conv", "in_channels": 4,
                                    "out_channels": 8, "kernel_size": 3, "stride": 1,
                                    "padding": 1, "dtype": "float32"}
        assert set(dense.arrays()) == {"weight", "bias"}
        assert dense.parameters() == [dense.blocks, dense.bias]
        # trainable or non-unit n=1 mixing stays a factorized layer
        assert KroneckerLinear(4, 4, 1, rng=Rng(151)).kind == "kron_linear"
        assert KroneckerLinear(4, 4, 1, mixing=[[[2.0]]]).kind == "kron_linear"

    def test_weight_is_the_block_with_no_assembly_macs(self):
        dense = KroneckerLinear(6, 4, 1, rng=Rng(152), dtype=np.float64, **DENSE)
        m0 = T.mac_count()
        w = dense.materialize_weight()
        assert T.mac_count() - m0 == 0
        assert np.array_equal(w.data, dense.blocks.data[0])

    @pytest.mark.parametrize("family", ["linear", "conv"])
    @pytest.mark.parametrize("n", [None, 1, 2, 4])
    def test_forward_macs_are_the_product_plus_assembly(self, family, n):
        """A forward costs its dense product, B*in*out for a linear layer
        and B*Ho*Wo*O*C*k^2 for a conv, plus n*in*out*k^2 to assemble a
        factorized weight; a dense layer (n None here) assembles nothing."""
        options = DENSE if n is None else {}
        rng = Rng(156)
        if family == "linear":  # B=3, in 8, out 16
            layer = KroneckerLinear(8, 16, n or 1, rng=rng, **options)
            x = Tensor(rng.uniform((3, 8), -1, 1, dtype=np.float32))
            product, weight = 3 * 8 * 16, 8 * 16
        else:  # B=2, C=4, O=8, k=3, stride 2: 9x7 -> Ho x Wo = 5x4
            layer = KroneckerConv2d(4, 8, 3, n or 1, stride=2, padding=1, rng=rng, **options)
            x = Tensor(rng.uniform((2, 9, 7, 4), -1, 1, dtype=np.float32))
            product, weight = 2 * 5 * 4 * 8 * 4 * 9, 8 * 4 * 9
        m0 = T.mac_count()
        layer(x)
        assert T.mac_count() - m0 == product + (0 if n is None else n * weight)

    def test_factorized_weight_is_one_tape_node(self):
        kc = KroneckerConv2d(4, 8, 3, 4, rng=Rng(153), dtype=np.float64)
        with Tape() as tape:
            kc.materialize_weight()
        assert [node.name for node in tape.nodes] == ["kron_sum"]

    @pytest.mark.parametrize("n,taps,train", [(1, 1, False), (1, 9, False), (2, 1, True),
                                              (4, 9, True), (2, 9, False)])
    def test_count_params_matches_parameters(self, n, taps, train):
        options = {} if train else {"mixing": np.ones((n, n, n))}
        if taps == 1:
            layer = KroneckerLinear(8, 16, n, rng=Rng(154), **options)
        else:
            layer = KroneckerConv2d(8, 16, 3, n, rng=Rng(154), **options)
        assert layer.param_count() == count_params(n, 8, 16, taps, train)
        assert layer.param_count() == sum(p.size for p in layer.parameters())

    @pytest.mark.parametrize("args", [(True, 8, 16), (2, 8.0, 16), (2, 8, float("inf")),
                                      (2, 8, 16, 9.0), (0, 8, 16)])
    def test_count_params_takes_plain_integer_sizes(self, args):
        with pytest.raises(ConfigError):
            count_params(*args)
