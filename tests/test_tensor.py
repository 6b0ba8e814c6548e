"""Autodiff engine: forward oracles, backward vs finite differences, tape rules."""

import contextlib
import ctypes
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kronmri import tensor as T
from kronmri.errors import ConfigError, NumericError, ShapeError, TapeError
from kronmri.rng import Rng
from kronmri.tensor import Tape, Tensor, backward, grad_check, mac_count


def kron_oracle(a, b):
    """Textbook double loop: block (i,j) of the result is a[i,j] * b."""
    p, q = a.shape
    r, s = b.shape
    out = np.zeros((p * r, q * s), dtype=a.dtype)
    for i in range(p):
        for j in range(q):
            out[i * r:(i + 1) * r, j * s:(j + 1) * s] = a[i, j] * b
    return out


def kron(a: Tensor, b: Tensor) -> Tensor:
    """One Kronecker product, as a one-term kron_sum."""
    return T.kron_sum(T.reshape(a, (1,) + a.shape), T.reshape(b, (1,) + b.shape))


def matmul_oracle(a, b):
    m, k = a.shape
    n = b.shape[1]
    out = np.zeros((m, n), dtype=a.dtype)
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


def conv_oracle(x, w, bias, stride, padding):
    """Six nested loops, cross-correlation."""
    bsz, c, h, wd = x.shape
    o, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - k) // stride + 1
    wo = (wd + 2 * padding - k) // stride + 1
    out = np.zeros((bsz, o, ho, wo), dtype=x.dtype)
    for b in range(bsz):
        for oc in range(o):
            for y in range(ho):
                for xx in range(wo):
                    acc = 0.0
                    for ic in range(c):
                        for i in range(k):
                            for j in range(k):
                                acc += xp[b, ic, y * stride + i, xx * stride + j] * w[oc, ic, i, j]
                    out[b, oc, y, xx] = acc + (bias[oc] if bias is not None else 0.0)
    return out


def im2col_nchw(x, k, stride, padding):
    """Reference im2col: NCHW padded windows transposed to [B*Ho*Wo, C*k*k]."""
    bsz, c, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - k) // stride + 1
    wo = (wd + 2 * padding - k) // stride + 1
    sb, sc, sh, sw = xp.strides
    win = as_strided(xp, (bsz, c, ho, wo, k, k),
                     (sb, sc, sh * stride, sw * stride, sh, sw))
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5))
    return cols.reshape(bsz * ho * wo, c * k * k), ho, wo


def conv_vjp_tensordot(g, x, w, stride, padding):
    """Reference conv VJP: kernel gradient from the im2col GEMM, input
    gradient scattered tap by tap with `np.tensordot`."""
    bsz, c, h, wd = x.shape
    o, _, k, _ = w.shape
    cols, ho, wo = im2col_nchw(x, k, stride, padding)
    g2 = np.ascontiguousarray(g.transpose(1, 0, 2, 3)).reshape(o, bsz * ho * wo)
    gw = (g2 @ cols).reshape(o, c, k, k)
    gxp = np.zeros((bsz, c, h + 2 * padding, wd + 2 * padding), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            t = np.tensordot(g, w[:, :, i, j], axes=([1], [0]))
            gxp[:, :,
                i:i + stride * (ho - 1) + 1:stride,
                j:j + stride * (wo - 1) + 1:stride] += t.transpose(0, 3, 1, 2)
    gx = gxp[:, :, padding:padding + h, padding:padding + wd]
    return gx, gw, g.sum(axis=(0, 2, 3))


def fd_grad(f, arrs, h=1e-6):
    """Central differences of scalar f(list of arrays) w.r.t. each array."""
    grads = []
    for a in arrs:
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = f()
            flat[i] = orig - h
            dn = f()
            flat[i] = orig
            gflat[i] = (up - dn) / (2 * h)
        grads.append(g)
    return grads


@st.composite
def blocked_convs(draw):
    """(B, H, W, k, stride, padding) of a conv of 2-4 times 1024 output pixels,
    the forward's block floor; H and W take any remainder of the stride.
    Stride up to 3 and padding up to 2 clip the padded input rows of each
    image's first and last block by up to two padding rows. The floor is
    written out, so a smaller `_GEMM_BLOCK_ROWS` meets the same draws."""
    k, stride, padding = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 2))
    bsz, wo = draw(st.integers(1, 3)), draw(st.integers(12, 48))
    per = -(-1024 // wo)  # output rows in one block
    ho = draw(st.integers(-(-2 * per // bsz), -(-4 * per // bsz)))
    h, w = ((n - 1) * stride + k - 2 * padding + draw(st.integers(0, stride - 1))
            for n in (ho, wo))
    return bsz, h, w, k, stride, padding


def identity_conv(x):
    """A 1x1 conv of `x` whose kernel is the identity: values and input
    gradients pass through it exactly."""
    c = x.shape[3]
    return T.conv2d(x, Tensor(np.eye(c, dtype=x.dtype).reshape(c, c, 1, 1)))


def leaf(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


def nhwc(a):
    """An NCHW array in the channels-last layout conv2d and upsample2x take."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1))


def nchw(a):
    """A channels-last result viewed back in the NCHW layout of the oracles."""
    return a.transpose(0, 3, 1, 2)


class TestConstruction:
    def test_wraps_float_data(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.dtype == np.float64
        assert t.shape == (3,)
        assert Tensor(np.ones(2, dtype=np.float32)).dtype == np.float32

    @pytest.mark.parametrize("data", [np.array([1 + 2j]), [1, 2, 3], np.arange(3),
                                      np.array([True, False]), True, 3])
    def test_rejects_complex(self, data):
        """Only float32 and float64 data: complex, int and bool are not cast."""
        with pytest.raises(ShapeError, match="unsupported tensor dtype"):
            Tensor(data)

    def test_item(self):
        assert Tensor(3.5).item() == 3.5
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]).item()


class TestElementwise:
    def test_add_equal_shapes(self):
        a = np.arange(6, dtype=np.float64).reshape(2, 3)
        out = T.add(Tensor(a), Tensor(a * 2))
        assert np.array_equal(out.data, a * 3)

    def test_add_scalar_const(self):
        out = T.add(Tensor(np.ones((2, 2))), 1.5)
        assert np.array_equal(out.data, np.full((2, 2), 2.5))

    def test_scalar_tensor_broadcast(self):
        # a 0-d tensor does not broadcast; a Python number does, second only
        s = Tensor(np.asarray(2.0))
        for op in (T.add, T.sub, T.mul):
            with pytest.raises(ShapeError):
                op(Tensor(np.ones((3,))), s)
            with pytest.raises(ShapeError):
                op(s, Tensor(np.ones((3,))))
            with pytest.raises(ShapeError, match="first operand must be a Tensor"):
                op(2.0, Tensor(np.ones((3,))))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            T.add(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))

    def test_dtype_mismatch_raises(self):
        with pytest.raises(ShapeError):
            T.add(Tensor(np.ones(2, dtype=np.float32)), Tensor(np.ones(2)))

    def test_relu_values(self):
        out = T.relu(Tensor([-1.0, 0.0, 2.0]))
        assert out.data.tolist() == [0.0, 0.0, 2.0]

    def test_mul_vs_loop(self):
        rng = Rng(3)
        a = rng.uniform((4, 5), -1, 1)
        b = rng.uniform((4, 5), -1, 1)
        expect = np.array([[a[i, j] * b[i, j] for j in range(5)] for i in range(4)])
        assert np.allclose(T.mul(Tensor(a), Tensor(b)).data, expect, atol=0, rtol=0)

    def test_sqrt_negative_raises(self):
        with pytest.raises(NumericError):
            T.sqrt_(Tensor([-1.0]))


class TestElementwiseGradients:
    @pytest.mark.parametrize("op", [T.add, T.sub, T.mul])
    def test_binary_vjp_matches_fd(self, op):
        rng = Rng(12)
        a = rng.uniform((3, 4), -1, 1)
        b = rng.uniform((3, 4), -1, 1)
        ta, tb = leaf(a.copy()), leaf(b.copy())
        with Tape():
            loss = T.sum_(T.mul(op(ta, tb), op(ta, tb)))
        grads = backward(loss)
        num = fd_grad(lambda: float(np.sum(_np_op(op)(ta.data, tb.data) ** 2)),
                      [ta.data, tb.data])
        assert np.allclose(grads[ta].data, num[0], atol=1e-6)
        assert np.allclose(grads[tb].data, num[1], atol=1e-6)

    @pytest.mark.parametrize("op,ref", [
        (T.relu, lambda x: np.maximum(x, 0)),
        (T.sqrt_, np.sqrt),
    ])
    def test_unary_vjp_matches_fd(self, op, ref):
        rng = Rng(13)
        raw = rng.uniform((3, 3), 0.2, 1.5)  # away from kinks and zero
        x = leaf(raw.copy())
        with Tape():
            loss = T.sum_(op(x))
        grads = backward(loss)
        num = fd_grad(lambda: float(np.sum(ref(x.data))), [x.data])
        assert np.allclose(grads[x].data, num[0], atol=1e-6)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), dtype=st.sampled_from([np.float32, np.float64]),
           shape=st.one_of(st.sampled_from([(), (0, 3), (5,), (13,)]),
                           hnp.array_shapes(min_dims=1, max_dims=4, max_side=6)),
           s=st.floats(-8, 8, allow_nan=False))
    def test_relu_gain_is_bitwise_scale_of_relu(self, data, dtype, shape, s):
        """Forward and gradient are the bytes of `mul(relu(x), s)`, signed
        zeros included. The drawn shapes include 0-d, empty and sizes that
        are not a multiple of 8, where the packed mask has a partial byte."""
        elems = st.floats(-1e3, 1e3, width=np.dtype(dtype).itemsize * 8)
        x = data.draw(hnp.arrays(dtype, shape, elements=elems))
        g = data.draw(hnp.arrays(dtype, shape, elements=elems))
        results = []
        for op in (lambda t: T.relu(t, s), lambda t: T.mul(T.relu(t), s)):
            tx = Tensor(x.copy(), requires_grad=True)
            with Tape():
                out = op(tx)
                loss = T.sum_(T.mul(out, Tensor(g)))
            results.append((out.data, backward(loss)[tx].data))
        (fused, gfused), (ref, gref) = results
        assert fused.dtype == gfused.dtype == dtype
        assert fused.tobytes() == ref.tobytes()
        assert gfused.tobytes() == gref.tobytes()

    @pytest.mark.parametrize("taped", [True, False])
    def test_relu_vjp_keeps_the_mask_as_bits(self, monkeypatch, taped):
        """Taped, relu's VJP holds one array: the mask packed to one bit per
        element, ceil(x.size / 8) bytes of uint8. Untaped it holds none."""
        vjps = []
        apply = T._apply

        def spy(name, inputs, out_data, vjp):
            vjps.append(vjp)
            return apply(name, inputs, out_data, vjp)

        monkeypatch.setattr(T, "_apply", spy)
        x = Tensor(Rng(5).uniform((3, 7, 5), -1, 1, dtype=np.float32), requires_grad=True)
        if taped:
            with Tape():
                T.relu(x, 2.0)
        else:
            T.relu(x, 2.0)
        held = [c.cell_contents for c in vjps[0].__closure__
                if isinstance(c.cell_contents, np.ndarray)]
        if taped:
            assert len(held) == 1
            assert held[0].dtype == np.uint8 and held[0].nbytes == -(-x.data.size // 8)
        else:
            assert held == []

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), dtype=st.sampled_from([np.float32, np.float64]),
           shape=hnp.array_shapes(min_dims=1, max_dims=4, max_side=6))
    def test_relu_gain_one_is_plain_relu(self, data, dtype, shape):
        """The default gain gives the bytes of `np.maximum(x, 0)` and the
        gradient `g * (x > 0)`, signed zeros included."""
        elems = st.floats(-1e3, 1e3, width=np.dtype(dtype).itemsize * 8)
        x = data.draw(hnp.arrays(dtype, shape, elements=elems))
        g = data.draw(hnp.arrays(dtype, shape, elements=elems))
        tx = Tensor(x.copy(), requires_grad=True)
        with Tape():
            out = T.relu(tx)
            loss = T.sum_(T.mul(out, Tensor(g)))
        grad = backward(loss)[tx].data
        assert out.data.tobytes() == np.maximum(x, 0).tobytes()
        assert grad.tobytes() == (g * (x > 0)).tobytes()


def _np_op(op):
    return {T.add: np.add, T.sub: np.subtract, T.mul: np.multiply}[op]


class TestMatmul:
    def test_identity(self):
        a = Rng(1).uniform((3, 3), -1, 1)
        out = T.matmul(Tensor(a), Tensor(np.eye(3)))
        assert np.array_equal(out.data, a @ np.eye(3))

    def test_one_by_one(self):
        assert T.matmul(Tensor([[2.0]]), Tensor([[3.0]])).data.tolist() == [[6.0]]

    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    def test_vs_triple_loop(self, lead):
        """Each slice over the leading axes is its own product."""
        rng = Rng(2)
        a = rng.uniform((*lead, 3, 4), -1, 1)
        b = rng.uniform((*lead, 4, 2), -1, 1)
        out = T.matmul(Tensor(a), Tensor(b))
        assert out.shape == (*lead, 3, 2)
        for idx in np.ndindex(*lead):
            assert np.max(np.abs(out.data[idx] - matmul_oracle(a[idx], b[idx]))) < 1e-12

    @pytest.mark.parametrize("sa,sb", [
        ((2, 3), (2, 3)),            # inner dims differ
        ((2, 2, 3), (2, 4, 2)),      # inner dims differ, batched
        ((2, 3), (4, 3, 5)),         # unequal rank: no broadcasting
        ((2, 2, 3), (3, 3, 2)),      # unequal leading axes
        ((3,), (3,)),                # below rank 2
    ])
    def test_inner_dim_mismatch(self, sa, sb):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.ones(sa)), Tensor(np.ones(sb)))

    @pytest.mark.parametrize("sa,sb", [((2, 3), (3, 2)), ((2, 2, 3), (2, 3, 2))])
    def test_grad_vs_fd(self, sa, sb):
        rng = Rng(21)
        a, b = rng.uniform(sa, -1, 1), rng.uniform(sb, -1, 1)
        ta, tb = leaf(a.copy()), leaf(b.copy())
        with Tape():
            loss = T.sum_(T.matmul(ta, tb))
        grads = backward(loss)
        num = fd_grad(lambda: float((ta.data @ tb.data).sum()), [ta.data, tb.data])
        assert np.allclose(grads[ta].data, num[0], atol=1e-6)
        assert np.allclose(grads[tb].data, num[1], atol=1e-6)


class TestLinear:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(bsz=st.integers(1, 5), f=st.integers(1, 5), o=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_numpy_and_grad_check(self, bsz, f, o, seed):
        rng = Rng(seed)
        x, w, b = (rng.uniform(shape, -1, 1) for shape in ((bsz, f), (o, f), (o,)))
        out = T.linear(Tensor(x), Tensor(w), Tensor(b)).data
        assert out.shape == (bsz, o)
        assert np.allclose(out, x @ w.T + b, rtol=1e-12, atol=1e-12)

        tx, tw, tb = leaf(x), leaf(w), leaf(b)
        r = Tensor(rng.uniform((bsz, o), -1, 1))
        report = grad_check(lambda: T.sum_(T.mul(T.linear(tx, tw, tb), r)), [tx, tw, tb])
        assert report["passed"], report

    @pytest.mark.parametrize("sx,sw,sb", [
        ((3,), (2, 3), (2,)),          # x not 2-D
        ((2, 2, 3), (2, 3), (2,)),     # x not 2-D
        ((4, 3), (2, 5), (2,)),        # feature mismatch
        ((4, 3), (2, 3), (3,)),        # bias of the wrong length
        ((4, 3), (2, 3), (1, 2)),      # bias not 1-D
    ])
    def test_shape_errors(self, sx, sw, sb):
        with pytest.raises(ShapeError, match="linear"):
            T.linear(Tensor(np.ones(sx)), Tensor(np.ones(sw)), Tensor(np.ones(sb)))

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_mixed_dtypes_are_shape_errors(self, which):
        arrs = [np.ones((4, 3)), np.ones((2, 3)), np.ones(2)]
        arrs[which] = arrs[which].astype(np.float32)
        with pytest.raises(ShapeError, match="dtype mismatch"):
            T.linear(*map(Tensor, arrs))

    @pytest.mark.parametrize("f,o", [(128, 128), (128, 256), (256, 128)])
    def test_bitwise_a_contiguous_transposed_weight_at_phm_shapes(self, f, o):
        """Reading the weight through BLAS's transpose flag rounds as the
        product with a contiguous copy of `w.T` did, at the [512, F] x
        [F, O] float32 shapes of the phm blocks' projections."""
        rng = Rng(31)
        x, w, b = (rng.uniform(shape, -1, 1, dtype=np.float32)
                   for shape in ((512, f), (o, f), (o,)))
        out = T.linear(Tensor(x), Tensor(w), Tensor(b)).data
        assert np.array_equal(out, x @ np.ascontiguousarray(w.T) + b)


class TestKron:
    def test_vs_double_loop(self):
        rng = Rng(6)
        a = rng.uniform((2, 3), -1, 1)
        b = rng.uniform((4, 2), -1, 1)
        out = kron(Tensor(a), Tensor(b))
        assert out.shape == (8, 6)
        assert np.array_equal(out.data, kron_oracle(a, b))

    def test_identity_blocks(self):
        b = Rng(7).uniform((2, 2), -1, 1)
        out = kron(Tensor(np.eye(2)), Tensor(b)).data
        assert np.array_equal(out[:2, :2], b)
        assert np.array_equal(out[2:, 2:], b)
        assert np.all(out[:2, 2:] == 0) and np.all(out[2:, :2] == 0)

    def test_scalar_factor(self):
        b = Rng(8).uniform((3, 3), -1, 1)
        assert np.array_equal(kron(Tensor([[2.0]]), Tensor(b)).data, 2.0 * b)

    def test_associativity(self):
        rng = Rng(9)
        a, b, c = (rng.uniform((2, 2), -1, 1) for _ in range(3))
        left = kron(kron(Tensor(a), Tensor(b)), Tensor(c)).data
        right = kron(Tensor(a), kron(Tensor(b), Tensor(c))).data
        assert np.allclose(left, right, atol=1e-12)

    def test_mixed_product(self):
        # (A kron B)(C kron D) = (AC) kron (BD)
        rng = Rng(10)
        a, b, c, d = (rng.uniform((2, 2), -1, 1) for _ in range(4))
        lhs = kron_oracle(a, b) @ kron_oracle(c, d)
        rhs = kron_oracle(a @ c, b @ d)
        assert np.allclose(lhs, rhs, atol=1e-12)
        assert np.allclose(kron(Tensor(a), Tensor(b)).data @ kron(Tensor(c), Tensor(d)).data,
                           rhs, atol=1e-12)

    def test_grad_vs_fd(self):
        rng = Rng(11)
        a = rng.uniform((2, 2), -1, 1)
        b = rng.uniform((3, 2), -1, 1)
        w = rng.uniform((6, 4), -1, 1)  # weighting so the gradient is nontrivial
        ta, tb = leaf(a.copy()), leaf(b.copy())
        with Tape():
            loss = T.sum_(T.mul(kron(ta, tb), Tensor(w)))
        grads = backward(loss)
        num = fd_grad(lambda: float((kron_oracle(ta.data, tb.data) * w).sum()),
                      [ta.data, tb.data])
        assert np.allclose(grads[ta].data, num[0], atol=1e-6)
        assert np.allclose(grads[tb].data, num[1], atol=1e-6)


class TestKron4:
    def test_matches_per_channel_kron(self):
        rng = Rng(15)
        a = rng.uniform((2, 2), -1, 1)
        f = rng.uniform((3, 2, 3, 3), -1, 1)
        out = kron(Tensor(a), Tensor(f)).data
        assert out.shape == (6, 4, 3, 3)
        for i in range(3):
            for j in range(3):
                assert np.array_equal(out[:, :, i, j], kron_oracle(a, f[:, :, i, j]))

    def test_identity_mixing(self):
        f = Rng(16).uniform((2, 2, 3, 3), -1, 1)
        out = kron(Tensor(np.eye(2)), Tensor(f)).data
        assert np.array_equal(out[:2, :2], f)
        assert np.all(out[:2, 2:] == 0)

    def test_sign_pattern(self):
        j = np.array([[0.0, -1.0], [1.0, 0.0]])
        f = np.ones((1, 1, 1, 1))
        out = kron(Tensor(j), Tensor(f)).data
        assert np.array_equal(out[:, :, 0, 0], j)

    def test_grad_vs_fd(self):
        rng = Rng(17)
        a = rng.uniform((2, 2), -1, 1)
        f = rng.uniform((2, 1, 2, 2), -1, 1)
        w = rng.uniform((4, 2, 2, 2), -1, 1)
        ta, tf = leaf(a.copy()), leaf(f.copy())
        with Tape():
            loss = T.sum_(T.mul(kron(ta, tf), Tensor(w)))
        grads = backward(loss)

        def scalar():
            full = np.zeros((4, 2, 2, 2))
            for i in range(2):
                for jj in range(2):
                    full[:, :, i, jj] = kron_oracle(ta.data, tf.data[:, :, i, jj])
            return float((full * w).sum())

        num = fd_grad(scalar, [ta.data, tf.data])
        assert np.allclose(grads[ta].data, num[0], atol=1e-6)
        assert np.allclose(grads[tf].data, num[1], atol=1e-6)


class TestKronSum:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(n=st.sampled_from([1, 2, 4]), r=st.integers(1, 3), s=st.integers(1, 3),
           k=st.sampled_from([0, 1, 2, 3]), seed=st.integers(0, 2**32 - 1))
    def test_matches_np_kron_sum_and_grad_check(self, n, r, s, k, seed):
        # k == 0 stands for a linear block (no kernel axes)
        kernel = (k, k) if k else ()
        rng = Rng(seed)
        a = rng.uniform((n, n, n), -1, 1)
        b = rng.uniform((n, r, s) + kernel, -1, 1)
        out = T.kron_sum(Tensor(a), Tensor(b)).data
        want = sum(np.kron(a[i].reshape((n, n) + (1,) * len(kernel)), b[i])
                   for i in range(n))
        assert out.shape == (n * r, n * s) + kernel
        assert np.allclose(out, want, rtol=1e-12, atol=1e-12)

        ta, tb = leaf(a), leaf(b)
        w = Tensor(rng.uniform(want.shape, -1, 1))
        report = grad_check(lambda: T.sum_(T.mul(T.kron_sum(ta, tb), w)), [ta, tb])
        assert report["passed"], report

    def test_mac_count(self):
        m0 = mac_count()
        T.kron_sum(Tensor(np.ones((2, 2, 2))), Tensor(np.ones((2, 3, 4, 3, 3))))
        assert mac_count() - m0 == 2 * (2 * 2) * (3 * 4 * 9)

    @pytest.mark.parametrize("mshape,bshape", [((0, 2, 2), (0, 3, 3)),        # zero terms
                                               ((1, 0, 2), (1, 3, 3)),
                                               ((1, 2, 2), (1, 3, 0, 3, 3))])
    def test_empty_operand_is_shape_error(self, mshape, bshape):
        with pytest.raises(ShapeError, match="non-empty operands"):
            T.kron_sum(Tensor(np.ones(mshape)), Tensor(np.ones(bshape)))

    def test_rejects_mismatched_terms(self):
        with pytest.raises(ShapeError):
            T.kron_sum(Tensor(np.ones((2, 2, 2))), Tensor(np.ones((3, 1, 1))))
        with pytest.raises(ShapeError):
            T.kron_sum(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 1, 1))))


class TestConv2d:
    def test_one_by_one_identity(self):
        x = Rng(18).uniform((1, 1, 4, 4), -1, 1)
        w = np.ones((1, 1, 1, 1))
        out = T.conv2d(Tensor(nhwc(x)), Tensor(w))
        assert np.array_equal(nchw(out.data), x)

    def test_box_filter_on_constant(self):
        c = 0.7
        x = np.full((1, 1, 5, 5), c)
        w = np.ones((1, 1, 3, 3))
        out = nchw(T.conv2d(Tensor(nhwc(x)), Tensor(w)).data)
        assert np.allclose(out, 9 * c)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_vs_loop_oracle(self, stride, padding):
        rng = Rng(19)
        x = rng.uniform((2, 3, 6, 7), -1, 1)
        w = rng.uniform((4, 3, 3, 3), -1, 1)
        bias = rng.uniform((4,), -1, 1)
        out = nchw(T.conv2d(Tensor(nhwc(x)), Tensor(w), Tensor(bias),
                            stride=stride, padding=padding).data)
        expect = conv_oracle(x, w, bias, stride, padding)
        assert out.shape == expect.shape
        assert np.max(np.abs(out - expect)) < 1e-12

    def test_output_size_formula(self):
        x = Tensor(nhwc(np.zeros((1, 1, 64, 64))))
        w = Tensor(np.zeros((1, 1, 3, 3)))
        assert nchw(T.conv2d(x, w, stride=2, padding=1).data).shape == (1, 1, 32, 32)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            T.conv2d(Tensor(nhwc(np.zeros((1, 2, 4, 4)))), Tensor(np.zeros((1, 3, 3, 3))))

    def test_kernel_too_large(self):
        with pytest.raises(ShapeError):
            T.conv2d(Tensor(nhwc(np.zeros((1, 1, 2, 2)))), Tensor(np.zeros((1, 1, 5, 5))))

    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1)])
    def test_grad_vs_fd(self, stride, padding):
        rng = Rng(20)
        x = rng.uniform((1, 2, 4, 4), -1, 1)
        w = rng.uniform((2, 2, 3, 3), -1, 1)
        bias = rng.uniform((2,), -1, 1)
        tx, tw, tb = leaf(nhwc(x)), leaf(w.copy()), leaf(bias.copy())
        mix = Rng(99).uniform(
            conv_oracle(x, w, bias, stride, padding).shape, -1, 1)
        with Tape():
            loss = T.sum_(T.mul(T.conv2d(tx, tw, tb, stride=stride, padding=padding),
                                Tensor(nhwc(mix))))
        grads = backward(loss)
        num = fd_grad(lambda: float((conv_oracle(nchw(tx.data), tw.data, tb.data,
                                                 stride, padding) * mix).sum()),
                      [tx.data, tw.data, tb.data])
        assert np.allclose(grads[tx].data, num[0], atol=1e-5)
        assert np.allclose(grads[tw].data, num[1], atol=1e-5)
        assert np.allclose(grads[tb].data, num[2], atol=1e-5)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(bsz=st.integers(1, 2), c=st.integers(1, 3), o=st.integers(1, 3),
           h=st.integers(1, 6), w=st.integers(1, 6), k=st.integers(1, 3),
           stride=st.integers(1, 3), padding=st.integers(0, 2),
           seed=st.integers(0, 2**32 - 1))
    # Row phase 0 of a one-row input at stride 2, padding 1 holds no input row.
    @example(bsz=1, c=2, o=2, h=1, w=4, k=3, stride=2, padding=1, seed=5)
    def test_property_vs_loop_oracle_and_grad_check(self, bsz, c, o, h, w, k, stride,
                                                     padding, seed):
        assume(k <= h + 2 * padding and k <= w + 2 * padding)
        rng = Rng(seed)
        tx = leaf(nhwc(rng.uniform((bsz, c, h, w), -1, 1)))
        tw = leaf(rng.uniform((o, c, k, k), -1, 1))
        tb = leaf(rng.uniform((o,), -1, 1))
        out = nchw(T.conv2d(tx, tw, tb, stride=stride, padding=padding).data)
        expect = conv_oracle(nchw(tx.data), tw.data, tb.data, stride, padding)
        assert out.shape == expect.shape
        assert np.max(np.abs(out - expect)) < 1e-12

        mix = Tensor(nhwc(rng.uniform(expect.shape, -1, 1)))
        report = grad_check(lambda: T.sum_(T.mul(
            T.conv2d(tx, tw, tb, stride=stride, padding=padding), mix)), [tx, tw, tb])
        assert report["passed"], report

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(bsz=st.integers(1, 2), c=st.integers(1, 8), o=st.integers(1, 8),
           h=st.integers(1, 9), w=st.integers(1, 9), k=st.integers(1, 3),
           stride=st.integers(1, 3), padding=st.integers(0, 2),
           seed=st.integers(0, 2**32 - 1))
    def test_property_forward_bitwise_and_vjp_vs_im2col_reference(
            self, bsz, c, o, h, w, k, stride, padding, seed):
        """The forward is bit-for-bit the NCHW im2col GEMM `cols @ w.T` in
        both float dtypes; the float32 VJP agrees with the tensordot scatter.
        Inputs are drawn NCHW and transposed at the call."""
        assume(k <= h + 2 * padding and k <= w + 2 * padding)
        rng = Rng(seed)
        x64 = rng.uniform((bsz, c, h, w), -1, 1)
        w64 = rng.uniform((o, c, k, k), -1, 1)
        b64 = rng.uniform((o,), -1, 1)
        for dtype in (np.float32, np.float64):
            x, wk = x64.astype(dtype), w64.astype(dtype)
            cols, ho, wo = im2col_nchw(x, k, stride, padding)
            expect = (cols @ wk.reshape(o, -1).T).reshape(bsz, ho, wo, o).transpose(0, 3, 1, 2)
            out = T.conv2d(Tensor(nhwc(x)), Tensor(wk), stride=stride, padding=padding).data
            assert out.dtype == dtype
            assert np.array_equal(nchw(out), expect)

        x, wk, b = x64.astype(np.float32), w64.astype(np.float32), b64.astype(np.float32)
        g = rng.uniform((bsz, o, ho, wo), -1, 1).astype(np.float32)
        tx, tw, tb = (Tensor(a, requires_grad=True) for a in (nhwc(x), wk, b))
        with Tape():
            loss = T.sum_(T.mul(T.conv2d(tx, tw, tb, stride=stride, padding=padding),
                                Tensor(nhwc(g))))
        grads = backward(loss)
        for got, ref in zip((nchw(grads[tx].data), grads[tw].data, grads[tb].data),
                            conv_vjp_tensordot(g, x, wk, stride, padding)):
            assert got.dtype == np.float32
            assert np.allclose(got, ref, rtol=1e-5, atol=1e-5)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(bsz=st.integers(1, 2), c=st.integers(1, 8), o=st.integers(1, 8),
           h=st.integers(1, 9), w=st.integers(1, 9), k=st.integers(1, 3),
           stride=st.integers(1, 3), padding=st.integers(0, 2),
           seed=st.integers(0, 2**32 - 1))
    def test_property_float64_vjp_matches_im2col_reference(
            self, bsz, c, o, h, w, k, stride, padding, seed):
        """The shifted-gradient VJP gives the im2col reference's gradients
        to float64 rounding, every stride and padding included."""
        assume(k <= h + 2 * padding and k <= w + 2 * padding)
        rng = Rng(seed)
        x = rng.uniform((bsz, c, h, w), -1, 1)
        wk = rng.uniform((o, c, k, k), -1, 1)
        tx, tw, tb = (Tensor(a, requires_grad=True)
                      for a in (nhwc(x), wk, rng.uniform((o,), -1, 1)))
        with Tape():
            out = T.conv2d(tx, tw, tb, stride=stride, padding=padding)
            g = rng.uniform(nchw(out.data).shape, -1, 1)
            loss = T.sum_(T.mul(out, Tensor(nhwc(g))))
        grads = backward(loss)
        for got, ref in zip((nchw(grads[tx].data), grads[tw].data, grads[tb].data),
                            conv_vjp_tensordot(g, x, wk, stride, padding)):
            assert got.dtype == np.float64 and got.shape == ref.shape
            assert np.allclose(got, ref, rtol=1e-10, atol=1e-12)

    @staticmethod
    def _taped_and_streamed(bsz, c, hw, stride, o, dtype):
        """conv2d of one draw under a tape and without: the same blocks of
        at least `_GEMM_BLOCK_ROWS` output pixels either way."""
        rng = Rng(bsz * 1000 + hw * 10 + o)
        x = rng.uniform((bsz, hw, hw, c), -1, 1).astype(dtype)
        w = rng.uniform((o, c, 3, 3), -1, 1).astype(dtype)
        b = rng.uniform((o,), -1, 1).astype(dtype)
        with Tape():
            taped = T.conv2d(Tensor(x, requires_grad=True), Tensor(w), Tensor(b),
                             stride=stride, padding=1)
        streamed = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=1)
        return taped.data, streamed.data

    # (B, C, H=W, stride): fewest output rows per block (`per`), blocks, and
    # the tail of rows past the last whole `per`, which the blocks share
    STREAMED = [(2, 8, 40, 1),    # 26 rows, 3 blocks, tail 2, a block across images
                (3, 16, 70, 2),   # 35x35 output: 30 rows, 3 blocks, tail 15
                (4, 4, 33, 1),    # 32 rows, 4 blocks, tail 4
                (2, 32, 48, 1)]   # 22 rows, 4 blocks, tail 8

    @pytest.mark.parametrize("bsz,c,hw,stride", STREAMED)
    def test_streamed_shapes_take_three_blocks_and_a_tail(self, bsz, c, hw, stride):
        ho = (hw + 2 - 3) // stride + 1
        per = -(-T._GEMM_BLOCK_ROWS // ho)  # square output: Wo = Ho
        assert bsz * ho // per >= 3 and bsz * ho % per and per % ho

    @pytest.mark.parametrize("bsz,c,hw,stride", STREAMED)
    def test_forward_blocks_differ_by_one_row_at_most(self, monkeypatch, bsz, c, hw, stride):
        """The blocks share the tail: their sizes differ by one row at most,
        and each still has at least `_GEMM_BLOCK_ROWS` output pixels, so
        the reused im2col block buffer is as small as the pinned rounding
        allows."""
        sizes = []
        row_windows = T._row_windows

        def spy(parts, up, hw_, padding, s, ho, r0, r1, rows, out):
            sizes.append(r1 - r0)
            return row_windows(parts, up, hw_, padding, s, ho, r0, r1, rows, out)

        monkeypatch.setattr(T, "_row_windows", spy)
        x = Tensor(np.ones((bsz, hw, hw, c), dtype=np.float32))
        out = T.conv2d(x, Tensor(np.ones((2, c, 3, 3), dtype=np.float32)),
                       stride=stride, padding=1)
        assert len(sizes) >= 3 and sum(sizes) == bsz * out.shape[1]
        assert max(sizes) - min(sizes) <= 1
        assert min(sizes) * out.shape[2] >= T._GEMM_BLOCK_ROWS

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("o", [2, 8, 32])
    @pytest.mark.parametrize("bsz,c,hw,stride", STREAMED)
    def test_streamed_forward_is_bitwise_the_taped_one(self, bsz, c, hw, stride, o, dtype):
        taped, streamed = self._taped_and_streamed(bsz, c, hw, stride, o, dtype)
        assert streamed.dtype == dtype
        assert np.array_equal(streamed, taped)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("o", [2, 8, 32])
    @pytest.mark.parametrize("bsz,c,hw,stride", STREAMED)
    def test_streamed_forward_is_bitwise_the_whole_im2col_gemm(self, bsz, c, hw, stride,
                                                               o, dtype):
        """Taped or not, the forward streams; its blocks give the bits of
        one `cols @ w.T` over the whole batch."""
        rng = Rng(bsz * 1000 + hw * 10 + o)
        x = rng.uniform((bsz, hw, hw, c), -1, 1).astype(dtype)
        w = rng.uniform((o, c, 3, 3), -1, 1).astype(dtype)
        b = rng.uniform((o,), -1, 1).astype(dtype)
        cols, ho, wo = im2col_nchw(nchw(x), 3, stride, 1)
        expect = (cols @ w.reshape(o, -1).T + b).reshape(bsz, ho, wo, o)
        with Tape():
            out = T.conv2d(Tensor(x, requires_grad=True), Tensor(w), Tensor(b),
                           stride=stride, padding=1)
        assert np.array_equal(out.data, expect)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bsz,c,hw,stride", STREAMED)
    def test_streamed_single_output_channel_is_close(self, bsz, c, hw, stride, dtype):
        """O = 1 runs as a GEMV, which rounds by its own blocking."""
        taped, streamed = self._taped_and_streamed(bsz, c, hw, stride, 1, dtype)
        assert np.allclose(streamed, taped, rtol=1e-6, atol=1e-6 * np.abs(taped).max())

    @staticmethod
    def _assert_blocked_is_whole_gemm(bsz, c, h, w, o, k, stride, padding, dtype, seed):
        """The forward of one draw is `array_equal` to one whole C-ordered
        `cols @ w.T + b` over the batch."""
        rng = Rng(seed)
        x = rng.uniform((bsz, h, w, c), -1, 1).astype(dtype)
        wk = rng.uniform((o, c, k, k), -1, 1).astype(dtype)
        b = rng.uniform((o,), -1, 1).astype(dtype)
        cols, ho, wo = im2col_nchw(nchw(x), k, stride, padding)
        expect = (cols @ wk.reshape(o, -1).T + b).reshape(bsz, ho, wo, o)
        out = T.conv2d(Tensor(x), Tensor(wk), Tensor(b), stride=stride, padding=padding)
        assert out.data.dtype == dtype
        assert np.array_equal(out.data, expect)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(conv=blocked_convs(), c=st.integers(1, 32), o=st.integers(2, 64),
           dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2**32 - 1))
    @example(conv=(2, 89, 47, 3, 2, 1), c=3, o=5, dtype=np.float32, seed=7)
    def test_property_blocked_forward_is_bitwise_one_c_ordered_gemm(self, conv, c, o,
                                                                   dtype, seed):
        """Blocks of at least 1024 pixels, gathered as F-ordered operands
        from the padded row buffer, round as one C-ordered GEMM over the
        whole batch; at stride 2 and 3 the padded sides often leave a
        remainder of the stride, rows and columns no tap reads."""
        bsz, h, w, k, stride, padding = conv
        self._assert_blocked_is_whole_gemm(bsz, c, h, w, o, k, stride, padding, dtype, seed)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bsz,c,hw,o,stride", [
        (1, 16, 24, 3, 2),   # 144 output pixels: one block, copied to C order
        (4, 32, 64, 2, 1)])  # the U-Net head at desk size: 32 -> 2 channels
    def test_blocked_forward_is_bitwise_one_c_ordered_gemm(self, bsz, c, hw, o, stride, dtype):
        self._assert_blocked_is_whole_gemm(bsz, c, hw, hw, o, 3, stride, 1, dtype, hw + o)

    @pytest.mark.parametrize("xshape,wshape,axis", [
        ((0, 8, 8, 3), (4, 3, 3, 3), "batch"),
        ((2, 8, 8, 0), (4, 0, 3, 3), "channel"),
        ((2, 8, 8, 3), (0, 3, 3, 3), "output-channel")])
    def test_empty_axis_is_shape_error(self, xshape, wshape, axis):
        with pytest.raises(ShapeError, match=f"empty {axis} axis"):
            T.conv2d(Tensor(np.zeros(xshape)), Tensor(np.zeros(wshape)), padding=1)

    def test_untaped_forward_never_holds_the_whole_im2col(self):
        rng = Rng(22)
        x = Tensor(rng.uniform((1, 256, 256, 32), -1, 1).astype(np.float32))
        w = Tensor(rng.uniform((32, 32, 3, 3), -1, 1).astype(np.float32))
        im2col_bytes = 256 * 256 * 32 * 9 * 4  # 72 MiB
        tracemalloc.start()
        try:
            T.conv2d(x, w, padding=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < im2col_bytes / 2

    def test_taped_step_never_holds_the_whole_im2col(self):
        """Under a tape the forward keeps only the padded input, and the VJP
        builds both gradients block by block from the shifted gradient."""
        rng = Rng(23)
        x = Tensor(rng.uniform((4, 64, 64, 64), -1, 1).astype(np.float32),
                   requires_grad=True)
        w = Tensor(rng.uniform((32, 64, 3, 3), -1, 1).astype(np.float32),
                   requires_grad=True)
        g = rng.uniform((4, 64, 64, 32), -1, 1).astype(np.float32)
        im2col_bytes = 4 * 64 * 64 * 64 * 9 * 4  # 36 MiB
        tracemalloc.start()
        try:
            with Tape():
                out = T.conv2d(x, w, padding=1)
            forward_peak = tracemalloc.get_traced_memory()[1]
            gx, gw = out.node.vjp(g, (True, True))
            step_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gx.shape == x.shape and gw.shape == w.shape
        assert forward_peak < im2col_bytes / 3
        assert step_peak < im2col_bytes

    @pytest.mark.parametrize("xshape,o,stride,share", [
        ((4, 64, 64, 64), 32, 1, 2),   # measured 0.78 MiB, g 2 MiB
        ((1, 320, 320, 32), 64, 2, 4)])  # measured 1.22 MiB, g 6.25 MiB
    def test_vjp_holds_no_gradient_sized_grid(self, xshape, o, stride, share):
        """Beyond the two gradients it returns, the VJP holds only block-sized
        buffers: it lays the output gradient on the phase grid a block of
        rows at a time. A zero-padded grid of the whole batch's output
        gradient held 2.85 and 7.12 MiB here."""
        rng = Rng(27)
        x = Tensor(rng.uniform(xshape, -1, 1).astype(np.float32), requires_grad=True)
        w = Tensor(rng.uniform((o, xshape[3], 3, 3), -1, 1).astype(np.float32),
                   requires_grad=True)
        with Tape():
            out = T.conv2d(x, w, stride=stride, padding=1)
        g = rng.uniform(out.shape, -1, 1).astype(np.float32)
        tracemalloc.start()
        try:
            gx, gw = out.node.vjp(g, (True, True))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - gx.nbytes - gw.nbytes < g.nbytes / share

    def test_untaped_forward_keeps_no_copy_of_the_input(self):
        """Only the padded input rows one block reads are laid out: the
        peak holds the output and block-sized buffers, no input copy."""
        rng = Rng(22)
        x = Tensor(rng.uniform((1, 256, 256, 32), -1, 1).astype(np.float32))
        w = Tensor(rng.uniform((32, 32, 3, 3), -1, 1).astype(np.float32))
        tracemalloc.start()
        try:
            out = T.conv2d(x, w, padding=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.data.nbytes + x.data.nbytes / 2

    def test_taped_forward_keeps_no_copy_of_the_input(self):
        """Under a tape the VJP keeps only `x.data` and `w.data`, which the
        caller holds too: what the forward leaves behind besides its output
        is small."""
        rng = Rng(24)
        x = Tensor(rng.uniform((4, 64, 64, 64), -1, 1).astype(np.float32), requires_grad=True)
        w = Tensor(rng.uniform((32, 64, 3, 3), -1, 1).astype(np.float32), requires_grad=True)
        b = Tensor(rng.uniform((32,), -1, 1).astype(np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            with Tape():
                out = T.conv2d(x, w, b, padding=1)
            held = tracemalloc.get_traced_memory()[0] - out.data.nbytes
        finally:
            tracemalloc.stop()
        assert held < x.data.nbytes / 4

    @pytest.mark.parametrize("stride", [1, 2])
    def test_vjp_captures_no_array_but_the_inputs(self, stride):
        rng = Rng(26)
        x = leaf(rng.uniform((2, 9, 9, 3), -1, 1))
        w = leaf(rng.uniform((4, 3, 3, 3), -1, 1))
        with Tape():
            out = T.conv2d(x, w, leaf(np.zeros(4)), stride=stride, padding=1)
        arrays = [cell.cell_contents for cell in out.node.vjp.__closure__
                  if isinstance(cell.cell_contents, np.ndarray)]
        assert arrays and all(a is x.data or a is w.data for a in arrays)

    def test_vjp_skips_gradients_not_needed(self):
        rng = Rng(21)
        x = leaf(nhwc(rng.uniform((2, 3, 5, 5), -1, 1)))
        w = leaf(rng.uniform((4, 3, 3, 3), -1, 1))
        with Tape():
            out = T.conv2d(x, w, padding=1)
        g = np.ones_like(out.data)
        gx, gw = out.node.vjp(g, (False, True))
        assert gx is None and gw.shape == w.shape
        gx, gw = out.node.vjp(g, (True, False))
        assert gw is None and gx.shape == x.shape
        with Tape():
            out = T.conv2d(x, w, leaf(np.zeros(4)), stride=2, padding=1)
        gx, gw, gb = out.node.vjp(np.ones_like(out.data), (False, False, True))
        assert gx is None and gw is None and np.array_equal(gb, np.full(4, 2.0 * 3 * 3))


class TestBlasRounding:
    """The conv forward hands BLAS F-ordered im2col blocks (`tensor._row_windows`)
    and relies on them rounding as C-ordered ones once a block has at least
    `_GEMM_BLOCK_ROWS` rows. That is a property of the BLAS build, so it is
    checked here on its own, to fail first and by name after a BLAS change."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n,k,o", [(1024, 18, 32), (1024, 288, 2), (1280, 576, 32),
                                       (2048, 72, 64), (3000, 1152, 3), (4096, 144, 128)])
    def test_f_ordered_operand_rounds_as_c_ordered(self, n, k, o, dtype):
        rng = Rng(n + k + o)
        a = rng.uniform((n, k), -1, 1).astype(dtype)
        w = rng.uniform((o, k), -1, 1).astype(dtype)
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert np.array_equal(np.matmul(np.asfortranarray(a), w.T), a @ w.T), (
            f"{blas.get('name')} {blas.get('version')}: an F-ordered [{n}, {k}] operand "
            f"times [{k}, {o}] rounds unlike a C-ordered one, so conv2d's blocked forward "
            f"is no longer bitwise the whole im2col GEMM")


class TestReductionsAndShapes:
    def test_sum_all(self):
        assert T.sum_(Tensor(np.ones((3, 3)))).item() == 9.0

    def test_mean_pair(self):
        assert T.mean_(Tensor([2.0, 4.0])).item() == 3.0

    def test_mean_grad_is_uniform(self):
        x = leaf(np.arange(4.0))
        with Tape():
            loss = T.mean_(x)
        g = backward(loss)[x].data
        assert np.allclose(g, 0.25)

    def test_reshape_roundtrip_grad(self):
        x = leaf(np.arange(6.0).reshape(2, 3))
        with Tape():
            loss = T.sum_(T.mul(T.reshape(x, (3, 2)), T.reshape(x, (3, 2))))
        g = backward(loss)[x].data
        assert np.allclose(g, 2 * x.data)

    def test_transpose_grad(self):
        x = leaf(Rng(23).uniform((2, 3), -1, 1))
        w = Rng(24).uniform((3, 2), -1, 1)
        with Tape():
            loss = T.sum_(T.mul(T.transpose(x, (1, 0)), Tensor(w)))
        g = backward(loss)[x].data
        assert np.array_equal(g, w.T)

    def test_concat_splits_gradient(self):
        a, b = leaf(np.ones((2, 3, 4, 2))), leaf(np.ones((2, 3, 4, 3)))
        w = Rng(25).uniform((2, 3, 4, 5), -1, 1)
        with Tape():
            loss = T.sum_(T.mul(identity_conv(T.concat([a, b])), Tensor(w)))
        grads = backward(loss)
        assert np.array_equal(grads[a].data, w[..., :2])
        assert np.array_equal(grads[b].data, w[..., 2:])

    @pytest.mark.parametrize("shapes,dtypes", [
        ((), ()), (((), ()), ("f8", "f8")), (((2, 3), (3, 3)), ("f8", "f8")),
        (((2, 3), (2,)), ("f8", "f8")), (((2, 3), (2, 3)), ("f8", "f4"))])
    def test_concat_mismatch_is_shape_error(self, shapes, dtypes):
        """No parts, 0-d parts, other axes that differ, or two dtypes."""
        parts = [Tensor(np.ones(s, dtype=d)) for s, d in zip(shapes, dtypes)]
        with pytest.raises(ShapeError, match="concat"):
            T.concat(parts)

    def test_upsample_values_and_grad(self):
        x = leaf(nhwc(np.arange(4.0).reshape(1, 1, 2, 2)))
        with Tape():
            y = identity_conv(T.upsample2x(x))
            loss = T.sum_(y)
        up = nchw(y.data)
        assert up.shape == (1, 1, 4, 4)
        assert np.array_equal(up[0, 0, :2, :2], np.full((2, 2), 0.0))
        assert np.array_equal(up[0, 0, 2:, 2:], np.full((2, 2), 3.0))
        assert np.allclose(backward(loss)[x].data, 4.0)

    def test_upsample_vjp_sums_each_2x2_block(self):
        rng = Rng(29)
        x = leaf(rng.uniform((2, 3, 4, 5), -1, 1))
        g = rng.uniform((2, 6, 8, 5), -1, 1)
        with Tape():
            loss = T.sum_(T.mul(identity_conv(T.upsample2x(x)), Tensor(g)))
        expect = g.reshape(2, 3, 2, 4, 2, 5).sum(axis=(2, 4))
        assert np.allclose(backward(loss)[x].data, expect, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(2, 0), ()])
    def test_softmax_of_empty_last_axis_is_shape_error(self, shape):
        with pytest.raises(ShapeError, match="non-empty last axis"):
            T.softmax(Tensor(np.ones(shape)))

    def test_softmax_rows_sum_to_one(self):
        x = Rng(26).uniform((5, 7), -5, 5)
        out = T.softmax(Tensor(x)).data
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(out > 0)

    def test_softmax_grad_vs_fd(self):
        x = leaf(Rng(27).uniform((2, 4), -2, 2))
        w = Rng(28).uniform((2, 4), -1, 1)
        with Tape():
            loss = T.sum_(T.mul(T.softmax(x), Tensor(w)))
        g = backward(loss)[x].data

        def scalar():
            e = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
            return float(((e / e.sum(axis=-1, keepdims=True)) * w).sum())

        num = fd_grad(scalar, [x.data])
        assert np.allclose(g, num[0], atol=1e-6)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(x=st.sampled_from([np.float32, np.float64]).flatmap(lambda dtype: hnp.arrays(
        dtype, st.tuples(hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=5),
                         st.integers(1, 17)).map(lambda s: (*s[0], s[1])),
        elements=st.floats(-200, 200, width=32))))
    @example(x=np.zeros((0, 3, 5), dtype=np.float32))
    @example(x=Rng(30).uniform((128, 16, 16), -8, 8, dtype=np.float32))
    def test_softmax_is_bitwise_the_reference_formula(self, x):
        """The row max softmax takes from the transposed rows is exact, so
        the output is bitwise that of the plain formula, 1-D and with an
        empty leading axis included."""
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        want = e / e.sum(axis=-1, keepdims=True)
        got = T.softmax(Tensor(x)).data
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@st.composite
def joined_convs(draw):
    """(B, h, w, channels, k, stride, padding) of a conv over an upsampled
    [B,2h,2w,C] map, which is read at stride 1, or a [B,2h,2w,C0+C1]
    concat: up to 2 x 28 x 28 output pixels, so a forward block may cross
    images, and odd padding makes input rows start at either parity of the
    upsample."""
    k, stride, padding = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(0, 2))
    h, w = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    assume(k <= 2 * min(h, w) + 2 * padding)
    chans = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    return draw(st.integers(1, 2)), h, w, chans, k, stride, padding


class TestUntapedJoins:
    """`concat` and `upsample2x` return joins, which only `conv2d` reads,
    from their sources."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_identity_conv_of_a_join_is_bitwise_the_built_array(self, dtype):
        rng = Rng(40)
        a = rng.uniform((2, 3, 5, 2), -1, 1).astype(dtype)
        b = rng.uniform((2, 3, 5, 3), -1, 1).astype(dtype)
        cat, up = T.concat([Tensor(a), Tensor(b)]), T.upsample2x(Tensor(a))
        for join in (cat, up):
            assert isinstance(join, T._Join) and join.dtype == dtype
        assert cat.shape == (2, 3, 5, 5) and up.shape == (2, 6, 10, 2)
        assert identity_conv(cat).data.tobytes() == np.concatenate([a, b], axis=-1).tobytes()
        assert identity_conv(up).data.tobytes() == np.repeat(
            np.repeat(a, 2, axis=1), 2, axis=2).tobytes()

    @pytest.mark.parametrize("read", [
        lambda j: j.data, lambda j: T.add(j, 1.0), lambda j: T.relu(j),
        lambda j: T.reshape(j, (-1,)), lambda j: T.concat([j])],
        ids=["data", "add", "relu", "reshape", "concat"])
    @pytest.mark.parametrize("op", ["concat", "upsample2x"])
    def test_any_reader_but_conv2d_is_a_shape_error_naming_the_op(self, op, read):
        a = Tensor(np.ones((1, 2, 3, 2)))
        join = join_of(op, [a, a])
        with pytest.raises(ShapeError, match=f"'{op}'"):
            read(join)

    @pytest.mark.parametrize("taped", [False, True])
    def test_conv_of_an_upsample_at_stride_2_is_a_shape_error(self, taped):
        """The conv VJP pools an upsampled source's gradient at stride 1
        only, so no stride is read but 1, with or without a tape."""
        x = leaf(np.ones((1, 3, 3, 2)))
        with Tape() if taped else contextlib.nullcontext():
            with pytest.raises(ShapeError, match="upsample2x.*stride 1, got 2"):
                T.conv2d(T.upsample2x(x), Tensor(np.ones((2, 2, 3, 3))), stride=2, padding=1)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(geom=joined_convs(), dtype=st.sampled_from([np.float32, np.float64]))
    @example(geom=(2, 14, 14, [3, 2], 3, 1, 1), dtype=np.float32)
    @example(geom=(1, 32, 32, [2, 1], 3, 1, 1), dtype=np.float32)  # four blocks
    def test_conv_of_a_join_is_bitwise_the_conv_of_the_built_array(self, geom, dtype):
        bsz, h, w, chans, k, stride, padding = geom
        rng = Rng(sum(chans) + 7 * h + w)
        srcs = [rng.uniform((bsz, 2 * h, 2 * w, c), -1, 1).astype(dtype) for c in chans]
        small = rng.uniform((bsz, h, w, chans[0]), -1, 1).astype(dtype)
        b = Tensor(rng.uniform((4,), -1, 1).astype(dtype))
        for join, built, s in ((T.upsample2x(Tensor(small)),
                                np.repeat(np.repeat(small, 2, axis=1), 2, axis=2), 1),
                               (T.concat([Tensor(a) for a in srcs]),
                                np.concatenate(srcs, axis=-1), stride)):
            w_ = Tensor(rng.uniform((4, built.shape[3], k, k), -1, 1).astype(dtype))
            got = T.conv2d(join, w_, b, stride=s, padding=padding).data
            want = T.conv2d(Tensor(built), w_, b, stride=s, padding=padding).data
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kernel", ["random", "zero"])
    @pytest.mark.parametrize("taped", [False, True])
    @pytest.mark.parametrize("op", ["concat", "upsample2x"])
    def test_non_finite_source_is_caught_by_the_reading_conv(self, op, taped, kernel):
        """A join does not scan its sources; a NaN in one reaches the output
        of the conv that reads the join, even through an all-zero kernel
        (NaN * 0 is NaN), and that conv's check names it."""
        a = np.ones((1, 2, 2, 3))
        a[0, 1, 0, 2] = np.nan
        parts = [leaf(np.ones((1, 2, 2, 1))), leaf(a)]
        shape = (2, 4 if op == "concat" else 3, 3, 3)
        w = Rng(43).uniform(shape, -1, 1) if kernel == "random" else np.zeros(shape)
        with Tape() if taped else contextlib.nullcontext():
            join = T.concat(parts) if op == "concat" else T.upsample2x(parts[1])
            with pytest.raises(NumericError, match="op 'conv2d'"):
                T.conv2d(join, leaf(w), leaf(np.zeros(2)), stride=1, padding=1)

    def test_joins_do_not_scan_their_sources(self, monkeypatch):
        calls = []
        real = T._all_finite
        monkeypatch.setattr(T, "_all_finite", lambda a: calls.append(a.shape) or real(a))
        x = Tensor(np.ones((1, 2, 2, 3)))
        T.concat([x, x])
        T.upsample2x(x)
        assert calls == []

    @pytest.mark.parametrize("taped", [False, True])
    def test_relu_leaves_its_input_unless_inplace(self, taped):
        """`relu` writes a fresh output and leaves a leaf as it was; only
        `inplace` rectifies the input's own buffer, with the same bytes and,
        taped, the same gradient."""
        x0 = Rng(41).uniform((3, 4, 5), -1, 1)
        g = Rng(42).uniform((3, 4, 5), -1, 1)
        results = []
        for inplace in (False, True):
            x = leaf(x0.copy())
            with Tape() if taped else contextlib.nullcontext():
                y = T.relu(x, 2.0, inplace=inplace)
                loss = T.sum_(T.mul(y, Tensor(g))) if taped else None
            assert (y.data is x.data) == inplace
            assert np.array_equal(x.data, y.data if inplace else x0)
            results.append(y.data.tobytes())
            if taped:
                results.append(backward(loss)[x].data.tobytes())
        half = len(results) // 2
        assert results[:half] == results[half:]


@st.composite
def taped_joins(draw):
    """(op, B, h, w, channels, needs, k, stride, padding) of a conv over the
    `concat` of [B,h,w,Ci] sources or the `upsample2x` of one [B,h,w,C]
    source, read at stride 1; `needs` says which sources require a
    gradient."""
    op = draw(st.sampled_from(["concat", "upsample2x"]))
    k, padding = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    stride = 1 if op == "upsample2x" else draw(st.integers(1, 2))
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    scale = 2 if op == "upsample2x" else 1
    assume(k <= scale * min(h, w) + 2 * padding)
    chans = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3 if op == "concat" else 1))
    needs = draw(st.lists(st.booleans(), min_size=len(chans), max_size=len(chans)))
    return op, draw(st.integers(1, 2)), h, w, chans, needs, k, stride, padding


def join_of(op, srcs):
    return T.concat(srcs) if op == "concat" else T.upsample2x(srcs[0])


class TestTapedJoins:
    """A taped conv of a join records the join's sources as its inputs and
    reads their arrays: an upsampled source's gradients are taken from the
    2x2 sums of the shifted output gradient."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(geom=taped_joins())
    @example(geom=("upsample2x", 2, 7, 5, [3], [True], 3, 1, 1))
    @example(geom=("concat", 2, 9, 8, [2, 1, 3], [False, True, True], 3, 2, 1))
    def test_gradients_match_the_built_join_and_its_vjp(self, geom):
        """Float64 oracle: each source's gradient and the kernel and bias
        gradients of `conv2d(join)` are, within rtol 1e-10, those of
        `conv2d` on the built array followed by the concat or upsample
        VJP (the split or the 2x2 sum); the output is bitwise the same."""
        op, bsz, h, w, chans, needs, k, stride, padding = geom
        rng = Rng(len(chans) + 5 * h + 11 * w + 31 * k)
        arrs = [rng.uniform((bsz, h, w, c), -1, 1) for c in chans]
        if op == "concat":
            built = np.concatenate(arrs, axis=-1)
        else:
            built = np.repeat(np.repeat(arrs[0], 2, axis=1), 2, axis=2)
        wt = leaf(rng.uniform((3, built.shape[3], k, k), -1, 1))
        b = leaf(rng.uniform((3,), -1, 1))
        srcs = [Tensor(a, requires_grad=need) for a, need in zip(arrs, needs)]
        xb = leaf(built)

        with Tape():
            join = join_of(op, srcs)
            out = T.conv2d(join, wt, b, stride=stride, padding=padding)
            g = Tensor(Rng(7).uniform(out.shape, -1, 1))
            loss = T.sum_(T.mul(out, g))
        got = backward(loss)
        with Tape():
            ref_out = T.conv2d(xb, wt, b, stride=stride, padding=padding)
            ref_loss = T.sum_(T.mul(ref_out, g))
        ref = backward(ref_loss)
        assert out.data.tobytes() == ref_out.data.tobytes()
        gx = ref[xb].data
        if op == "concat":
            want = np.split(gx, np.cumsum(chans)[:-1], axis=-1)
        else:
            want = [gx.reshape(bsz, h, 2, w, 2, -1).sum(axis=(2, 4))]
        for src, need, wx in zip(srcs, needs, want):
            if need:
                np.testing.assert_allclose(got[src].data, wx, rtol=1e-10,
                                           atol=1e-10 * np.abs(wx).max())
            else:
                assert src not in got
        for p in (wt, b):
            np.testing.assert_allclose(got[p].data, ref[p].data, rtol=1e-10,
                                       atol=1e-10 * np.abs(ref[p].data).max())

    def test_an_untaped_join_read_under_a_tape_gives_its_sources_gradients(self):
        """A join made without a tape is read as its sources: a taped conv
        of it gives them, bitwise, the gradients that a join made under the
        tape gets them, and a source that needs none gets none."""
        rng = Rng(44)
        a = leaf(rng.uniform((1, 4, 4, 2), -1, 1))
        c = Tensor(rng.uniform((1, 4, 4, 2), -1, 1))
        for make in (lambda: T.concat([a]), lambda: T.upsample2x(a), lambda: T.concat([a, c])):
            wt = leaf(rng.uniform((2, make().shape[3], 3, 3), -1, 1))
            untaped_join = make()
            with Tape():
                loss = T.sum_(T.conv2d(untaped_join, wt, padding=1))
            got = backward(loss)
            with Tape():
                loss = T.sum_(T.conv2d(make(), wt, padding=1))
            want = backward(loss)
            assert set(got) == set(want) == {a, wt}
            for p in (a, wt):
                assert got[p].data.tobytes() == want[p].data.tobytes()

    @pytest.mark.parametrize("op", ["concat", "upsample2x"])
    def test_a_join_read_on_another_tape_is_a_tape_error(self, op):
        """A join of a result recorded on one tape, read by a conv on
        another, is refused like any input from another tape."""
        h = leaf(Rng(46).uniform((1, 3, 3, 2), -1, 1))
        with Tape():
            join = join_of(op, [T.relu(h), h])
        with Tape():
            with pytest.raises(TapeError, match="op 'conv2d'.*another tape"):
                T.conv2d(join, leaf(np.ones((2, join.shape[3], 3, 3))), padding=1)

    def test_grad_check_through_an_upsample_and_a_skip_concat(self):
        """Central differences through the U-Net's up path: a conv of an
        upsampled map, concatenated behind a skip, and a conv of that."""
        rng = Rng(45)
        x, skip = leaf(rng.uniform((2, 3, 4, 2), -1, 1)), leaf(rng.uniform((2, 6, 8, 2), -1, 1))
        w1, w2 = leaf(rng.uniform((3, 2, 3, 3), -0.5, 0.5)), leaf(rng.uniform((2, 5, 3, 3), -0.5, 0.5))
        b1 = leaf(rng.uniform((3,), -0.5, 0.5))

        def f():
            h = T.conv2d(T.upsample2x(x), w1, b1, padding=1)
            y = T.conv2d(T.concat([skip, h]), w2, padding=1)
            return T.mul(T.mean_(T.mul(y, y)), 0.5)

        report = grad_check(f, [x, skip, w1, b1, w2])
        assert report["passed"], report


@st.composite
def gate_convs(draw):
    """(op, B, h, w, channels, O, k, stride, padding) of a conv with O
    outputs over a plain [B,h,w,C] input, the `concat` of 1-3 [B,h,w,Ci]
    parts, or the `upsample2x` of one [B,h,w,C] source (read at stride 1)."""
    op = draw(st.sampled_from(["plain", "concat", "upsample2x"]))
    k, padding = draw(st.integers(1, 5)), draw(st.integers(0, 2))
    stride = 1 if op == "upsample2x" else draw(st.integers(1, 2))
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    scale = 2 if op == "upsample2x" else 1
    assume(k <= scale * min(h, w) + 2 * padding)
    chans = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3 if op == "concat" else 1))
    return (op, draw(st.integers(1, 2)), h, w, chans, draw(st.integers(1, 4)), k, stride,
            padding)


def float64_errors(geom, seed):
    """The float32 `conv2d` forward, each source's input gradient and the
    kernel gradient against the same taped op run in float64 on the same
    float32 values: (name, largest error, scale). The scale is the largest
    entry of that float64 op run on the values' magnitudes, the sum of
    |term| that bounds each entry whatever its cancellation."""
    op, bsz, h, w, chans, o, k, stride, padding = geom
    rng = Rng(seed)
    arrs = [rng.uniform((bsz, h, w, c), -1, 1, dtype=np.float32) for c in chans]
    kernel = rng.uniform((o, sum(chans), k, k), -1, 1, dtype=np.float32)
    bias = rng.uniform((o,), -1, 1, dtype=np.float32)
    runs = []
    for dtype, values in ((np.float32, np.asarray), (np.float64, np.asarray),
                          (np.float64, np.abs)):
        srcs = [Tensor(values(a).astype(dtype), requires_grad=True) for a in arrs]
        wt = Tensor(values(kernel).astype(dtype), requires_grad=True)
        with Tape():
            x = srcs[0] if op == "plain" else join_of(op, srcs)
            out = T.conv2d(x, wt, Tensor(values(bias).astype(dtype)), stride=stride,
                           padding=padding)
            g = values(Rng(seed + 1).uniform(out.shape, -1, 1, dtype=np.float32))
            grads = backward(T.sum_(T.mul(out, Tensor(g.astype(dtype)))))
        runs.append([("forward", out.data), ("kernel gradient", grads[wt].data)]
                    + [(f"source {i} gradient", grads[s].data) for i, s in enumerate(srcs)])
    return [(name, float(np.abs(got - want).max()), float(terms.max()))
            for (name, got), (_, want), (_, terms) in zip(*runs)]


class TestFloat64Gate:
    """The float32 conv is within a fixed bound of float64 on any BLAS
    kernel: a bound on what kronmri computes, where the bitwise pins above
    fix one kernel's rounding.

    Each error is bounded by 2e-6 of its scale, the largest sum of |term|
    (`float64_errors`). Over 2000 drawn cases the worst read 1.5e-7 on the
    default SkylakeX kernels, 1.5e-7 with OPENBLAS_CORETYPE=Haswell, 1.3e-7
    with Prescott and 1.5e-7 with SandyBridge. Against the float64 result's
    own largest magnitude instead, a 1x1, one-channel kernel gradient (one
    sum over 140 output pixels that cancelled to 1e-2 of its terms) read
    1.2e-5 on the default kernels: that scale measures the sum's
    conditioning, not float32 arithmetic."""

    BOUND = 2e-6

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(geom=gate_convs(), seed=st.integers(0, 2**32 - 2))
    @example(geom=("upsample2x", 2, 9, 9, [4], 4, 5, 1, 2), seed=3)
    @example(geom=("concat", 2, 9, 9, [4, 4, 4], 4, 5, 2, 2), seed=4)
    def test_float32_is_within_bound_of_float64(self, geom, seed):
        for name, err, scale in float64_errors(geom, seed):
            assert err <= self.BOUND * scale, (name, err / scale)


def kron_weight_graph(case, dtype, keep_weight=False):
    """A taped graph whose weight `w = kron_sum(mixing, blocks)` is read by
    one op: `conv2d` at stride 1 or 2, `conv2d` of a concat or of an
    upsample join, or `linear`. With `keep_weight`, `w.rebuild` is cleared
    first, so the op's VJP keeps `w.data`. Returns the leaves, the loss and
    a weak reference to `w.data`, taken once the program has dropped `w`
    and while the tape lives."""
    rng = Rng(61)

    def new_leaf(*shape):
        return Tensor(rng.uniform(shape, -1, 1, dtype=dtype), requires_grad=True)

    mixing, bias = new_leaf(2, 2, 2), new_leaf(6)
    blocks = new_leaf(2, 3, 2) if case == "linear" else new_leaf(2, 3, 2, 3, 3)
    xs = {"linear": [new_leaf(5, 4)], "concat": [new_leaf(2, 6, 5, 1), new_leaf(2, 6, 5, 3)],
          "upsample2x": [new_leaf(2, 3, 4, 4)]}.get(case, [new_leaf(2, 7, 6, 4)])
    with Tape():
        w = T.kron_sum(mixing, blocks)
        if keep_weight:
            w.rebuild = None
        if case == "linear":
            out = T.linear(xs[0], w, bias)
        else:
            x = join_of(case, xs) if case in ("concat", "upsample2x") else xs[0]
            out = T.conv2d(x, w, bias, stride=2 if case == "conv2d-s2" else 1, padding=1)
        kept = weakref.ref(w.data)
        del w
        loss = T.sum_(T.mul(out, Tensor(Rng(62).uniform(out.shape, -1, 1, dtype=dtype))))
    return [mixing, blocks, bias, *xs], loss, kept


REBUILD_CASES = ["conv2d-s1", "conv2d-s2", "concat", "upsample2x", "linear"]


class TestRebuiltWeights:
    """A taped `conv2d` or `linear` keeps a `kron_sum` weight's rebuild,
    not the weight, and rebuilds it bitwise when its VJP runs."""

    def test_rebuild_is_bitwise_the_forward(self):
        rng = Rng(60)
        for blocks in ((2, 3, 5), (2, 3, 5, 3, 3)):
            w = T.kron_sum(Tensor(rng.uniform((2, 2, 2), -1, 1, dtype=np.float32)),
                           Tensor(rng.uniform(blocks, -1, 1, dtype=np.float32)))
            again = w.rebuild()
            assert again is not w.data and again.flags.c_contiguous
            assert again.tobytes() == w.data.tobytes()

    @pytest.mark.parametrize("case", REBUILD_CASES)
    def test_a_dropped_weight_is_freed_while_the_tape_lives(self, case):
        leaves, loss, kept = kron_weight_graph(case, np.float32)
        assert kept() is None
        assert set(backward(loss)) == set(leaves)
        # the VJP of a weight with no rebuild keeps it, as a dense weight's does
        assert kron_weight_graph(case, np.float32, keep_weight=True)[2]() is not None

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", REBUILD_CASES)
    def test_leaf_gradients_are_bitwise_those_of_the_kept_weight(self, case, dtype):
        leaves, loss, _ = kron_weight_graph(case, dtype)
        got = backward(loss)
        ref_leaves, ref_loss, _ = kron_weight_graph(case, dtype, keep_weight=True)
        want = backward(ref_loss)
        for p, q in zip(leaves, ref_leaves):
            assert got[p].data.tobytes() == want[q].data.tobytes()


def cheap_activation_graph(stride, dtype, kernel="plain", keep=False):
    """A taped graph shaped like the U-Net stem: a cheap conv (C*k*k = 18 <
    O = 24), its in-place relu, and a conv that reads the relu's output.
    The first kernel is a leaf or, for "kron_sum", a `kron_sum` of two.
    With `keep`, the cheap conv's `rebuild` is cleared before the relu, so
    no activation has one and the second conv's VJP keeps the activation.
    Returns the leaves, the loss and a weak reference to the activation,
    taken once the program has dropped it and while the tape lives."""
    rng = Rng(63)

    def new_leaf(*shape):
        return Tensor(rng.uniform(shape, -1, 1, dtype=dtype), requires_grad=True)

    x, b1, w2, b2 = new_leaf(2, 11, 9, 2), new_leaf(24), new_leaf(4, 24, 3, 3), new_leaf(4)
    factors = ([new_leaf(2, 2, 2), new_leaf(2, 12, 1, 3, 3)] if kernel == "kron_sum"
               else [new_leaf(24, 2, 3, 3)])
    with Tape():
        w1 = T.kron_sum(*factors) if kernel == "kron_sum" else factors[0]
        h = T.conv2d(x, w1, b1, stride=stride, padding=1)
        if keep:
            h.rebuild = None
        h = T.relu(h, 1.4, inplace=True)
        kept = weakref.ref(h.data)
        out = T.conv2d(h, w2, b2, padding=1)
        del h, w1
        loss = T.sum_(T.mul(out, Tensor(rng.uniform(out.shape, -1, 1, dtype=dtype))))
    return [x, *factors, b1, w2, b2], loss, kept


class TestRebuiltActivations:
    """A taped conv whose im2col row is shorter than its output row
    (C*k*k < O) gives its result a rebuild, relu composes onto it, and a
    conv VJP keeps a plain input's rebuild instead of its array."""

    @pytest.mark.parametrize("kernel", ["plain", "kron_sum"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_rebuild_is_bitwise_the_forward(self, stride, dtype, kernel):
        rng = Rng(64)
        x = Tensor(rng.uniform((2, 40, 33, 2), -1, 1, dtype=dtype), requires_grad=True)
        b = Tensor(rng.uniform((24,), -1, 1, dtype=dtype), requires_grad=True)
        with Tape():  # 2 * 40 * 33 output pixels at stride 1: two GEMM blocks
            w = (T.kron_sum(Tensor(rng.uniform((2, 2, 2), -1, 1, dtype=dtype), requires_grad=True),
                            Tensor(rng.uniform((2, 12, 1, 3, 3), -1, 1, dtype=dtype)))
                 if kernel == "kron_sum" else Tensor(rng.uniform((24, 2, 3, 3), -1, 1, dtype=dtype)))
            h = T.conv2d(x, w, b, stride=stride, padding=1)
            again = h.rebuild()
            assert again is not h.data and again.tobytes() == h.data.tobytes()
            r = T.relu(h, 1.4, inplace=True)
        assert r.data is h.data and h.rebuild is None  # the rebuild moved to the output
        again = r.rebuild()
        assert again is not r.data and again.tobytes() == r.data.tobytes()

    @pytest.mark.parametrize("kernel", ["plain", "kron_sum"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_leaf_gradients_are_bitwise_those_of_the_kept_activation(self, stride, dtype, kernel):
        leaves, loss, _ = cheap_activation_graph(stride, dtype, kernel)
        got = backward(loss)
        ref_leaves, ref_loss, _ = cheap_activation_graph(stride, dtype, kernel, keep=True)
        want = backward(ref_loss)
        assert set(got) == set(leaves)
        for p, q in zip(leaves, ref_leaves):
            assert got[p].data.tobytes() == want[q].data.tobytes()

    def test_a_dropped_activation_is_freed_while_the_tape_lives(self):
        leaves, loss, kept = cheap_activation_graph(1, np.float32)
        assert kept() is None
        assert set(backward(loss)) == set(leaves)
        # without a rebuild the reading conv's VJP keeps the activation
        assert cheap_activation_graph(1, np.float32, keep=True)[2]() is not None

    def test_only_a_taped_cheap_conv_and_its_relu_carry_a_rebuild(self):
        rng = Rng(65)
        x = Tensor(rng.uniform((1, 6, 6, 2), -1, 1), requires_grad=True)
        cheap, even = (Tensor(rng.uniform((o, 2, 3, 3), -1, 1)) for o in (19, 18))
        untaped = T.conv2d(x, cheap, padding=1)
        assert untaped.rebuild is None and T.relu(untaped).rebuild is None
        with Tape():
            assert T.conv2d(x, even, padding=1).rebuild is None  # C*k*k = O
            assert T.relu(x).rebuild is None
            h = T.conv2d(x, cheap, padding=1)
            assert h.rebuild is not None
            assert T.concat([h]).rebuild is None and T.upsample2x(h).rebuild is None


class TestTapeSemantics:
    def test_backward_of_sum_is_ones(self):
        x = leaf(np.arange(5.0))
        with Tape():
            loss = T.sum_(x)
        assert np.array_equal(backward(loss)[x].data, np.ones(5))

    def test_backward_of_square_sum(self):
        x = leaf(np.arange(1.0, 4.0))
        with Tape():
            loss = T.sum_(T.mul(x, x))
        assert np.allclose(backward(loss)[x].data, 2 * x.data)

    def test_multi_use_leaf_accumulates(self):
        x = leaf(np.asarray(3.0).reshape(()))
        with Tape():
            loss = T.add(T.mul(x, x), x)  # x^2 + x -> grad 2x + 1
        assert backward(loss)[x].item() == pytest.approx(7.0)

    def test_second_backward_raises(self):
        x = leaf(np.ones(3))
        with Tape():
            loss = T.sum_(x)
        backward(loss)
        with pytest.raises(TapeError, match="twice"):
            backward(loss)

    def test_recording_onto_a_consumed_tape_raises(self):
        x = leaf(np.ones(3))
        with Tape():
            loss = T.sum_(x)
            backward(loss)
            with pytest.raises(TapeError, match="consumed"):
                T.mul(x, x)

    @pytest.mark.parametrize("consumed", [True, False])
    def test_input_from_another_tape_raises_naming_the_op(self, consumed):
        """A taped result belongs to its tape: read under another tape it is
        neither a leaf nor a constant, whether its own tape has run backward
        or is still open."""
        x = leaf(np.ones(3))
        with Tape():
            y = T.mul(x, x)
            loss = T.sum_(y)
        if consumed:
            backward(loss)
        with Tape():
            with pytest.raises(TapeError, match="op 'add': .*another tape"):
                T.add(y, x)

    def test_taped_pre_activation_is_freed_before_backward(self):
        """The tape holds no op output: once the program drops a conv's
        output, only relu's mask of it is left for backward."""
        rng = Rng(27)
        x = leaf(rng.uniform((2, 6, 6, 2), -1, 1))
        w1 = leaf(rng.uniform((3, 2, 3, 3), -1, 1))
        w2 = leaf(rng.uniform((2, 3, 3, 3), -1, 1))
        with Tape():
            pre = T.conv2d(x, w1, padding=1)
            freed = weakref.ref(pre.data)  # Tensor's __slots__ take no weakref
            h = T.relu(pre, 2.0)
            del pre
            loss = T.sum_(T.conv2d(h, w2, padding=1))
        assert freed() is None
        assert set(backward(loss)) == {x, w1, w2}

    def test_non_scalar_loss_raises(self):
        x = leaf(np.ones(3))
        with Tape():
            y = T.mul(x, x)
        with pytest.raises(ShapeError):
            backward(y)

    def test_untaped_result_raises(self):
        x = leaf(np.ones(3))
        loss = T.sum_(x)  # no tape active
        with pytest.raises(TapeError):
            backward(loss)

    def test_no_tape_means_no_graph(self):
        x = leaf(np.ones(3))
        out = T.sum_(x)
        assert out.node is None and out.requires_grad is False

    def test_nested_tapes_rejected(self):
        with Tape():
            with pytest.raises(TapeError):
                with Tape():
                    pass

    def test_constant_branch_gets_no_grad(self):
        x = leaf(np.ones(3))
        c = Tensor(np.ones(3))
        with Tape():
            loss = T.sum_(T.mul(x, c))
        grads = backward(loss)
        assert x in grads and c not in grads

    def test_composite_three_op_grad_vs_fd(self):
        rng = Rng(29)
        x = leaf(rng.uniform((3, 3), -1, 1))
        w = rng.uniform((3, 3), -1, 1)
        with Tape():
            loss = T.mean_(T.relu(T.matmul(x, Tensor(w))))
        g = backward(loss)[x].data
        num = fd_grad(lambda: float(np.maximum(x.data @ w, 0).mean()), [x.data])
        assert np.max(np.abs(g - num[0])) < 1e-4


class TestGradCheck:
    @pytest.mark.parametrize("kwargs", [dict(h=0.0), dict(h=-1e-6), dict(h=float("nan")),
                                        dict(tol=0.0), dict(tol=float("inf"))])
    def test_bad_step_or_tolerance_is_config_error(self, kwargs):
        x = leaf(np.arange(3.0))
        with pytest.raises(ConfigError):
            grad_check(lambda: T.sum_(x), [x], **kwargs)

    def test_linear_function_near_zero_error(self):
        x = leaf(np.arange(3.0))
        report = grad_check(lambda: T.sum_(x), [x])
        assert set(report) == {"max_rel_err", "tol", "coords", "passed"}
        assert report["passed"]
        assert report["max_rel_err"] < 1e-7
        assert report["coords"] == 3

    def test_relu_away_from_kink(self):
        x = leaf(np.array([0.5, -0.5, 2.0]))
        report = grad_check(lambda: T.sum_(T.relu(x)), [x])
        assert report["passed"]

    def test_two_layer_composite(self):
        rng = Rng(30)
        w1 = leaf(rng.uniform((4, 3), -0.5, 0.5))
        w2 = leaf(rng.uniform((3, 2), -0.5, 0.5))
        x = Tensor(rng.uniform((2, 4), -1, 1))

        def f():
            h = T.matmul(T.relu(T.matmul(x, w1)), w2)
            return T.mean_(T.mul(h, h))

        report = grad_check(f, [w1, w2])
        assert report["passed"], report

    def test_reports_failure_for_wrong_gradient(self):
        # Routing part of the function through a detached copy hides it from
        # the tape; finite differences still see it, so the check must fail.
        x = leaf(np.array([1.0, 2.0]))

        def f():
            detached = Tensor(x.data.copy())
            return T.add(T.sum_(x), T.sum_(T.mul(detached, detached)))

        report = grad_check(f, [x])
        assert not report["passed"]


class TestMacCounting:
    @pytest.mark.parametrize("lead", [(), (2,), (2, 3)])
    def test_matmul_count(self, lead):
        m0 = mac_count()
        T.matmul(Tensor(np.ones((*lead, 3, 4))), Tensor(np.ones((*lead, 4, 5))))
        assert mac_count() - m0 == int(np.prod(lead)) * 3 * 4 * 5

    def test_linear_count(self):
        m0 = mac_count()
        T.linear(Tensor(np.ones((3, 4))), Tensor(np.ones((5, 4))), Tensor(np.ones(5)))
        assert mac_count() - m0 == 3 * 4 * 5

    def test_conv_count(self):
        m0 = mac_count()
        T.conv2d(Tensor(nhwc(np.ones((2, 3, 8, 8)))), Tensor(np.ones((4, 3, 3, 3))), padding=1)
        assert mac_count() - m0 == 2 * 4 * 8 * 8 * 3 * 9

    def test_kron_count(self):
        m0 = mac_count()
        kron(Tensor(np.ones((2, 2))), Tensor(np.ones((8, 16))))
        assert mac_count() - m0 == 2 * 2 * 8 * 16


class TestNumericGuards:
    def test_overflow_to_inf_raises(self):
        big = Tensor(np.array([1e308]))
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError):
                T.mul(big, big)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_last_element_of_a_multi_piece_output_raises(self, bad):
        data = np.ones(3 * T._FINITE_PIECE + 5, dtype=np.float32)
        data[-1] = bad
        with pytest.raises(NumericError, match="op 'mul'"):
            T.mul(Tensor(data), 1.0)

    def test_finite_check_of_a_large_output_allocates_no_mask(self):
        """A bool mask of the output would be a quarter of a float32
        output's size; the check goes through one small piece instead."""
        rng = Rng(22)
        x = Tensor(rng.uniform((1, 256, 256, 32), -1, 1).astype(np.float32))
        w = Tensor(rng.uniform((32, 32, 3, 3), -1, 1).astype(np.float32))
        tracemalloc.start()
        try:
            out = T.conv2d(x, w, padding=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.data.nbytes + out.data.nbytes / 4


_HAS_MALLOPT = hasattr(ctypes.CDLL(None), "mallopt")


class TestHeapPolicy:
    @pytest.mark.skipif(not _HAS_MALLOPT, reason="the C library has no mallopt")
    def test_warm_training_steps_fault_in_no_fresh_pages(self):
        """Once warm, a taped attention + MLP step reuses the heap blocks
        the previous step freed instead of faulting in fresh pages: the
        phm-blocks workload's block at batch 8 x 64 tokens."""
        code = """if True:
            import resource
            import numpy as np
            from kronmri import tensor as T
            from kronmri.blocks import AttentionConfig, PhmMlp, WindowAttention
            from kronmri.rng import Rng
            from kronmri.tensor import Tape, Tensor, backward
            rng = Rng(5)
            attn = WindowAttention(AttentionConfig(embed_dim=128, heads=4, window=4, n=4),
                                   rng.fork(0))
            mlp = PhmMlp(128, 256, 4, rng.fork(1))
            x = Tensor(rng.fork(2).uniform((8, 64, 128), -1, 1, dtype=np.float32))

            def step():
                with Tape():
                    h = T.add(x, attn(x))
                    y = mlp(T.reshape(h, (512, 128)))
                    loss = T.mean_(T.mul(y, y))
                backward(loss)

            for _ in range(3):
                step()
            f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(10):
                step()
            print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0) / 10)
        """
        src = os.path.dirname(os.path.dirname(os.path.abspath(T.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert float(run.stdout) < 50
