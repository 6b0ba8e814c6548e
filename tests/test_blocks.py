"""U-Net, window attention, and MLP blocks: shapes, oracles, gradients."""

import tracemalloc

import numpy as np
import pytest

from kronmri import tensor as T
from kronmri.blocks import (ACT_GAIN, AttentionConfig, PhmMlp, UNet, UNetConfig,
                            WindowAttention, build_unet)
from kronmri.errors import ConfigError, ShapeError
from kronmri.layers import KroneckerConv2d
from kronmri.losses import loss_total
from kronmri.rng import Rng
from kronmri.tensor import Tape, Tensor, grad_check
from kronmri.training import ConsistentModel, DatasetSpec, make_dataset


def small_cfg(kind="dense", n=1):
    return UNetConfig(channel_multiples=[1, 2], base_channels=8,
                      layer_kind=kind, n=n)


def randomize_head(model: UNet, seed: int = 99, scale: float = 0.3):
    """Give the zero-initialized output head nonzero weights so gradients
    reach every layer."""
    rng = Rng(seed)
    for name, p in model.named_parameters():
        if name == "head.blocks":
            p.data[...] = rng.uniform(p.shape, -scale, scale, dtype=p.data.dtype)


class TestUNetConfig:
    def test_defaults_round_trip(self):
        cfg = small_cfg("kronecker", 2)
        assert UNetConfig(**cfg.to_dict()) == cfg

    def test_depth(self):
        assert UNetConfig(channel_multiples=[1, 2, 4, 8], base_channels=64).depth == 4

    def test_n_defaults_per_kind(self):
        """No n, or n=None, is the kind's own n: 1 dense, 2 kronecker."""
        assert UNetConfig(layer_kind="dense").n == 1
        assert UNetConfig().n == 2
        assert UNetConfig(layer_kind="dense", n=None) == UNetConfig(layer_kind="dense", n=1)
        assert UNetConfig(n=None).to_dict() == UNetConfig(n=2).to_dict()

    @pytest.mark.parametrize("bad", [
        dict(channel_multiples=[]),
        dict(channel_multiples=[1, 0]),
        dict(base_channels=0),
        dict(layer_kind="sparse"),
        dict(layer_kind="dense", n=2),
        dict(n=0),
        dict(in_channels=0),
        dict(channel_multiples=[True, 2]),
        dict(channel_multiples=[1.0, 2]),
        dict(base_channels=8.0),
        dict(base_channels=float("inf")),
        dict(n=True),
        dict(layer_kind="dense", n=True),
        dict(out_channels=float("nan")),
        dict(layer_kind=["dense"]),
    ])
    def test_invalid_rejected(self, bad):
        kwargs = dict(channel_multiples=[1, 2], base_channels=8,
                      layer_kind="kronecker", n=2)
        kwargs.update(bad)
        with pytest.raises(ConfigError):
            UNetConfig(**kwargs)


class TestAttentionConfig:
    def test_accepts_divisible(self):
        AttentionConfig(embed_dim=8, heads=2, window=2, n=2)

    @pytest.mark.parametrize("bad", [
        dict(embed_dim=9, heads=2),
        dict(embed_dim=10, heads=2, n=4),
        dict(heads=0),
        dict(window=0),
        dict(embed_dim=8.0),
        dict(heads=True),
        dict(window=float("inf")),
        dict(n=2.0),
    ])
    def test_invalid_rejected(self, bad):
        kwargs = dict(embed_dim=8, heads=2, window=2, n=1)
        kwargs.update(bad)
        with pytest.raises(ConfigError):
            AttentionConfig(**kwargs)


class TestUNetForward:
    def test_dense_preserves_shape(self):
        model = build_unet(small_cfg(), Rng(0))
        x = Tensor(Rng(1).uniform((1, 2, 32, 32), -1, 1, dtype=np.float32))
        assert model(x).shape == (1, 2, 32, 32)

    def test_kronecker_preserves_shape(self):
        model = build_unet(small_cfg("kronecker", 2), Rng(0))
        x = Tensor(Rng(1).uniform((1, 2, 32, 32), -1, 1, dtype=np.float32))
        assert model(x).shape == (1, 2, 32, 32)

    def test_rectangular_input(self):
        model = build_unet(small_cfg(), Rng(0))
        x = Tensor(Rng(1).uniform((2, 2, 16, 32), -1, 1, dtype=np.float32))
        assert model(x).shape == (2, 2, 16, 32)

    def test_identity_at_init(self):
        # zeroed residual head: a fresh model maps x to exactly x
        for kind, n in (("dense", 1), ("kronecker", 2)):
            model = build_unet(small_cfg(kind, n), Rng(3))
            x = Tensor(Rng(4).uniform((1, 2, 16, 16), -1, 1, dtype=np.float32))
            assert np.array_equal(model(x).data, x.data)

    def test_deterministic_under_seed(self):
        x = Tensor(Rng(2).uniform((1, 2, 16, 16), -1, 1, dtype=np.float32))
        outs = []
        for _ in range(2):
            model = build_unet(small_cfg("kronecker", 2), Rng(7))
            randomize_head(model)
            outs.append(model(x).data)
        assert np.array_equal(outs[0], outs[1])

    def test_depth_three(self):
        cfg = UNetConfig(channel_multiples=[1, 2, 4], base_channels=4,
                         layer_kind="dense", n=1)
        model = build_unet(cfg, Rng(0))
        x = Tensor(Rng(1).uniform((1, 2, 16, 16), -1, 1, dtype=np.float32))
        assert model(x).shape == (1, 2, 16, 16)

    def test_untaped_forward_peak_is_a_few_activations(self):
        """The desk U-Net ([4,8,8]x8, n=2) at 128x128. Its largest activation
        A would be a 64-channel map at full size, 4 MiB in float32: up1's
        skip concat, or the upsampled input of up1.up's conv. Untaped,
        neither is built; the conv reads their sources, so at up1.conv1 the
        live set is the two A/2 halves, the A/2 output and the forward's
        block buffers. At 128x128 those buffers set the peak; 3A leaves room
        for the small tensors, but not for one more input-sized copy, nor
        for a 64x64 map (A/4) held past its last reader, such as up1's
        upsampling input or a spent skip."""
        model = build_unet(UNetConfig(channel_multiples=[4, 8, 8], base_channels=8,
                                      layer_kind="kronecker", n=2), Rng(0))
        x = Tensor(Rng(1).uniform((1, 2, 128, 128), -1, 1, dtype=np.float32))
        largest = 128 * 128 * 64 * 4
        tracemalloc.start()
        try:
            out = model(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == x.shape
        assert peak < 3 * largest

    def test_untaped_forward_builds_no_join_at_256(self):
        """The desk U-Net at 256x256, where activations, not the GEMM block
        buffers, set the peak. A = 16 MiB, the 64-channel full-size map.
        With the skip concat and the upsampled map built, and relu writing
        a fresh buffer, the forward peaked at 2.18A; it now peaks at 1.68A,
        the two halves of up1's concat, up1.conv1's output and its
        buffers."""
        model = build_unet(UNetConfig(channel_multiples=[4, 8, 8], base_channels=8,
                                      layer_kind="kronecker", n=2), Rng(0))
        x = Tensor(Rng(1).uniform((1, 2, 256, 256), -1, 1, dtype=np.float32))
        largest = 256 * 256 * 64 * 4
        tracemalloc.start()
        try:
            out = model(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == x.shape
        assert peak < 1.9 * largest

    @pytest.mark.parametrize("cfg", [
        UNetConfig(channel_multiples=[4, 8, 8], base_channels=8, layer_kind="kronecker", n=2),
        UNetConfig(channel_multiples=[1, 2, 2, 4], base_channels=3, layer_kind="dense", n=1)])
    def test_untaped_forward_is_bitwise_the_built_joins(self, cfg):
        """With a nonzero head, the untaped forward, whose convs read the
        skip concats and 2x upsamples from their sources, equals a forward
        that builds each join with `np.concatenate` and `np.repeat`, and
        rectifies into fresh arrays, byte for byte."""
        model = build_unet(cfg, Rng(0))
        randomize_head(model)
        x = Tensor(Rng(1).uniform((2, 2, 40, 24), -1, 1, dtype=np.float32))

        def conv(layer, a):
            return T.conv2d(Tensor(a), layer.materialize_weight(), layer.bias,
                            stride=layer.stride, padding=layer.padding).data

        def relu(a):
            out = np.maximum(a, 0)
            out *= np.float32(ACT_GAIN)
            return out

        h = np.ascontiguousarray(x.data.transpose(0, 2, 3, 1))
        for layer in model._stem:
            h = relu(conv(layer, h))
        skips = []
        for convs in model._downs:
            skips.append(h)
            for layer in convs:
                h = relu(conv(layer, h))
        for up, *convs in model._ups:
            h = relu(conv(up, np.repeat(np.repeat(h, 2, axis=1), 2, axis=2)))
            h = np.concatenate([skips.pop(), h], axis=-1)
            for layer in convs:
                h = relu(conv(layer, h))
        want = conv(model._head, h).transpose(0, 3, 1, 2) + x.data
        got = model(x).data
        assert np.abs(got - x.data).max() > 0.01  # the head is live
        assert got.tobytes() == want.tobytes()

    @staticmethod
    def desk_step(kind, n):
        """A desk model (B=4, 64x64, [4,8,8]x8) and its taped step: the
        forward and loss under a tape, then `backward` in `after_forward`'s
        place if it is given, the tape then handed to it."""
        model = ConsistentModel(build_unet(UNetConfig(
            channel_multiples=[4, 8, 8], base_channels=8, layer_kind=kind, n=n), Rng(0)))
        samples = make_dataset(DatasetSpec(height=64, width=64, n_ellipses=6), 8, 5, 4)
        x = Tensor(np.stack([s.zf for s in samples]))
        y = Tensor(np.stack([s.truth for s in samples]))

        def step(after_forward=None):
            with Tape() as tape:
                loss = loss_total(model(x), y)
            if after_forward is not None:
                after_forward(tape)
            return T.backward(loss)
        return model, step

    @pytest.mark.parametrize("kind,n", [("kronecker", 2), ("dense", 1)])
    def test_taped_desk_step_peak(self, kind, n):
        """A taped desk step, forward and backward, peaks below 19.0 MiB
        for either layer kind (measured on a 2-core Xeon: 18.30 MiB
        Kronecker n=2, 18.23 MiB dense): the stem's first conv output, the
        one cheap activation (C*k*k < O), is rebuilt by the VJP that reads
        it instead of kept, each conv VJP rebuilds a Kronecker kernel from
        its factors instead of keeping it, relu keeps its mask as bits, the
        conv VJP lays the output gradient and copies its shifted gradient
        in 0.5 MiB blocks, and no skip concat or 2x upsample is built. With
        that activation kept by the tape it peaked at 20.23 and 20.16 MiB;
        with the Kronecker kernels kept as well at 21.68 MiB (n=2); with a
        zero-padded grid of the whole output gradient in each conv VJP as
        well at 23.75 and 22.23 MiB; with the joins built and kept by the
        tape as well at 30.5 and 29.0 MiB, and with a byte per mask element
        and 2 MiB blocks as well at 35.2 MiB (Kronecker)."""
        model, step = self.desk_step(kind, n)
        tracemalloc.start()
        try:
            grads = step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(grads) == len(model.parameters())
        assert peak < 19.0 * 2**20

    def test_taped_desk_step_builds_no_join(self):
        """In a taped desk step every conv reads its skip concat or 2x
        upsample from the sources: the tape records no concat or upsample
        node, only the convs that read them."""
        names = []
        model, step = self.desk_step("kronecker", 2)
        grads = step(lambda tape: names.extend(node.name for node in tape.nodes))
        assert len(grads) == len(model.parameters())
        assert names.count("conv2d") == 15
        assert not {"concat", "upsample2x"} & set(names)

    def test_indivisible_spatial_rejected(self):
        model = build_unet(small_cfg(), Rng(0))
        with pytest.raises(ShapeError):
            model(Tensor(np.zeros((1, 2, 15, 16), dtype=np.float32)))

    def test_wrong_channels_rejected(self):
        model = build_unet(small_cfg(), Rng(0))
        with pytest.raises(ShapeError):
            model(Tensor(np.zeros((1, 3, 16, 16), dtype=np.float32)))

    def test_wrong_rank_rejected(self):
        model = build_unet(small_cfg(), Rng(0))
        with pytest.raises(ShapeError):
            model(Tensor(np.zeros((2, 16, 16), dtype=np.float32)))

    def test_kronecker_divisibility_enforced(self):
        cfg = UNetConfig(channel_multiples=[1, 2], base_channels=3,
                         layer_kind="kronecker", n=2)
        with pytest.raises(ConfigError):
            build_unet(cfg, Rng(0))

    def test_input_channels_divisibility_enforced(self):
        cfg = UNetConfig(channel_multiples=[1, 2], base_channels=8,
                         layer_kind="kronecker", n=4)
        with pytest.raises(ConfigError):
            build_unet(cfg, Rng(0))


class TestUNetParamCounts:
    def test_small_ratio_band(self):
        dense = build_unet(small_cfg("dense", 1), Rng(0))
        kron = build_unet(small_cfg("kronecker", 2), Rng(0))
        ratio = kron.param_count() / dense.param_count()
        assert 0.50 < ratio < 0.56

    def test_count_matches_parameter_list(self):
        model = build_unet(small_cfg("kronecker", 2), Rng(0))
        assert model.param_count() == sum(p.size for p in model.parameters())
        assert len(model.parameters()) == len(model.named_parameters())

    def test_swap_keeps_shape_changes_count(self):
        x = Tensor(Rng(1).uniform((1, 2, 16, 16), -1, 1, dtype=np.float32))
        dense = build_unet(small_cfg("dense", 1), Rng(0))
        kron = build_unet(small_cfg("kronecker", 2), Rng(0))
        assert dense(x).shape == kron(x).shape
        assert kron.param_count() < dense.param_count()

    @pytest.mark.xfail(strict=True, reason=(
        "at n=2 each layer keeps its bias plus n^3 mixing entries on top of "
        "half the dense weight count, so the model-total ratio sits strictly "
        "above 0.5 and cannot reach the 0.465 +/- 0.03 band"))
    def test_reference_shape_ratio_band(self):
        cfg_d = UNetConfig(channel_multiples=[1, 2, 4, 8], base_channels=64,
                           layer_kind="dense", n=1)
        cfg_k = UNetConfig(channel_multiples=[1, 2, 4, 8], base_channels=64,
                           layer_kind="kronecker", n=2)
        dense = build_unet(cfg_d, Rng(0))
        kron = build_unet(cfg_k, Rng(0))
        ratio = kron.param_count() / dense.param_count()
        assert abs(ratio - 0.465) <= 0.03

    def test_reference_shape_ratio_floor(self):
        # the attainable side of the previous test: just above 1/2
        cfg_d = UNetConfig(channel_multiples=[1, 2, 4, 8], base_channels=64,
                           layer_kind="dense", n=1)
        cfg_k = UNetConfig(channel_multiples=[1, 2, 4, 8], base_channels=64,
                           layer_kind="kronecker", n=2)
        dense = build_unet(cfg_d, Rng(0))
        kron = build_unet(cfg_k, Rng(0))
        ratio = kron.param_count() / dense.param_count()
        assert 0.5 < ratio < 0.56


class TestUNetCheckpoint:
    def test_save_load_round_trip(self, tmp_path):
        model = build_unet(small_cfg("kronecker", 2), Rng(11))
        randomize_head(model)
        path = str(tmp_path / "ckpt")
        model.save(path)
        loaded = UNet.load(path)
        assert loaded.cfg == model.cfg
        x = Tensor(Rng(12).uniform((1, 2, 16, 16), -1, 1, dtype=np.float32))
        assert np.array_equal(model(x).data, loaded(x).data)

    def test_loaded_arrays_bit_exact(self, tmp_path):
        model = build_unet(small_cfg("dense", 1), Rng(13))
        path = str(tmp_path / "ckpt")
        model.save(path)
        loaded = UNet.load(path)
        for (na, pa), (nb, pb) in zip(model.named_parameters(),
                                      loaded.named_parameters()):
            assert na == nb
            assert pa.data.tobytes() == pb.data.tobytes()

    def test_rejects_foreign_manifest(self, tmp_path):
        path = tmp_path / "ckpt"
        path.mkdir()
        (path / "manifest.json").write_text('{"format": 99}')
        with pytest.raises(ConfigError):
            UNet.load(str(path))


class TestUNetGradients:
    def test_tiny_unet_grad_check(self):
        cfg = UNetConfig(channel_multiples=[1, 2], base_channels=4,
                         layer_kind="kronecker", n=2)
        model = build_unet(cfg, Rng(21), dtype=np.float64)
        randomize_head(model)
        # zero biases leave dead conv regions sitting exactly on the ReLU
        # kink, where central differences are meaningless; perturb them so
        # the check runs at a generic point
        rng = Rng(55)
        for name, p in model.named_parameters():
            if name.endswith("bias"):
                p.data[...] = rng.uniform(p.shape, -0.2, 0.2)
        x = Tensor(Rng(22).uniform((1, 2, 8, 8), -1, 1))

        # keep the scalar small: finite-difference noise scales with the
        # loss magnitude, and stray coordinates with near-zero gradients
        # must land under the checker's absolute floor
        def f():
            y = model(x)
            return T.mul(T.mean_(T.mul(y, y)), 0.03125)

        report = grad_check(f, model.parameters(), tol=1e-3)
        assert report["passed"], report

    def test_taped_step_holds_no_tensor_in_a_vjp(self):
        """The tape records ops, not tensors: no VJP of a taped U-Net step
        with its loss, or of an attention and MLP step, holds a Tensor, so
        an op output lives only while the program holds it."""
        unet = ConsistentModel(build_unet(small_cfg("kronecker", 2), Rng(3)))
        attn = WindowAttention(AttentionConfig(embed_dim=8, heads=2, window=2, n=2), Rng(4))
        mlp = PhmMlp(8, 16, 2, Rng(5))
        x = Tensor(Rng(6).uniform((2, 2, 8, 8), -1, 1, dtype=np.float32))
        tokens = Tensor(Rng(7).uniform((2, 4, 8), -1, 1, dtype=np.float32))
        with Tape() as tape:
            loss = loss_total(unet(x), x)
            loss = T.add(loss, T.mean_(mlp(T.reshape(attn(tokens), (8, 8)))))
        names = {node.name for node in tape.nodes}
        assert {"conv2d", "kron_sum", "relu", "fft2c", "softmax", "matmul"} <= names
        held = [(node.name, cell.cell_contents) for node in tape.nodes
                for cell in node.vjp.__closure__ or ()
                if isinstance(cell.cell_contents, Tensor)]
        assert held == []


def attention_oracle(block: WindowAttention, x: np.ndarray) -> np.ndarray:
    """Numpy attention from materialized projection matrices."""
    cfg = block.cfg
    mats = {}
    for label, proj in (("q", block.wq), ("k", block.wk),
                        ("v", block.wv), ("o", block.wo)):
        mats[label] = (proj.materialize_weight().data, proj.bias.data)
    b, t, e = x.shape
    w2 = cfg.window * cfg.window
    dh = e // cfg.heads
    xw = x.reshape(b * (t // w2), w2, e)
    q = xw @ mats["q"][0].T + mats["q"][1]
    k = xw @ mats["k"][0].T + mats["k"][1]
    v = xw @ mats["v"][0].T + mats["v"][1]
    ctx = np.zeros_like(xw)
    for g in range(xw.shape[0]):
        for h in range(cfg.heads):
            sl = slice(h * dh, (h + 1) * dh)
            s = q[g][:, sl] @ k[g][:, sl].T / np.sqrt(dh)
            ex = np.exp(s - s.max(axis=-1, keepdims=True))
            a = ex / ex.sum(axis=-1, keepdims=True)
            assert np.all(np.abs(a.sum(axis=-1) - 1.0) < 1e-6)
            ctx[g][:, sl] = a @ v[g][:, sl]
    out = ctx @ mats["o"][0].T + mats["o"][1]
    return out.reshape(b, t, e)


class TestWindowAttention:
    def test_single_token_is_projected_value(self):
        cfg = AttentionConfig(embed_dim=6, heads=2, window=1, n=1)
        block = WindowAttention(cfg, Rng(0), dtype=np.float64)
        x = Tensor(Rng(1).uniform((2, 1, 6), -1, 1))
        got = block(x)
        v = block.wv(T.reshape(x, (2, 6)))
        want = T.reshape(block.wo(v), (2, 1, 6))
        assert np.array_equal(got.data, want.data)

    def test_identical_tokens_identical_outputs(self):
        cfg = AttentionConfig(embed_dim=8, heads=2, window=2, n=2)
        block = WindowAttention(cfg, Rng(2), dtype=np.float64)
        row = Rng(3).uniform((1, 1, 8), -1, 1)
        x = Tensor(np.repeat(row, 4, axis=1))
        out = block(x).data
        assert np.allclose(out, out[:, :1, :], atol=1e-12)

    @pytest.mark.parametrize("n,heads", [(1, 2), (2, 2), (4, 4)])
    def test_matches_materialized_oracle(self, n, heads):
        cfg = AttentionConfig(embed_dim=8, heads=heads, window=2, n=n)
        block = WindowAttention(cfg, Rng(4), dtype=np.float64)
        x = Tensor(Rng(5).uniform((2, 4, 8), -1, 1))
        got = block(x).data
        want = attention_oracle(block, x.data)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_multiple_windows_are_independent(self):
        cfg = AttentionConfig(embed_dim=4, heads=1, window=2, n=1)
        block = WindowAttention(cfg, Rng(6), dtype=np.float64)
        a = Rng(7).uniform((1, 4, 4), -1, 1)
        b = Rng(8).uniform((1, 4, 4), -1, 1)
        joint = block(Tensor(np.concatenate([a, b], axis=1))).data
        assert np.allclose(joint[:, :4], block(Tensor(a)).data, atol=1e-12)
        assert np.allclose(joint[:, 4:], block(Tensor(b)).data, atol=1e-12)

    def test_bad_token_count_rejected(self):
        cfg = AttentionConfig(embed_dim=4, heads=1, window=2, n=1)
        block = WindowAttention(cfg, Rng(0))
        with pytest.raises(ShapeError):
            block(Tensor(np.zeros((1, 5, 4), dtype=np.float32)))

    def test_bad_embed_rejected(self):
        cfg = AttentionConfig(embed_dim=4, heads=1, window=1, n=1)
        block = WindowAttention(cfg, Rng(0))
        with pytest.raises(ShapeError):
            block(Tensor(np.zeros((1, 4, 6), dtype=np.float32)))

    def test_param_count(self):
        cfg = AttentionConfig(embed_dim=8, heads=2, window=2, n=2)
        block = WindowAttention(cfg, Rng(0))
        per_proj = 2 * 2 * 2 + 8 * 8 // 2 + 8
        assert block.param_count() == 4 * per_proj
        assert block.param_count() == sum(p.size for p in block.parameters())

    def test_grad_check(self):
        cfg = AttentionConfig(embed_dim=4, heads=2, window=2, n=2)
        block = WindowAttention(cfg, Rng(9), dtype=np.float64)
        x = Tensor(Rng(10).uniform((1, 4, 4), -1, 1))

        def f():
            y = block(x)
            return T.mean_(T.mul(y, y))

        report = grad_check(f, block.parameters())
        assert report["passed"], report


class TestPhmMlp:
    def test_zero_input_zero_output(self):
        mlp = PhmMlp(8, 16, 2, Rng(0), dtype=np.float64)
        out = mlp(Tensor(np.zeros((3, 8))))
        assert np.array_equal(out.data, np.zeros((3, 8)))

    def test_matches_materialized_oracle(self):
        mlp = PhmMlp(8, 16, 2, Rng(1), dtype=np.float64)
        x = Rng(2).uniform((5, 8), -1, 1)
        w1 = mlp.fc1.materialize_weight().data
        w2 = mlp.fc2.materialize_weight().data
        want = np.maximum(x @ w1.T + mlp.fc1.bias.data, 0.0) @ w2.T + mlp.fc2.bias.data
        got = mlp(Tensor(x)).data
        assert np.max(np.abs(got - want)) < 1e-10

    def test_n1_equals_dense_mlp(self):
        mlp = PhmMlp(6, 10, 1, Rng(3), dtype=np.float64)
        x = Rng(4).uniform((4, 6), -1, 1)
        w1 = mlp.fc1.materialize_weight().data
        w2 = mlp.fc2.materialize_weight().data
        want = np.maximum(x @ w1.T, 0.0) @ w2.T
        assert np.max(np.abs(mlp(Tensor(x)).data - want)) < 1e-10

    def test_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            PhmMlp(6, 7, 2, Rng(0))

    def test_param_count(self):
        mlp = PhmMlp(8, 16, 2, Rng(0))
        fc1 = 8 + 16 * 8 // 2 + 16
        fc2 = 8 + 8 * 16 // 2 + 8
        assert mlp.param_count() == fc1 + fc2

    def test_grad_check(self):
        mlp = PhmMlp(4, 8, 2, Rng(5), dtype=np.float64)
        x = Tensor(Rng(6).uniform((3, 4), -1, 1))

        def f():
            y = mlp(x)
            return T.mean_(T.mul(y, y))

        report = grad_check(f, mlp.parameters())
        assert report["passed"], report
