"""Adam oracle, dataset determinism, evaluation, and the train loop."""

import ctypes
import json
import math
import os
import warnings

import numpy as np
import pytest

from kronmri import training
from kronmri.blocks import UNetConfig, build_unet
from kronmri.errors import ConfigError, NumericError
from kronmri import tensor as T
from kronmri.kspace import fft2c, ifft2c
from kronmri.layers import MAX_SIZE
from kronmri.losses import loss_total
from kronmri.rng import Rng
from kronmri.tensor import Tape, Tensor, backward
from kronmri.training import (Adam, ConsistentModel, DatasetSpec, Sample,
                              TrainConfig, evaluate, held_out_seed,
                              make_dataset, make_sample, numeric_environment, run,
                              step, train, write_history)


def tiny_model(seed=0, dtype=np.float32):
    cfg = UNetConfig(channel_multiples=[1, 2], base_channels=4,
                     layer_kind="kronecker", n=2)
    return build_unet(cfg, Rng(seed), dtype=dtype)


def tiny_spec():
    return DatasetSpec(height=16, width=16, n_ellipses=3)


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        p = Tensor(Rng(0).uniform((4,), -1, 1), requires_grad=True)
        before = p.data.copy()
        opt = Adam([("p", p)], lr=0.1)
        opt.step({p: Tensor(np.zeros(4))})
        assert opt.t == 1
        assert np.array_equal(p.data, before)

    @pytest.mark.parametrize("start,lr,grad", [(1.0, 1e300, 1.0),  # the update overflows
                                               (3e38, 1e38, -1.0),  # the new value does
                                               (1.0, 1e-3, 1e25)])  # the second moment does
    def test_overflowing_update_is_refused_before_it_is_written(self, start, lr, grad):
        """A step whose new parameter value or second moment is not finite in
        the dtype raises a NumericError naming the parameter and the step,
        with no numpy warning first, and writes nothing into the parameter.
        A second moment of inf would make every later update zero."""
        p = Tensor(np.full(3, start, dtype=np.float32), requires_grad=True)
        before = p.data.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=r"parameter 'w' at step 1"):
                Adam([("w", p)], lr=lr).step({p: Tensor(np.full(3, grad, dtype=np.float32))})
        assert p.data.tobytes() == before.tobytes()

    def test_missing_gradient_keeps_parameters(self):
        """A parameter without a gradient keeps its moments and value as they
        were, where a zero gradient would decay the moments; the shared step
        count still advances."""
        rng = Rng(2)
        p = Tensor(rng.uniform((4,), -1, 1), requires_grad=True)
        q = Tensor(rng.uniform((4,), -1, 1), requires_grad=True)
        opt = Adam([("p", p), ("q", q)], lr=0.1)
        opt.step({p: Tensor(rng.uniform((4,), -1, 1)), q: Tensor(rng.uniform((4,), -1, 1))})
        m, v, before = opt.m[1].copy(), opt.v[1].copy(), q.data.copy()
        opt.step({p: Tensor(rng.uniform((4,), -1, 1))})
        assert opt.t == 2
        assert opt.m[1].tobytes() == m.tobytes() and opt.v[1].tobytes() == v.tobytes()
        assert q.data.tobytes() == before.tobytes()
        opt.step({q: Tensor(np.zeros(4))})
        assert not np.array_equal(opt.m[1], m) and not np.array_equal(opt.v[1], v)

    def test_first_step_is_bias_corrected_sign_step(self):
        g = np.array([0.5, -2.0, 1e-3])
        p = Tensor(np.zeros(3), requires_grad=True)
        lr, eps = 0.01, 1e-8
        opt = Adam([("p", p)], lr=lr)
        opt.step({p: Tensor(g.copy())})
        want = -lr * g / (np.abs(g) + eps)
        assert np.allclose(p.data, want, atol=1e-12)

    def test_matches_scalar_reference_over_ten_steps(self):
        rng = Rng(7)
        p = Tensor(rng.uniform((3,), -1, 1), requires_grad=True)
        scalar = [float(x) for x in p.data]
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        opt = Adam([("p", p)], lr=lr)
        m = [0.0] * 3
        v = [0.0] * 3
        for t in range(1, 11):
            g = rng.uniform((3,), -1, 1)
            opt.step({p: Tensor(g.copy())})
            for i in range(3):
                m[i] = b1 * m[i] + (1 - b1) * g[i]
                v[i] = b2 * v[i] + (1 - b2) * g[i] * g[i]
                mh = m[i] / (1 - b1 ** t)
                vh = v[i] / (1 - b2 ** t)
                scalar[i] -= lr * mh / (math.sqrt(vh) + eps)
        assert np.max(np.abs(p.data - np.array(scalar))) < 1e-12

    def test_deterministic_across_runs(self):
        results = []
        for _ in range(2):
            rng = Rng(9)
            p = Tensor(rng.uniform((8,), -1, 1), requires_grad=True)
            opt = Adam([("p", p)], lr=0.02)
            for _ in range(10):
                opt.step({p: Tensor(rng.uniform((8,), -1, 1))})
            results.append(p.data.tobytes())
        assert results[0] == results[1]

    def test_nan_gradient_names_parameter(self):
        p = Tensor(np.ones(2), requires_grad=True)
        opt = Adam([("stem.conv1.bias", p)], lr=0.1)
        bad = Tensor(np.ones(2))
        bad.data[0] = np.nan
        with pytest.raises(NumericError, match="stem.conv1.bias"):
            opt.step({p: bad})

    def test_moment_shapes_match(self):
        p = Tensor(np.zeros((3, 4)), requires_grad=True)
        opt = Adam([("p", p)], lr=0.1)
        assert opt.m[0].shape == (3, 4) and opt.v[0].shape == (3, 4)

    @pytest.mark.parametrize("lr", [-1.0, float("nan"), float("inf")])
    def test_bad_settings_rejected(self, lr):
        p = Tensor(np.zeros(2), requires_grad=True)
        with pytest.raises(ConfigError):
            Adam([("p", p)], lr=lr)


class TestConfigs:
    def test_train_defaults(self):
        cfg = TrainConfig()
        assert (cfg.steps, cfg.batch, cfg.af, cfg.lr) == (200, 4, 8, 2e-5)

    @pytest.mark.parametrize("bad", [
        dict(steps=0), dict(batch=0), dict(dataset_size=0),
        dict(af=7), dict(eval_every=-1), dict(eval_size=0),
        *({field: value} for field in ("steps", "batch", "dataset_size", "eval_every",
                                       "eval_size")
          for value in (True, 16.0, MAX_SIZE + 1)),
        dict(lr=float("nan")), dict(lr=float("inf")), dict(lr=-1.0)])
    def test_train_config_rejects(self, bad):
        with pytest.raises(ConfigError):
            TrainConfig(**bad)

    @pytest.mark.parametrize("bad", [
        dict(height=8), dict(width=8), dict(n_ellipses=0),
        *({field: value} for field in ("height", "width", "n_ellipses")
          for value in (True, 16.0, MAX_SIZE + 1))])
    def test_dataset_spec_rejects(self, bad):
        with pytest.raises(ConfigError):
            DatasetSpec(**bad)


class TestDataset:
    def test_sample_is_pure_function_of_inputs(self):
        a = make_sample(tiny_spec(), 8, 42, 3)
        b = make_sample(tiny_spec(), 8, 42, 3)
        assert a.truth.tobytes() == b.truth.tobytes()
        assert a.zf.tobytes() == b.zf.tobytes()
        assert a.mask_columns.tobytes() == b.mask_columns.tobytes()

    def test_indices_differ(self):
        a = make_sample(tiny_spec(), 8, 42, 0)
        b = make_sample(tiny_spec(), 8, 42, 1)
        assert not np.array_equal(a.truth, b.truth)
        # narrow masks can collide; at width 320 the column draw cannot
        wide = DatasetSpec(height=16, width=320, n_ellipses=3)
        wa = make_sample(wide, 8, 42, 0)
        wb = make_sample(wide, 8, 42, 1)
        assert not np.array_equal(wa.mask_columns, wb.mask_columns)

    def test_zero_filled_is_data_consistent(self):
        # k-space of the zero-filled image equals the measured k-space on
        # sampled columns and vanishes elsewhere
        s = make_sample(tiny_spec(), 8, 5, 0)
        k_truth = fft2c(Tensor(s.truth)).data
        k_zf = fft2c(Tensor(s.zf)).data
        on = s.mask_columns.astype(bool)
        assert np.allclose(k_zf[..., on], k_truth[..., on], atol=1e-5)
        assert np.allclose(k_zf[..., ~on], 0.0, atol=1e-5)

    def test_dtype_and_shapes(self):
        s = make_sample(tiny_spec(), 8, 5, 0)
        assert s.truth.dtype == np.float32 and s.zf.dtype == np.float32
        assert s.truth.shape == (2, 16, 16) and s.zf.shape == (2, 16, 16)
        assert s.mask_columns.shape == (16,)

    def test_make_dataset_counts(self):
        data = make_dataset(tiny_spec(), 8, 5, 3)
        assert len(data) == 3

    def test_held_out_seed_is_disjoint_and_stable(self):
        assert held_out_seed(0) == held_out_seed(0)
        assert held_out_seed(0) != 0
        assert held_out_seed(0) != held_out_seed(1)


class TestEvaluate:
    def test_perfect_model_hits_sentinels(self):
        spec = tiny_spec()
        s = make_sample(spec, 8, 11, 0)
        perfect = lambda x: Tensor(s.truth[None])
        scores = evaluate(perfect, spec, 8, 11, 1)
        assert scores["psnr_mean"] == float("inf")
        assert scores["ssim_mean"] == 1.0
        assert scores["psnr_std"] == 0.0 or math.isnan(scores["psnr_std"])

    def test_single_sample_std_zero(self):
        scores = evaluate(None, tiny_spec(), 8, 11, 1)
        assert scores["psnr_std"] == 0.0
        assert scores["ssim_std"] == 0.0

    def test_record_structure(self):
        """The four scores `run` writes as they are, and nothing else."""
        scores = evaluate(None, tiny_spec(), 8, 13, 3)
        assert set(scores) == {"psnr_mean", "psnr_std", "ssim_mean", "ssim_std"}
        assert all(type(v) is float for v in scores.values())

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            evaluate(None, tiny_spec(), 8, 11, 0)

    def test_zero_filled_baseline_golden(self):
        # pinned from the first verified run of this suite; guards every
        # upstream piece (rng, phantom, mask, fft) at once
        scores = evaluate(None, DatasetSpec(height=64, width=64, n_ellipses=6),
                          8, 1234, 20)
        assert scores["psnr_mean"] == pytest.approx(GOLDEN_PSNR, abs=1e-9)
        assert scores["ssim_mean"] == pytest.approx(GOLDEN_SSIM, abs=1e-9)


class TestTrain:
    def test_zero_lr_keeps_parameters(self):
        model = tiny_model(seed=3)
        before = [p.data.copy() for p in model.parameters()]
        cfg = TrainConfig(steps=3, batch=2, seed=5, dataset_size=4, lr=0.0)
        history = train(model, tiny_spec(), cfg)
        assert len(history) == 3
        for p, b in zip(model.parameters(), before):
            assert np.array_equal(p.data, b)

    def test_history_structure_and_eval_cadence(self):
        model = tiny_model(seed=4)
        cfg = TrainConfig(steps=4, batch=2, seed=6, dataset_size=4,
                          eval_every=2, eval_size=2)
        history = train(model, tiny_spec(), cfg)
        assert [rec["step"] for rec in history] == [1, 2, 3, 4]
        for rec in history:
            assert np.isfinite(rec["loss"])
            assert ("psnr" in rec) == (rec["step"] % 2 == 0)

    def test_bitwise_deterministic(self):
        outs = []
        for _ in range(2):
            model = tiny_model(seed=7)
            cfg = TrainConfig(steps=4, batch=2, seed=8, dataset_size=4)
            history = train(model, tiny_spec(), cfg)
            blob = json.dumps(history, sort_keys=True).encode()
            params = b"".join(p.data.tobytes() for p in model.parameters())
            outs.append((blob, params))
        assert outs[0] == outs[1]

    def test_training_moves_parameters(self):
        model = tiny_model(seed=9)
        before = [p.data.copy() for p in model.parameters()]
        cfg = TrainConfig(steps=2, batch=2, seed=10, dataset_size=4)
        train(model, tiny_spec(), cfg)
        moved = any(not np.array_equal(p.data, b)
                    for p, b in zip(model.parameters(), before))
        assert moved

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_aborts_on_numeric_blowup(self):
        model = tiny_model(seed=11)
        cfg = TrainConfig(steps=6, batch=2, seed=12, dataset_size=4, lr=1e12)
        with pytest.raises(NumericError, match=r"step \d"):
            train(model, tiny_spec(), cfg)

    def test_history_file_round_trip(self, tmp_path):
        model = tiny_model(seed=13)
        cfg = TrainConfig(steps=2, batch=2, seed=14, dataset_size=4)
        path = str(tmp_path / "history.jsonl")
        history = train(model, tiny_spec(), cfg)
        write_history(path, history)
        with open(path) as fh:
            lines = fh.readlines()
        assert [json.loads(line) for line in lines] == history
        assert len(lines) == 2

    def test_failed_history_write_keeps_the_earlier_file(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        write_history(path, [{"step": 1, "loss": 0.5}])
        with open(path, "rb") as fh:
            before = fh.read()
        with pytest.raises(TypeError):
            write_history(path, [{"step": 1, "loss": 0.25}, {"step": 2, "loss": object()}])
        with open(path, "rb") as fh:
            assert fh.read() == before
        assert os.listdir(tmp_path) == ["history.jsonl"]


class TestStep:
    def test_two_steps_equal_the_hand_rolled_step(self):
        """`step` is the forward and `loss_total` under a Tape, `backward`
        and `Adam.step`, as the benchmark's train op writes them out."""
        samples = make_dataset(tiny_spec(), 8, 0, 2)
        x = Tensor(np.stack([s.zf for s in samples]))
        y = Tensor(np.stack([s.truth for s in samples]))

        def by_hand(model, opt, x, y):
            with Tape():
                out = model(x)
                loss = loss_total(out, y)
            opt.step(backward(loss))
            return loss.item(), out

        runs = []
        for one_step in (step, by_hand):
            model = ConsistentModel(tiny_model(seed=2))
            opt = Adam(model.named_parameters(), lr=1e-3)
            records = []
            for _ in range(2):
                loss, out = one_step(model, opt, x, y)
                records.append((loss, out.data.tobytes()))
            runs.append(records)
        assert runs[0] == runs[1]
        assert runs[0][0][0] != runs[0][1][0]  # the first step moved the model


class TestRun:
    UNET = UNetConfig(channel_multiples=[1, 2], base_channels=2)
    CFG = TrainConfig(steps=2, batch=2, seed=3, dataset_size=2, eval_size=2)

    def test_writes_only_with_out_and_returns_what_it_writes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        summary = run(self.UNET, tiny_spec(), self.CFG)
        assert os.listdir(tmp_path) == []
        out = tmp_path / "run"
        assert run(self.UNET, tiny_spec(), self.CFG, out=str(out)) == {**summary, "out": str(out)}
        assert sorted(os.listdir(out)) == ["checkpoint", "history.jsonl", "summary.json"]
        with open(out / "summary.json") as fh:
            assert json.load(fh) == summary
        with open(out / "history.jsonl") as fh:
            history = [json.loads(line) for line in fh]
        assert [rec["step"] for rec in history] == [1, 2]
        assert summary["final_loss"] == history[-1]["loss"]
        assert summary["config"]["size"] == 16 and summary["config"]["seed"] == 3

    def test_summary_records_the_numeric_environment_and_the_checkpoint_does_not(
            self, tmp_path):
        out = tmp_path / "run"
        env = run(self.UNET, tiny_spec(), self.CFG, out=str(out))["environment"]
        assert env == numeric_environment()
        assert set(env) == {"numpy", "blas", "blas_version", "blas_kernel", "blas_threads",
                            "cpu"}
        assert env["numpy"] == np.__version__
        for key in ("blas", "blas_version", "blas_kernel", "cpu"):
            assert env[key] is None or isinstance(env[key], str)
        if env["blas"] == "scipy-openblas":  # numpy's wheels: the symbols exist
            assert env["blas_kernel"] and env["blas_threads"] >= 1
        with open(out / "checkpoint" / "manifest.json") as fh:
            manifest = fh.read()
        assert "environment" not in json.loads(manifest)
        assert not env["blas_kernel"] or env["blas_kernel"] not in manifest


class TestNumericEnvironment:
    def test_what_cannot_be_read_is_null(self, monkeypatch, tmp_path):
        def no_library(*args, **kwargs):
            raise OSError("cannot open shared object file")

        monkeypatch.setattr(training, "_CPUINFO", str(tmp_path / "absent"))
        monkeypatch.setattr(np, "show_config", lambda mode: {})
        monkeypatch.setattr(ctypes, "CDLL", no_library)
        assert numeric_environment() == {"numpy": np.__version__, "blas": None,
                                         "blas_version": None, "blas_kernel": None,
                                         "blas_threads": None, "cpu": None}

    def test_an_absent_blas_symbol_is_null(self):
        assert training._blas_call("no_such_blas_function64_", ctypes.c_int) is None

    def test_the_cpu_model_is_the_first_model_name(self, monkeypatch, tmp_path):
        cpuinfo = tmp_path / "cpuinfo"
        cpuinfo.write_text("processor\t: 0\nmodel name\t: Some CPU @ 2.0GHz\n"
                           "processor\t: 1\nmodel name\t: Other\n")
        monkeypatch.setattr(training, "_CPUINFO", str(cpuinfo))
        assert numeric_environment()["cpu"] == "Some CPU @ 2.0GHz"
        cpuinfo.write_text("processor\t: 0\n")
        assert numeric_environment()["cpu"] is None


class TestConsistentModel:
    def batch(self, count=3, seed=21):
        samples = [make_sample(tiny_spec(), 8, seed, i) for i in range(count)]
        zf = np.stack([s.zf for s in samples])
        masks = np.stack([s.mask_columns for s in samples])
        return samples, zf, masks

    def test_inferred_columns_match_true_mask(self):
        _, zf, masks = self.batch()
        k = fft2c(Tensor(zf)).data
        mag = np.abs(k).max(axis=(1, 2))
        keep = mag > ConsistentModel.MASK_REL_THRESHOLD * mag.max(axis=1, keepdims=True)
        assert np.array_equal(keep.astype(np.float32), masks)

    def test_measured_columns_survive_the_model(self):
        # whatever the inner model writes there, sampled k-space columns of
        # the output equal the input's within transform roundoff. Every
        # parameter is drawn, so the model writes far from its input: the
        # head's bias alone only moves the DC column, which is measured.
        model = ConsistentModel(tiny_model(seed=3))
        for i, p in enumerate(model.parameters()):
            p.data[...] = Rng(9).fork(i).uniform(p.shape, -0.5, 0.5)
        _, zf, masks = self.batch()
        out = model(Tensor(zf)).data
        k_in = fft2c(Tensor(zf)).data
        k_out = fft2c(Tensor(out)).data
        sampled = np.broadcast_to(masks[:, None, None, :] > 0, k_in.shape)
        assert np.abs((k_out - k_in)[sampled]).max() < 1e-5
        # and the unmeasured columns did change
        assert np.abs((k_out - k_in)[~sampled]).max() > 1e-3

    @staticmethod
    def float_blend(model, x):
        """Data consistency as a float blend, `k_hat*(1-keep) + k_meas*keep`."""
        k_meas = fft2c(Tensor(x.data))
        mag = np.abs(k_meas.data).max(axis=(1, 2))
        cols = mag > ConsistentModel.MASK_REL_THRESHOLD * mag.max(axis=1, keepdims=True)
        keep = np.ascontiguousarray(np.broadcast_to(
            cols[:, None, None, :], x.data.shape)).astype(x.data.dtype)
        k_hat = fft2c(model.model(x))
        return ifft2c(T.add(T.mul(k_hat, Tensor(1.0 - keep)),
                            T.mul(k_meas, Tensor(keep))))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", [31, 32, 33])
    @pytest.mark.parametrize("zero_filled", [True, False])
    def test_output_and_gradient_equal_the_float_blend(self, dtype, seed, zero_filled):
        model = ConsistentModel(tiny_model(seed=seed, dtype=dtype))
        for name, p in model.named_parameters():
            if name.startswith("head."):
                p.data[...] = Rng(seed).uniform(p.shape, -0.5, 0.5)
        if zero_filled:
            x = np.stack([make_sample(tiny_spec(), 8, seed, i, dtype=dtype).zf
                          for i in range(3)])
        else:
            x = Rng(seed).uniform((3, 2, 16, 16), -1, 1, dtype=dtype)
        results = []
        for f in (model, lambda t: self.float_blend(model, t)):
            with Tape():
                out = f(Tensor(x))
                loss = T.mean_(T.mul(out, out))
            grads = backward(loss)
            results.append((out.data, [grads[p].data for p in model.parameters()]))
        (out, grads), (ref, ref_grads) = results
        assert out.dtype == dtype
        assert np.array_equal(out, ref)
        for g, r in zip(grads, ref_grads):
            assert np.array_equal(g, r)

    @pytest.mark.parametrize("size", [16, 64])
    def test_head_bias_gradient_is_rounding_under_dc(self, size):
        """DC puts back the measured columns, and every mask samples the DC
        column (width//2), so a constant image, which is what the head's
        bias adds, never reaches the loss: in float64 its gradient is
        rounding, at most 1e-12 of the largest gradient."""
        spec = DatasetSpec(height=size, width=size, n_ellipses=3)
        samples = [make_sample(spec, 8, 0, i, dtype=np.float64) for i in range(2)]
        model = ConsistentModel(tiny_model(seed=1, dtype=np.float64))
        named = dict(model.named_parameters())
        head = named["head.blocks"]
        head.data[...] = Rng(2).uniform(head.shape, -0.5, 0.5, dtype=np.float64)
        with Tape():
            loss = loss_total(model(Tensor(np.stack([s.zf for s in samples]))),
                              Tensor(np.stack([s.truth for s in samples])))
        grads = backward(loss)
        largest = max(float(np.abs(grads[p].data).max()) for p in model.parameters())
        assert largest > 0
        assert np.abs(grads[named["head.bias"]].data).max() <= 1e-12 * largest

    def test_identity_at_init_up_to_roundoff(self):
        model = ConsistentModel(tiny_model(seed=4))
        _, zf, _ = self.batch()
        out = model(Tensor(zf)).data
        assert np.abs(out - zf).max() < 1e-5

    def test_delegates_parameters(self):
        inner = tiny_model(seed=5)
        model = ConsistentModel(inner)
        assert model.param_count() == inner.param_count()
        assert [n for n, _ in model.named_parameters()] == \
               [n for n, _ in inner.named_parameters()]
        assert model.dtype == inner.dtype

    def test_trains_through_the_projection(self):
        model = ConsistentModel(tiny_model(seed=6))
        before = [p.data.copy() for p in model.parameters()]
        cfg = TrainConfig(steps=3, batch=2, seed=7, dataset_size=4, lr=1e-3)
        history = train(model, tiny_spec(), cfg)
        assert all(math.isfinite(h["loss"]) for h in history)
        moved = [float(np.abs(p.data - b).max())
                 for p, b in zip(model.parameters(), before)]
        assert max(moved) > 0

    def test_checkpoint_saves_inner_model(self, tmp_path):
        model = ConsistentModel(tiny_model(seed=8))
        path = str(tmp_path / "ckpt")
        model.save(path)
        from kronmri.blocks import UNet
        loaded = ConsistentModel(UNet.load(path))
        _, zf, _ = self.batch(count=2)
        a = model(Tensor(zf)).data
        b = loaded(Tensor(zf)).data
        assert np.array_equal(a, b)


GOLDEN_PSNR = 14.238427659960902
GOLDEN_SSIM = 0.36347690763312845
