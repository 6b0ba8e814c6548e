"""What the benchmark in perfbench/ needs from kronmri.

perfbench/ imports kronmri's modules and names, patches `tensor._apply` and
a set of methods by name, and finds the tensor ops by the names their code
refers to. These tests read perfbench/ as it is, without editing it, and
fail when a change to kronmri would break the benchmark.
"""

import ast
import importlib
import inspect
import os
import sys

import numpy as np
import pytest

from kronmri import cli, kspace
from kronmri import tensor as T
from kronmri.blocks import UNet, UNetConfig, build_unet
from kronmri.losses import loss_total
from kronmri.rng import Rng
from kronmri.tensor import Tape, Tensor, backward
from kronmri.training import ConsistentModel, DatasetSpec, TrainConfig, make_dataset, train

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)
import harness  # noqa: E402
import replay  # noqa: E402  (importing it also resolves its kronmri names)
import workloads  # noqa: E402

sys.path.remove(PERFBENCH)


def kronmri_imports():
    """(module, name) for every `from kronmri... import name` in perfbench/,
    including the imports inside functions."""
    found = []
    for fname in sorted(os.listdir(PERFBENCH)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(PERFBENCH, fname)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("kronmri"):
                found += [(node.module, alias.name) for alias in node.names]
    return found


def test_every_kronmri_name_perfbench_imports_resolves():
    names = kronmri_imports()
    assert ("kronmri.tensor", "mac_count") in names  # run.py imports it in a function
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_tensor_ops_finds_the_ops_it_traces():
    ops = set(workloads.tensor_ops().values())
    assert {"kspace.fft2c", "kspace.ifft2c", "kspace.apply_mask",
            "tensor.conv2d", "tensor.kron_sum", "tensor.linear"} <= ops


def test_patched_apply_sees_the_fft2c_node(monkeypatch):
    seen = []
    apply = T._apply

    def spy(name, inputs, out_data, vjp):
        seen.append(name)
        return apply(name, inputs, out_data, vjp)

    monkeypatch.setattr(T, "_apply", spy)
    x = Tensor(np.ones((2, 4, 4)), requires_grad=True)
    with Tape():
        kspace.fft2c(x)
    assert seen == ["fft2c"]


def test_instrumented_traces_fft_forward_and_backward():
    tr = harness.Tracer()
    apply = T._apply
    x = Tensor(np.ones((1, 2, 4, 4)), requires_grad=True)
    with workloads.instrumented(tr), tr.op():
        with Tape():
            loss = T.sum_(kspace.ifft2c(kspace.fft2c(x)))
        backward(loss)
    kinds = {(s.name, s.kind) for s in tr.spans}
    assert {("kspace.fft2c", "fwd"), ("kspace.ifft2c", "fwd"),
            ("tensor.vjp.fft2c", "bwd"), ("tensor.vjp.ifft2c", "bwd")} <= kinds
    assert T._apply is apply  # restored on exit


def test_instrumented_traces_checkpoint_load_and_its_array_reads(tmp_path):
    path = str(tmp_path / "ckpt")
    model = build_unet(UNetConfig(channel_multiples=[1, 2], base_channels=2), Rng(0))
    model.save(path)
    tr = harness.Tracer()
    load = UNet.load
    with workloads.instrumented(tr), tr.op():
        loaded = UNet.load(path)
    names = [s.name for s in tr.spans]
    assert names.count("blocks.checkpoint_load") == 1
    assert names.count("kten.read") == sum(len(layer.arrays()) for _, layer in loaded._layers)
    assert tr.counts[0]["kten.bytes"] == sum(p.data.nbytes for p in model.parameters())
    assert UNet.load == load  # restored on exit


@pytest.mark.parametrize("with_backward", [False, True])
def test_capture_convs_records_one_call_per_conv_layer(with_backward):
    """The per-layer replay wraps `T.conv2d` as (inp, w, bias=None,
    stride=1, padding=0) and needs one call per U-Net conv layer, under a
    tape and without; a new conv2d argument would break every traced run."""
    unet = build_unet(UNetConfig(channel_multiples=[1, 2], base_channels=2), Rng(0))
    conv2d = T.conv2d
    x = Tensor(np.ones((1, 2, 8, 8), dtype=np.float32))
    calls = replay.capture_convs(unet, x, with_backward)
    assert T.conv2d is conv2d  # restored on exit
    names = [n[:-len(".bias")] for n, _ in unet.named_parameters() if n.endswith(".bias")]
    assert [call["name"] for call in calls] == names
    assert calls[0]["x_grad"] is False and calls[-1]["x_grad"] is with_backward
    assert {(call["stride"], call["padding"]) for call in calls} == {(1, 1), (2, 1)}


def test_apply_keeps_the_four_parameters_perfbench_wraps():
    """`workloads.instrumented` replaces `T._apply` with a function of
    (name, inputs, out_data, vjp) that calls the saved one with those four
    arguments; another parameter would break every traced run."""
    assert list(inspect.signature(T._apply).parameters) == ["name", "inputs", "out_data", "vjp"]


def test_untaped_capture_sees_the_upsampled_and_concatenated_inputs():
    """The convs after an upsample and a skip concat read a join, which is
    never built; the replay records the joined shape, taped or not, and
    under a tape every conv after `stem.conv1` reads an input that needs a
    gradient, so the replay times the up convs' input gradients too."""
    cfg = UNetConfig(channel_multiples=[1, 2, 2], base_channels=2)
    x = Tensor(np.ones((1, 2, 8, 8), dtype=np.float32))
    untaped = replay.capture_convs(build_unet(cfg, Rng(0)), x, False)
    taped = replay.capture_convs(build_unet(cfg, Rng(0)), x, True)
    shapes = {call["name"]: call["x_shape"] for call in untaped}
    assert shapes == {call["name"]: call["x_shape"] for call in taped}
    assert shapes["up2.up"] == (1, 4, 4, 4) and shapes["up2.conv1"] == (1, 4, 4, 8)
    assert shapes["up1.up"] == (1, 8, 8, 4) and shapes["up1.conv1"] == (1, 8, 8, 4)
    assert not any(call["x_grad"] for call in untaped)
    assert [call["name"] for call in taped if not call["x_grad"]] == ["stem.conv1"]


def test_train_workload_call_forms():
    """The train workloads draw their data with `make_dataset` and read
    `truth`, `zf` and `mask_columns` from its samples. Each step calls
    `ConsistentModel(model)(x)` on a [B,2,H,W] zero-filled batch with no
    mask argument, then `loss_total(out, y)` and `backward`, and reads
    `loss.item()` and `out.data` after `backward`."""
    spec = DatasetSpec(height=16, width=16, n_ellipses=3)
    samples = make_dataset(spec, 8, 0, 2)
    for s in samples:
        assert s.truth.shape == s.zf.shape == (2, 16, 16)
        assert s.mask_columns.shape == (16,)
    model = ConsistentModel(build_unet(UNetConfig(channel_multiples=[1, 2],
                                                  base_channels=2), Rng(0)))
    x = Tensor(np.stack([s.zf for s in samples]))
    y = Tensor(np.stack([s.truth for s in samples]))
    with Tape():
        out = model(x)
        loss = loss_total(out, y)
    grads = backward(loss)
    assert out.shape == x.shape
    assert set(grads) == set(model.parameters())
    assert np.isfinite(loss.item()) and out.data.shape == x.shape


def test_train_workload_times_the_programs_step(tmp_path):
    """Three steps of the desk train workload give bitwise the losses of
    `train` on the same data, batch order and initial weights."""
    wl = workloads.TrainWorkload(7, str(tmp_path), "kronecker", 2)
    wl.prepare(wl.generate())
    wl.build()
    losses = [wl.op(harness.NullTracer())[0] for _ in range(3)]
    cfg = TrainConfig(steps=3, batch=workloads.BATCH, seed=7, af=workloads.AF,
                      dataset_size=workloads.DATASET_SIZE)
    history = train(ConsistentModel(workloads.desk_unet()), workloads.SPEC, cfg)
    assert losses == [rec["loss"] for rec in history]


def test_train_workload_times_kronmri_trains_defaults(tmp_path):
    """train-desk times the step `kronmri train` runs with no options: the
    same U-Net (kind, n, multiples, base), phantoms, acceleration, batch,
    dataset size and learning rate."""
    args = cli.build_parser().parse_args(["train"])
    wl = workloads.WORKLOADS["train-desk"](0, str(tmp_path))
    wl.build()
    assert wl.model.model.cfg == cli._unet_config_from_args(args) == UNetConfig(
        channel_multiples=workloads.UNET_MULTIPLES, base_channels=workloads.UNET_BASE,
        layer_kind="kronecker", n=2)
    assert workloads.SPEC == DatasetSpec(height=args.size, width=args.size,
                                         n_ellipses=args.ellipses)
    assert (workloads.AF, workloads.BATCH, workloads.DATASET_SIZE) == (
        args.af, args.batch, args.dataset_size)
    assert wl.opt.lr == TrainConfig.lr == args.lr


@pytest.mark.parametrize("with_backward", [False, True])
def test_replay_times_every_conv_and_the_fft_pair(with_backward):
    """The per-layer replay reruns each captured conv, under a tape with
    `T.sum_(y)` as its loss if `with_backward`, and reads each conv's MACs
    from `mac_count`; the FFT replay times the centered FFT pair."""
    unet = build_unet(UNetConfig(channel_multiples=[1, 2], base_channels=2), Rng(0))
    x = Tensor(np.ones((1, 2, 8, 8), dtype=np.float32))
    out = replay.replay_convs(replay.capture_convs(unet, x, with_backward), with_backward, 0)
    names = replay.conv_names(unet)
    assert set(out) == ({f"layers.{name}.{m}" for name in names
                         for m in ("fwd_ms", "bwd_ms", "macs", "gmac_per_s")}
                        | {"tensor.conv2d.fwd_ms", "tensor.conv2d.bwd_ms",
                           "tensor.gemm_ref_gmac_per_s"})
    assert all(out[f"layers.{name}.macs"] > 0 for name in names)
    assert set(replay.replay_fft((1, 2, 8, 8), 0)) == {"kspace.fft2c_ms", "kspace.ifft2c_ms"}
