"""Per-layer metrics: the traced run's span figures, and a replay that
times each U-Net conv, the same-size numpy GEMM and the centered FFT pair
on their own at a workload's shapes.

MAC counts are exact: they are the deltas of kronmri's `mac_count()` over
the replayed call. The GEMM reference multiplies an [M, C*k*k] im2col-sized
matrix by a [C*k*k, O] one, which is the same MAC count as the conv, so a
layer's GMAC/s reads against what plain numpy reaches on this machine.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

from kronmri import tensor as T
from kronmri.kspace import fft2c, ifft2c
from kronmri.rng import Rng
from kronmri.tensor import Tape, Tensor, backward, mac_count

from harness import median
from workloads import desk_unet

REPS = 3


def capture_convs(unet, x: Tensor, with_backward: bool) -> list[dict]:
    """Run one forward of `unet` on `x`, under a Tape if `with_backward`,
    and return every conv2d call in order: the U-Net layer name, input
    shape, whether the input needs a gradient, and the weight, bias, stride
    and padding."""
    calls = []
    conv2d = T.conv2d

    def recorder(inp, w, bias=None, stride=1, padding=0):
        calls.append({"x_shape": inp.shape,
                      "x_grad": inp.requires_grad or inp.node is not None,
                      "w": w.data.copy(), "bias": bias.data.copy(),
                      "stride": stride, "padding": padding})
        return conv2d(inp, w, bias, stride=stride, padding=padding)

    T.conv2d = recorder
    try:
        with Tape() if with_backward else contextlib.nullcontext():
            unet(x)
    finally:
        T.conv2d = conv2d
    names = conv_names(unet)
    if len(names) != len(calls):
        raise RuntimeError(f"{len(calls)} conv calls for {len(names)} layers")
    for name, call in zip(names, calls):
        call["name"] = name
    return calls


def conv_names(unet) -> list[str]:
    # Every U-Net conv layer owns exactly one "<layer>.bias" parameter, and
    # parameters are listed in call order.
    return [n[:-len(".bias")] for n, _ in unet.named_parameters() if n.endswith(".bias")]


def zero_convs(unet) -> dict:
    """The replay's metrics for a workload that runs no convolution."""
    out = {f"layers.{name}.{m}": 0.0 for name in conv_names(unet)
           for m in ("fwd_ms", "bwd_ms", "macs", "gmac_per_s")}
    out.update({"tensor.conv2d.fwd_ms": 0.0, "tensor.conv2d.bwd_ms": 0.0,
                "tensor.gemm_ref_gmac_per_s": 0.0})
    return out


def _median_ms(fn, reps: int = REPS) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) * 1e3


def replay_convs(calls: list[dict], with_backward: bool, seed: int) -> dict:
    """Per layer: forward and (if `with_backward`) backward ms under a Tape,
    exact MACs and GMAC/s; plus the conv totals and the GEMM reference."""
    rng = Rng(seed).fork(30)
    out = {}
    fwd_total = bwd_total = gemm_ms = 0.0
    macs_total = 0
    for i, c in enumerate(calls):
        x = Tensor(rng.fork(i).uniform(c["x_shape"], -1.0, 1.0, dtype=np.float32),
                   requires_grad=c["x_grad"] and with_backward)
        w = Tensor(c["w"], requires_grad=with_backward)
        b = Tensor(c["bias"], requires_grad=with_backward)
        fwd, bwd = [], []
        for _ in range(REPS):
            with Tape() if with_backward else contextlib.nullcontext():
                m0 = mac_count()
                t0 = time.perf_counter()
                y = T.conv2d(x, w, b, stride=c["stride"], padding=c["padding"])
                t1 = time.perf_counter()
                macs = mac_count() - m0
                loss = T.sum_(y) if with_backward else None
            fwd.append(t1 - t0)
            if with_backward:
                t2 = time.perf_counter()
                backward(loss)
                bwd.append(time.perf_counter() - t2)
        o, cin, k, _ = c["w"].shape
        rows = macs // (o * cin * k * k)
        cols = rng.fork(100 + i).uniform((rows, cin * k * k), -1.0, 1.0, dtype=np.float32)
        wt = np.ascontiguousarray(c["w"].reshape(o, -1).T)
        gemm_ms += _median_ms(lambda: cols @ wt)
        f_ms = float(np.median(fwd)) * 1e3
        b_ms = float(np.median(bwd)) * 1e3 if bwd else 0.0
        name = c["name"]
        out[f"layers.{name}.fwd_ms"] = f_ms
        out[f"layers.{name}.bwd_ms"] = b_ms
        out[f"layers.{name}.macs"] = macs
        out[f"layers.{name}.gmac_per_s"] = macs / f_ms / 1e6
        fwd_total += f_ms
        bwd_total += b_ms
        macs_total += macs
    out["tensor.conv2d.fwd_ms"] = fwd_total
    out["tensor.conv2d.bwd_ms"] = bwd_total
    out["tensor.gemm_ref_gmac_per_s"] = macs_total / gemm_ms / 1e6
    return out


def replay_fft(shape, seed: int) -> dict:
    """Median ms of fft2c and ifft2c on a [B, 2, H, W] float32 batch."""
    x = Tensor(Rng(seed).fork(31).uniform(shape, -1.0, 1.0, dtype=np.float32))
    return {"kspace.fft2c_ms": _median_ms(lambda: fft2c(x), 5),
            "kspace.ifft2c_ms": _median_ms(lambda: ifft2c(x), 5)}


def layer_metrics(wl, tr, plain, traced, seed: int) -> dict:
    """Every per-layer metric of a traced run of workload `wl`: span
    figures from `tr`, the tracing overhead from the untraced (`plain`) and
    traced op times, and the conv and FFT replays at the workload's shapes."""
    ops = tr.per_op()

    def per_op(kind, name):
        return median([op[kind].get(name, 0.0) for op in ops])

    out = {}
    for metric, span in (("layers.materialize_ms", "layers.materialize"),
                         ("blocks.unet_fwd_ms", "blocks.unet"),
                         ("losses.loss_fwd_ms", "losses.loss_fwd"),
                         ("training.adam_ms", "training.adam"),
                         ("tensor.backward_ms", "tensor.backward"),
                         ("blocks.attn_fwd_ms", "blocks.attn"),
                         ("blocks.mlp_fwd_ms", "blocks.mlp"),
                         ("kten.read_ms", "kten.read"),
                         ("kten.write_ms", "kten.write"),
                         ("blocks.checkpoint_load_ms", "blocks.checkpoint_load"),
                         ("metrics.psnr_ms", "metrics.psnr"),
                         ("metrics.ssim_ms", "metrics.ssim")):
        out[metric] = per_op("total", span) * 1e3
    # The measurement-consistency step is the ConsistentModel call minus
    # the U-Net call inside it.
    out["training.dc_ms"] = median([op["total"].get("training.consistent", 0.0)
                                    - op["total"].get("blocks.unet", 0.0)
                                    for op in ops]) * 1e3
    for name in ("tensor.tape_nodes", "kten.bytes", "tensor.macs"):
        out[name] = round(per_op("counts", name))
    out["tensor.gmac_per_s"] = out["tensor.macs"] / per_op("total", wl.forward_span) / 1e9
    out["tensor.ops_fwd_ms"] = per_op("work", "fwd") * 1e3
    out["tensor.ops_bwd_ms"] = per_op("work", "bwd") * 1e3
    # The share of the operation's time that the work spans account for:
    # tensor ops forward and backward, and library calls. Glue between
    # them (Python, the reverse loop's gradient sums) is not attributed.
    out["trace.coverage"] = (sum(sum(op["work"].values()) for op in ops)
                             / sum(op["root"] for op in ops))
    out["trace.overhead_frac"] = 1.0 - (len(traced) / sum(traced)) / (len(plain) / sum(plain))

    probe = wl.conv_probe()
    if probe is not None:
        unet, x, with_backward = probe
        out.update(replay_convs(capture_convs(unet, x, with_backward), with_backward, seed))
    else:
        out.update(zero_convs(desk_unet()))
    if wl.fft_shape is not None:
        out.update(replay_fft(wl.fft_shape, seed))
    else:
        out.update({"kspace.fft2c_ms": 0.0, "kspace.ifft2c_ms": 0.0})
    return out
