"""Desk-scale deterministic training for complex-image reconstruction.

Datasets are synthetic phantoms generated on the fly from (seed, index),
so a (config, seed) pair fixes the whole run: masks, batches, parameter
trajectory, history. No data files are read. `step` is one optimizer step on a
batch, `train` loops it over the dataset and returns the history, and
`run` is a whole run: baseline and final scores around `train`, and, given
an output directory, the checkpoint, the history and the summary.
"""

from __future__ import annotations

import ctypes
import json
import os
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .blocks import UNet, UNetConfig, write_json
from .errors import ConfigError, NumericError
from .kspace import (CENTER_FRACTION_DEFAULTS, MIN_SIDE, apply_mask, complex_magnitude,
                     fft2c, gen_cartesian_mask, gen_phantom, ifft2c)
from .kten import write_file, write_set
from .layers import Module, check_sizes
from .losses import loss_total
from .metrics import psnr, ssim
from .rng import Rng
from .tensor import Tape, Tensor, backward


# Adam's moment decay rates and denominator floor.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Adam with bias correction over a named parameter list.

    Moments are kept per parameter in the parameter's dtype; `step`
    consumes the gradient dict returned by `backward`. A parameter missing
    from the dict is skipped: its moments are not decayed and its value is
    not updated. The step count `t`, which the bias correction reads, is
    shared and advances on every step.
    """

    def __init__(self, named_params, lr: float):
        if not (np.isfinite(lr) and lr >= 0):
            raise ConfigError(f"lr must be finite and >= 0, got {lr}")
        self.lr = lr
        self.named = [(name, p) for name, p in named_params]
        self.m = [np.zeros_like(p.data) for _, p in self.named]
        self.v = [np.zeros_like(p.data) for _, p in self.named]
        self.t = 0

    def step(self, grads: dict) -> None:
        """One update of every parameter with a gradient. A non-finite
        gradient, a second moment that overflows (the update would silently
        be zero from then on) or a new value that overflows the parameter's
        dtype is a NumericError naming the parameter and the step, raised
        before that parameter is written."""
        self.t += 1
        c1 = 1.0 - ADAM_BETA1 ** self.t
        c2 = 1.0 - ADAM_BETA2 ** self.t
        with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
            for (name, p), m, v in zip(self.named, self.m, self.v):
                g = grads.get(p)
                if g is None:
                    continue
                garr = g.data
                if not np.all(np.isfinite(garr)):
                    raise NumericError(f"non-finite gradient for parameter {name!r} "
                                       f"at step {self.t}")
                # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and the new
                # value p - lr * (m / c1) / (sqrt(v / c2) + eps), operation
                # by operation in that order, in place where the order allows.
                m *= ADAM_BETA1
                m += (1.0 - ADAM_BETA1) * garr
                g2 = (1.0 - ADAM_BETA2) * garr
                g2 *= garr
                v *= ADAM_BETA2
                v += g2
                new = m / c1
                new *= self.lr
                den = v / c2
                np.sqrt(den, out=den)
                den += ADAM_EPS
                new /= den
                np.subtract(p.data, new, out=new)
                if not (np.isfinite(new).all() and np.isfinite(den).all()):
                    raise NumericError(f"non-finite update for parameter {name!r} "
                                       f"at step {self.t}")
                p.data[...] = new


@dataclass
class DatasetSpec:
    height: int = 64
    width: int = 64
    n_ellipses: int = 6

    def __post_init__(self):
        check_sizes(minimum=MIN_SIDE, height=self.height, width=self.width)
        check_sizes(n_ellipses=self.n_ellipses)


@dataclass
class TrainConfig:
    steps: int = 200
    batch: int = 4
    seed: int = 0
    af: int = 8
    dataset_size: int = 32
    eval_every: int = 0
    eval_size: int = 8
    lr: float = 2e-5

    def __post_init__(self):
        check_sizes(steps=self.steps, batch=self.batch, dataset_size=self.dataset_size,
                    eval_size=self.eval_size)
        check_sizes(minimum=0, eval_every=self.eval_every)
        if self.af not in CENTER_FRACTION_DEFAULTS:
            raise ConfigError(f"af must be one of {sorted(CENTER_FRACTION_DEFAULTS)}, "
                              f"got {self.af}")
        if not (np.isfinite(self.lr) and self.lr >= 0):
            raise ConfigError(f"lr must be finite and >= 0, got {self.lr}")


@dataclass
class Sample:
    truth: np.ndarray   # [2, H, W] ground-truth complex pair
    zf: np.ndarray      # [2, H, W] zero-filled reconstruction
    mask_columns: np.ndarray


def make_sample(spec: DatasetSpec, af: int, seed: int, index: int,
                dtype=np.float32) -> Sample:
    """Deterministic sample: a pure function of (spec, af, seed, index)."""
    root = Rng(seed)
    truth = gen_phantom(spec.height, spec.width, spec.n_ellipses,
                        root.fork(0, index), dtype=dtype)
    mask = gen_cartesian_mask(spec.width, af, rng=root.fork(1, index))
    zf = ifft2c(apply_mask(fft2c(truth), mask.sampled))
    return Sample(truth=truth.data, zf=zf.data, mask_columns=mask.sampled)


def make_dataset(spec: DatasetSpec, af: int, seed: int, count: int) -> list[Sample]:
    return [make_sample(spec, af, seed, i) for i in range(count)]


def held_out_seed(seed: int) -> int:
    """Evaluation seed derived from a training seed; never collides with
    the training sample stream."""
    return int(Rng(seed).fork(2).seed)


def _stack(samples: list[Sample], attr: str) -> Tensor:
    return Tensor(np.stack([getattr(s, attr) for s in samples]))


class ConsistentModel(Module):
    """Image-to-image model followed by a data-consistency step.

    A zero-filled input is its own measurement record: its spectrum holds
    the acquired k-space on the sampled columns and only transform roundoff
    (about 1e-6 relative) elsewhere, while genuinely sampled columns carry
    at least 1e-3 of the spectral peak on this data. Columns above a 1e-5
    relative magnitude are therefore measured: `apply_mask` puts them back,
    phase included, in place of the model output's, so training can only
    move the unmeasured part. The wrapper adds no parameters and
    checkpoints exactly like the inner model.
    """

    MASK_REL_THRESHOLD = 1e-5

    def __init__(self, model):
        self.model = model

    def __call__(self, x: Tensor) -> Tensor:
        k_meas = fft2c(Tensor(x.data))  # constant copy: no grad through it
        mag = np.abs(k_meas.data).max(axis=(1, 2))           # [B, W]
        keep = (mag > self.MASK_REL_THRESHOLD * mag.max(axis=1, keepdims=True))[:, None, None]
        k_hat = fft2c(self.model(x))
        return ifft2c(T.add(apply_mask(k_hat, ~keep), apply_mask(k_meas, keep)))

    def named_parameters(self):
        return self.model.named_parameters()

    @property
    def dtype(self):
        return self.model.dtype

    def save(self, path: str) -> None:
        self.model.save(path)


def evaluate(model, spec: DatasetSpec, af: int, seed: int, count: int) -> dict:
    """Magnitude PSNR/SSIM over `count` held-out samples: `psnr_mean`,
    `psnr_std`, `ssim_mean` and `ssim_std`, the std the population one.

    `model` maps [B,2,H,W] to [B,2,H,W]; None evaluates the zero-filled
    baseline itself. data_range is each sample's own magnitude peak.
    """
    check_sizes(count=count)
    ps, ss = np.empty(count), np.empty(count)
    for i in range(count):
        s = make_sample(spec, af, seed, i)
        xhat = s.zf if model is None else model(Tensor(s.zf[None])).data[0]
        mag_hat = complex_magnitude(xhat)
        mag_truth = complex_magnitude(s.truth)
        dr = float(mag_truth.max())
        ps[i] = psnr(mag_hat, mag_truth, dr)
        ss[i] = ssim(mag_hat, mag_truth, dr)
    # an infinite PSNR sentinel makes the spread undefined (nan), not an error
    with np.errstate(invalid="ignore"):
        return {"psnr_mean": float(ps.mean()), "psnr_std": float(ps.std()),
                "ssim_mean": float(ss.mean()), "ssim_std": float(ss.std())}


def step(model, opt: Adam, x: Tensor, y: Tensor) -> tuple[float, Tensor]:
    """One optimizer step on the batch (x, y): the forward and `loss_total`
    under a Tape, `backward`, then `opt.step`. Returns the loss and the
    model's output."""
    with Tape():
        out = model(x)
        loss = loss_total(out, y)
    opt.step(backward(loss))
    return loss.item(), out


def train(model, spec: DatasetSpec, cfg: TrainConfig) -> list[dict]:
    """Mini-batch Adam training; returns the history record list.

    Batches cycle through a seeded shuffle of the dataset. Aborts with a
    numeric error naming the step if the loss or any gradient goes
    non-finite.
    """
    data = make_dataset(spec, cfg.af, cfg.seed, cfg.dataset_size)
    order_rng = Rng(cfg.seed).fork(3)
    eval_seed = held_out_seed(cfg.seed)
    opt = Adam(model.named_parameters(), lr=cfg.lr)

    history = []
    queue: list[int] = []
    for t in range(1, cfg.steps + 1):
        while len(queue) < cfg.batch:
            queue.extend(int(i) for i in order_rng.shuffle(cfg.dataset_size))
        picks = [data[queue.pop(0)] for _ in range(cfg.batch)]
        try:
            loss, _ = step(model, opt, _stack(picks, "zf"), _stack(picks, "truth"))
        except NumericError as err:
            raise NumericError(f"training aborted at step {t}: {err}") from err
        rec = {"step": t, "loss": loss}
        if cfg.eval_every and t % cfg.eval_every == 0:
            scores = evaluate(model, spec, cfg.af, eval_seed, cfg.eval_size)
            rec["psnr"] = scores["psnr_mean"]
            rec["ssim"] = scores["ssim_mean"]
        history.append(rec)

    return history


def write_history(path: str, history: list[dict]) -> None:
    """Write one key-sorted JSON line per record, whole (`write_file`)."""
    write_file(path, (json.dumps(rec, sort_keys=True).encode("ascii") + b"\n"
                      for rec in history))


# Where the CPU model is read (Linux); elsewhere it is recorded as None.
_CPUINFO = "/proc/cpuinfo"


def _blas_call(name: str, restype):
    """The result of the argument-free BLAS function `name`, looked up in
    the BLAS that numpy's core extension loaded; None if it has no such
    symbol or the extension cannot be opened."""
    try:
        fn = getattr(ctypes.CDLL(np._core._multiarray_umath.__file__), name)
    except (OSError, AttributeError):
        return None
    fn.argtypes, fn.restype = (), restype
    return fn()


def numeric_environment() -> dict:
    """What a run's float bits depend on: the numpy version, the BLAS
    numpy was built against (name and version), the kernel set and thread
    count that BLAS uses at run time, and the CPU model. The kernel, which
    changes trained bytes, is read from scipy-openblas's
    `scipy_openblas_get_corename64_` and the threads from
    `scipy_openblas_get_num_threads64_`; the build record of
    `np.show_config` names only the build target. Whatever cannot be read
    is None."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    kernel = _blas_call("scipy_openblas_get_corename64_", ctypes.c_char_p)
    cpu = None
    try:
        with open(_CPUINFO) as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_kernel": None if kernel is None else kernel.decode("ascii", "replace"),
            "blas_threads": _blas_call("scipy_openblas_get_num_threads64_", ctypes.c_int),
            "cpu": cpu}


def run(ucfg: UNetConfig, spec: DatasetSpec, cfg: TrainConfig, out: str | None = None) -> dict:
    """A whole training run; returns its summary.

    Builds a U-Net of `ucfg` from `cfg.seed` behind data consistency,
    scores the zero-filled baseline on the held-out set, trains, and scores
    the model. The summary records the run's `numeric_environment()`; the
    checkpoint does not, so its bytes do not depend on the host. With `out`, writes `checkpoint/`, `history.jsonl` and
    `summary.json` there as one `kten.write_set`, the summary last, and the
    returned summary also names `out`. A run that fails writing leaves an
    earlier run there byte for byte, or, if it fails while renaming, no
    summary; so a directory with a summary holds a complete run. An empty
    `out` is a ConfigError, raised before anything is built.
    """
    if out == "":
        raise ConfigError("out must name a directory, got an empty path")
    model = ConsistentModel(UNet(ucfg, Rng(cfg.seed)))
    eval_seed = held_out_seed(cfg.seed)
    baseline = evaluate(None, spec, cfg.af, eval_seed, cfg.eval_size)
    history = train(model, spec, cfg)
    final = evaluate(model, spec, cfg.af, eval_seed, cfg.eval_size)
    summary = {"config": {**ucfg.to_dict(), "steps": cfg.steps,
                          "batch": cfg.batch, "seed": cfg.seed, "af": cfg.af,
                          "lr": cfg.lr, "dataset_size": cfg.dataset_size,
                          "size": spec.height, "ellipses": spec.n_ellipses},
               "zero_filled": baseline,
               "final": final,
               "psnr_gain_db": final["psnr_mean"] - baseline["psnr_mean"],
               "final_loss": history[-1]["loss"],
               "environment": numeric_environment()}
    if out is not None:
        os.makedirs(out, exist_ok=True)
        with write_set():
            model.save(os.path.join(out, "checkpoint"))
            write_history(os.path.join(out, "history.jsonl"), history)
            write_json(os.path.join(out, "summary.json"), summary)
        summary["out"] = out
    return summary
