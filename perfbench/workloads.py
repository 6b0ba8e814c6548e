"""The benchmark's workloads. Each drives kronmri's public functions from
outside, one operation at a time (a single-client closed loop).

A workload makes its input arrays from the seed alone (`generate`, which
has no side effects, so its output can be hashed twice), stores or writes
them (`prepare`), builds the program state (`build`, which needs nothing
from `prepare`, so a fresh process can time it alone), runs one timed
operation (`op`) and checks and records its outcome outside the timed
region (`record`). `quality` turns the records into the loss and PSNR
figures. `conv_probe` returns the U-Net, an input of the workload's shape
and whether the workload runs backward, for the per-layer replay, or None
when the workload runs no U-Net.

Class attributes give the items one operation processes (`items_per_op`),
the operations its checks need (`min_ops`), the span that holds its
forward contractions (`forward_span`) and its FFT shape (`fft_shape`, None
without FFTs). A run times `seconds_factor * --seconds / nominal_op_s`
operations, where `nominal_op_s` is the time one operation took at commit
12c771d. See README.md in this directory for why each workload exists and
why the run lengths differ.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import types

import numpy as np

import kronmri.blocks
import kronmri.cli
import kronmri.layers
from kronmri import tensor as T
from kronmri.blocks import (AttentionConfig, PhmMlp, UNet, UNetConfig,
                            WindowAttention, build_unet)
from kronmri.kspace import fft2c, gen_cartesian_mask, gen_phantom, ifft2c
from kronmri.kten import read_kten, write_kten
from kronmri.losses import loss_total
from kronmri.metrics import psnr
from kronmri.rng import Rng
from kronmri.tensor import Tape, Tensor, backward
from kronmri.training import (Adam, ConsistentModel, DatasetSpec, TrainConfig,
                              make_dataset, train)

from harness import CheckFailed

# `kronmri train` defaults: Kronecker U-Net [4,8,8] x 8 with n=2, batch 4,
# 64x64 phantoms with 6 ellipses, acceleration 8, 32 training samples.
UNET_MULTIPLES = [4, 8, 8]
UNET_BASE = 8
SPEC = DatasetSpec(height=64, width=64, n_ellipses=6)
AF = 8
BATCH = 4
DATASET_SIZE = 32
# Model weights are program state, not inputs: every run starts from the
# same initialization, and the workload seed only draws the data. Across
# seeds the initialization moves the early training loss of the dense
# U-Net by about 20%, the data by about 2%.
MODEL_SEED = 0

# float32 FFT roundoff allowed between the acquired k-space and the
# reconstruction's k-space on sampled columns, relative to the k-space peak.
DC_TOL = 64 * float(np.finfo(np.float32).eps)


def desk_unet(layer_kind: str = "kronecker", n: int = 2) -> UNet:
    return build_unet(UNetConfig(channel_multiples=UNET_MULTIPLES, base_channels=UNET_BASE,
                                 layer_kind=layer_kind, n=n), Rng(MODEL_SEED))


def training_quality(first: float, window: list[float], psnrs: list[float]) -> dict:
    """loss_end: the mean loss over the end window, which must lie below
    `first`, the loss at the start; loss_end_rel is their ratio. psnr_db:
    the mean of `psnrs`, taken over the same window."""
    end = float(np.mean(window))
    if not end < first:
        raise CheckFailed(f"loss did not fall: {first} at the start, {end} at the end")
    return {"loss_end": end, "loss_first": first, "loss_end_rel": end / first,
            "psnr_db": float(np.mean(psnrs))}


def magnitude_psnr(out: np.ndarray, truth: np.ndarray) -> float:
    mag = np.hypot(out[0], out[1])
    ref = np.hypot(truth[0], truth[1])
    return psnr(mag, ref, float(ref.max()))


class TrainWorkload:
    """Repeated desk-scale U-Net training steps: ConsistentModel forward and
    `loss_total` under a Tape, `backward`, `Adam.step`, in the batch order
    `kronmri train` uses."""

    forward_span = "training.consistent"
    items_per_op = BATCH
    nominal_op_s = 0.52
    seconds_factor = 0.75
    # The data cycle through the dataset once every EPOCH steps, so loss is
    # compared between whole epochs, where every sample counts once.
    EPOCH = DATASET_SIZE // BATCH
    END_WINDOW = range(2 * EPOCH + 1, 3 * EPOCH + 1)
    min_ops = END_WINDOW[-1]

    fft_shape = (BATCH, 2, SPEC.height, SPEC.width)

    def __init__(self, seed: int, workdir: str, layer_kind: str, n: int):
        self.seed = seed
        self.layer_kind, self.n = layer_kind, n

    def generate(self) -> list[np.ndarray]:
        samples = make_dataset(SPEC, AF, self.seed, DATASET_SIZE)
        return [a for s in samples for a in (s.truth, s.zf, s.mask_columns)]

    def prepare(self, arrays) -> None:
        self.truth, self.zf = arrays[0::3], arrays[1::3]

    def build(self) -> None:
        self.model = ConsistentModel(desk_unet(self.layer_kind, self.n))
        self.opt = Adam(self.model.named_parameters(), lr=TrainConfig.lr)
        self.order = Rng(self.seed).fork(3)
        self.queue: list[int] = []
        self.losses: list[float] = []
        self.psnrs: list[float] = []

    def op(self, tr):
        with tr.span("training.batch", "call"):
            while len(self.queue) < BATCH:
                self.queue.extend(int(i) for i in self.order.shuffle(DATASET_SIZE))
            picks = [self.queue.pop(0) for _ in range(BATCH)]
            x = Tensor(np.stack([self.zf[i] for i in picks]))
            y = Tensor(np.stack([self.truth[i] for i in picks]))
        with Tape() as tape:
            out = self.model(x)
            with tr.span("losses.loss_fwd"):
                loss = loss_total(out, y)
        tr.count("tensor.tape_nodes", len(tape.nodes))
        with tr.span("tensor.backward"):
            grads = backward(loss)
        with tr.span("training.adam", "call"):
            self.opt.step(grads)
        return loss.item(), out.data, y.data

    def record(self, outcome) -> None:
        loss, out, truth = outcome
        if not np.isfinite(loss):
            raise CheckFailed(f"step {len(self.losses) + 1}: loss {loss}")
        self.losses.append(loss)
        if len(self.losses) in self.END_WINDOW:
            self.psnrs += [magnitude_psnr(o, t) for o, t in zip(out, truth)]

    def quality(self) -> dict:
        """The third epoch against the first, on magnitude PSNR of the
        third epoch's outputs."""
        return training_quality(float(np.mean(self.losses[:self.EPOCH])),
                                [self.losses[i - 1] for i in self.END_WINDOW], self.psnrs)

    def conv_probe(self):
        return self.model.model, Tensor(np.stack(self.zf[:BATCH])), True


class PhmWorkload:
    """Training steps over two blocks of WindowAttention + PhmMlp with
    residual adds: no convolution, many small tape ops."""

    forward_span = "phm.forward"
    EMBED, HEADS, WINDOW, N, HIDDEN = 128, 4, 4, 4, 256
    BATCH_SIZE, TOKENS = 8, 64
    LR = 1e-3
    items_per_op = BATCH_SIZE
    nominal_op_s = 0.025
    # Its step times drift with the host over seconds, so it runs longest
    # in time; its tail is a median over blocks (harness.run_tail).
    seconds_factor = 1.5
    fft_shape = None
    END_WINDOW = range(191, 201)
    min_ops = END_WINDOW[-1]

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def generate(self) -> list[np.ndarray]:
        rng = Rng(self.seed)
        shape = (self.BATCH_SIZE, self.TOKENS, self.EMBED)
        return [rng.fork(tag).uniform(shape, -1.0, 1.0, dtype=np.float32)
                for tag in (10, 11)]

    def prepare(self, arrays) -> None:
        self.x, self.target = arrays
        self.x_t, self.target_t = Tensor(self.x), Tensor(self.target)

    def build(self) -> None:
        rng = Rng(MODEL_SEED)
        acfg = AttentionConfig(embed_dim=self.EMBED, heads=self.HEADS,
                               window=self.WINDOW, n=self.N)
        self.blocks = [(WindowAttention(acfg, rng.fork(2 * b)),
                        PhmMlp(self.EMBED, self.HIDDEN, self.N, rng.fork(2 * b + 1)))
                       for b in range(2)]
        named = [(f"block{b}.{part}.{name}", p)
                 for b, (attn, mlp) in enumerate(self.blocks)
                 for part, blk in (("attn", attn), ("mlp", mlp))
                 for name, p in blk.named_parameters()]
        self.opt = Adam(named, lr=self.LR)
        self.losses: list[float] = []
        self.psnrs: list[float] = []

    def op(self, tr):
        bsz, tokens, embed = self.x.shape
        with Tape() as tape:
            with tr.span("phm.forward"):
                h = self.x_t
                for attn, mlp in self.blocks:
                    h = T.add(h, attn(h))
                    flat = mlp(T.reshape(h, (bsz * tokens, embed)))
                    h = T.add(h, T.reshape(flat, (bsz, tokens, embed)))
            with tr.span("phm.loss"):
                d = T.sub(h, self.target_t)
                loss = T.mean_(T.mul(d, d))
        tr.count("tensor.tape_nodes", len(tape.nodes))
        with tr.span("tensor.backward"):
            grads = backward(loss)
        with tr.span("training.adam", "call"):
            self.opt.step(grads)
        return loss.item(), h.data

    def record(self, outcome) -> None:
        loss, out = outcome
        if not np.isfinite(loss):
            raise CheckFailed(f"step {len(self.losses) + 1}: loss {loss}")
        self.losses.append(loss)
        if len(self.losses) in self.END_WINDOW:
            mse = float(np.mean((out.astype(np.float64) - self.target) ** 2))
            span = float(self.target.max() - self.target.min())
            self.psnrs.append(10.0 * np.log10(span * span / mse))

    def quality(self) -> dict:
        """Steps 191-200 against step 1, on output-vs-target PSNR over the
        target's value range."""
        return training_quality(self.losses[0],
                                [self.losses[i - 1] for i in self.END_WINDOW], self.psnrs)

    def conv_probe(self):
        return None


class ReconWorkload:
    """In-process `kronmri reconstruct` requests at 320x320 with a model
    checkpoint and ground truth, one image at a time."""

    forward_span = "training.consistent"
    items_per_op = 1
    nominal_op_s = 2.0
    # Its figures spread more between runs on a shared host than the
    # train steps do, so it runs longer than they do.
    seconds_factor = 1.2
    SIZE = 320
    fft_shape = (1, 2, SIZE, SIZE)
    IMAGES = 4
    CKPT_STEPS = 3
    min_ops = IMAGES

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def generate(self) -> list[np.ndarray]:
        """Per image: truth [2,H,W], its full k-space, and an af=8 column mask."""
        root = Rng(self.seed)
        arrays = []
        for i in range(self.IMAGES):
            truth = gen_phantom(self.SIZE, self.SIZE, SPEC.n_ellipses,
                                root.fork(20, i), dtype=np.float32)
            mask = gen_cartesian_mask(self.SIZE, AF, rng=root.fork(21, i))
            arrays += [truth.data, fft2c(truth).data, mask.sampled]
        return arrays

    def prepare(self, arrays) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        self.images = []
        for i in range(self.IMAGES):
            truth, kspace, mask = arrays[3 * i:3 * i + 3]
            paths = {tag: os.path.join(self.workdir, f"img{i}.{tag}.kten")
                     for tag in ("truth", "kspace", "mask")}
            for tag, arr in (("truth", truth), ("kspace", kspace), ("mask", mask)):
                write_kten(paths[tag], arr)
            sampled = mask.astype(bool)
            zf = ifft2c(Tensor(np.where(sampled, kspace, np.float32(0.0)))).data
            zf_loss = loss_total(Tensor(zf), Tensor(truth)).item()
            self.images.append((paths, truth, kspace, sampled, zf, zf_loss))
        # A short 64x64 training run; the fully convolutional U-Net applies
        # to 320x320 inputs unchanged.
        self.checkpoint = os.path.join(self.workdir, "checkpoint")
        model = ConsistentModel(desk_unet())
        train(model, SPEC, TrainConfig(steps=self.CKPT_STEPS, seed=MODEL_SEED,
                                       batch=BATCH, af=AF, dataset_size=BATCH))
        model.save(self.checkpoint)

    def build(self) -> None:
        self.requests = 0
        self.dc_err = 0.0
        self.psnr_by_image: dict[int, float] = {}
        self.loss_by_image: dict[int, tuple[float, float]] = {}

    def op(self, tr):
        i = self.requests % self.IMAGES
        self.requests += 1
        paths = self.images[i][0]
        out = os.path.join(self.workdir, "out")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = kronmri.cli.main(["reconstruct", "--input", paths["kspace"],
                                   "--mask", paths["mask"],
                                   "--checkpoint", self.checkpoint,
                                   "--truth", paths["truth"], "--out", out])
        if rc != 0:
            raise RuntimeError(f"reconstruct exited {rc}: {stderr.getvalue().strip()}")
        return i, stdout.getvalue(), out

    def record(self, outcome) -> None:
        i, stdout, out = outcome
        _, truth, kspace, sampled, _, zf_loss = self.images[i]
        recon = read_kten(os.path.join(out, "recon.kten"))
        if recon.shape != (2, self.SIZE, self.SIZE) or not np.all(np.isfinite(recon)):
            raise CheckFailed(f"image {i}: output shape {recon.shape} or non-finite values")
        z = recon[0].astype(np.float64) + 1j * recon[1]
        k = np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(z), norm="ortho"))
        k_in = kspace[0] + 1j * kspace[1].astype(np.float64)
        err = float(np.abs(k - k_in)[:, sampled].max() / np.abs(k_in).max())
        if err > DC_TOL:
            raise CheckFailed(f"image {i}: sampled k-space moved by {err:.2e} "
                              f"of the peak (allowed {DC_TOL:.2e})")
        self.dc_err = max(err, self.dc_err)
        report = json.loads(stdout.strip().splitlines()[-1])
        self.psnr_by_image.setdefault(i, float(report["metrics"]["psnr_db"]))
        if i not in self.loss_by_image:
            loss = loss_total(Tensor(recon), Tensor(truth)).item()
            self.loss_by_image[i] = (loss, loss / zf_loss)

    def quality(self) -> dict:
        """Means over the distinct images: the PSNR `reconstruct` reports;
        loss_end, the training loss of the reconstruction against the truth;
        and loss_end_rel, that loss over the zero-filled image's, which must
        lie below 1: the model must do better than zero filling."""
        if len(self.psnr_by_image) < self.IMAGES:
            raise CheckFailed(f"only {len(self.psnr_by_image)} of {self.IMAGES} images done")
        losses = np.array(list(self.loss_by_image.values()))
        rel = float(losses[:, 1].mean())
        if not rel < 1.0:
            raise CheckFailed(f"reconstruction loss is {rel} of the zero-filled image's")
        return {"loss_end": float(losses[:, 0].mean()),
                "loss_end_rel": rel,
                "psnr_db": float(np.mean(list(self.psnr_by_image.values()))),
                "dc_max_rel_err": self.dc_err}

    def conv_probe(self):
        zf = self.images[0][4]
        return UNet.load(self.checkpoint), Tensor(zf[None]), False


WORKLOADS = {
    "train-desk": lambda seed, wd: TrainWorkload(seed, wd, "kronecker", 2),
    "train-dense": lambda seed, wd: TrainWorkload(seed, wd, "dense", 1),
    "recon-320": ReconWorkload,
    "phm-blocks": PhmWorkload,
}


def tensor_ops() -> dict:
    """kronmri's tensor ops: every function of a kronmri module that builds
    its result through `tensor._apply` or `tensor.record_op`, keyed by
    identity, with its span name "<module>.<function>"."""
    ops = {}
    for modname, mod in list(sys.modules.items()):
        if modname != "kronmri" and not modname.startswith("kronmri."):
            continue
        for fn in vars(mod).values():
            if (isinstance(fn, types.FunctionType) and fn.__module__ == modname
                    and fn.__name__ not in ("_apply", "record_op")
                    and {"_apply", "record_op"} & set(fn.__code__.co_names)):
                ops[fn] = f"{modname.rsplit('.', 1)[-1]}.{fn.__name__}"
    return ops


@contextlib.contextmanager
def instrumented(tr):
    """Record spans around kronmri's public entry points for the duration
    of the block. Everything is patched from here and restored on exit.

    Every tensor op is a "fwd" span wherever a kronmri module refers to it,
    and every vector-Jacobian product an op records is a "bwd" span inside
    `backward`. The library calls that run no tensor op are "call" spans;
    models, layers and `backward` itself are structural spans."""
    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def method(cls, attr, name):
        patch(cls, attr, tr.wrap(vars(cls)[attr], name))

    def counted(fn, name, which):
        def wrapper(*args, **kwargs):
            with tr.span(name, "call"):
                result = fn(*args, **kwargs)
            tr.count("kten.bytes", (result if which is None else args[which]).nbytes)
            return result
        return wrapper

    apply = T._apply

    def traced_apply(name, inputs, out_data, vjp):
        return apply(name, inputs, out_data, tr.wrap(vjp, f"tensor.vjp.{name}", "bwd"))

    try:
        ops = {fn: tr.wrap(fn, name, "fwd") for fn, name in tensor_ops().items()}
        for modname, mod in list(sys.modules.items()):
            if modname == "kronmri" or modname.startswith("kronmri."):
                for attr, value in list(vars(mod).items()):
                    if isinstance(value, types.FunctionType) and value in ops:
                        patch(mod, attr, ops[value])
        patch(T, "_apply", traced_apply)
        for cls in vars(kronmri.layers).values():
            if isinstance(cls, type) and "materialize_weight" in vars(cls):
                method(cls, "materialize_weight", "layers.materialize")
        method(UNet, "__call__", "blocks.unet")
        method(ConsistentModel, "__call__", "training.consistent")
        method(WindowAttention, "__call__", "blocks.attn")
        method(PhmMlp, "__call__", "blocks.mlp")
        patch(UNet, "load", classmethod(tr.wrap(vars(UNet)["load"].__func__,
                                                "blocks.checkpoint_load")))
        cli = kronmri.cli
        patch(kronmri.blocks, "read_kten", counted(read_kten, "kten.read", None))
        patch(cli, "read_kten", counted(read_kten, "kten.read", None))
        patch(cli, "write_kten", counted(write_kten, "kten.write", 1))
        for attr, name in (("write_pgm", "kten.write_pgm"),
                           ("complex_magnitude", "kspace.magnitude"),
                           ("psnr", "metrics.psnr"), ("ssim", "metrics.ssim")):
            patch(cli, attr, tr.wrap(vars(cli)[attr], name, "call"))
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)
