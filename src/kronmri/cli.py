"""Command-line interface.

Subcommands cover dataset/mask generation, training, reconstruction,
metric reporting, parameter accounting, algebra verification and gradient
checking; timing lives in perfbench. Results go to stdout as JSON, except
the `count-params` table, which is text. Errors go to stderr as one JSON
line with exit codes 2 (config), 3 (numeric), 4 (I/O or out of memory),
and 1 for any other package error (such as a TapeError, which means
kronmri misused its own autodiff tape). A command writes its files as one
`kten.write_set`, renamed into place once all are on disk: a command that
fails before then leaves an earlier run's files as they were.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import fields

import numpy as np

from . import tensor as T
from .algebra import MAX_TRIALS, preset, verify_algebra
from .blocks import (AttentionConfig, PhmMlp, UNet, UNetConfig, WindowAttention,
                     build_unet, read_json_object, unet_param_counts, write_json)
from .errors import ConfigError, KronMriError, NumericError, ShapeError
from .kspace import (CENTER_FRACTION_DEFAULTS, apply_mask, complex_magnitude,
                     gen_cartesian_mask, ifft2c)
from .kten import read_kten, write_kten, write_pgm, write_set
from .layers import KroneckerConv2d, KroneckerLinear, check_sizes, count_params
from .losses import loss_total
from .metrics import psnr, ssim
from .rng import Rng
from .tensor import Tensor, grad_check
from .training import ConsistentModel, DatasetSpec, TrainConfig, make_sample, run


class _Parser(argparse.ArgumentParser):
    """Argparse whose usage errors are emitted as JSON on stderr."""

    def error(self, message):
        print(json.dumps({"error": "ConfigError", "message": message}),
              file=sys.stderr)
        raise SystemExit(2)


def _fmt(prog):
    # fixed width keeps --help output stable for snapshot tests
    return argparse.ArgumentDefaultsHelpFormatter(prog, width=80)


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _parse_multiples(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise ConfigError(f"bad channel multiples {text!r}; expected e.g. 1,2,4")


def _normalize_kind(kind: str) -> str:
    return "kronecker" if kind == "kron" else kind


def _load_pair(path: str) -> np.ndarray:
    arr = read_kten(path)
    if arr.ndim != 3 or arr.shape[0] != 2 or arr.size == 0:
        raise ShapeError(f"{path}: expected a non-empty [2, H, W] complex pair, "
                         f"got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NumericError(f"{path}: non-finite values")
    return arr


def _magnitude_image(path: str) -> np.ndarray:
    arr = read_kten(path)
    if arr.size and arr.ndim == 3 and arr.shape[0] == 2:
        return complex_magnitude(arr)
    if arr.size and arr.ndim == 2:
        return np.asarray(arr, dtype=np.float64)
    raise ShapeError(f"{path}: expected a non-empty [2, H, W] or [H, W], got {arr.shape}")


# ---------------------------------------------------------------- commands

# A sample file as gen-data names it, index i as f"{i:04d}".
_SAMPLE_FILE = re.compile(r"sample(\d{4}|[1-9]\d{4,})\.(?:truth|zf|mask)\.kten")


def _dataset_count(path: str) -> int:
    """The sample count an earlier `dataset.json` at `path` names; 0 if
    there is none, or it is unreadable or malformed."""
    try:
        count = read_json_object(path).get("count")
    except (OSError, ConfigError):
        return 0
    return count if type(count) is int else 0


def _stale_samples(out: str, earlier: int, count: int) -> list[str]:
    """Names of the sample files in `out` whose index an earlier dataset
    of `earlier` samples holds and one of `count` does not. The directory
    is listed, not the index range, so the work is bounded by what is
    there, whatever count the earlier manifest claims."""
    return [name for name in os.listdir(out)
            if (m := _SAMPLE_FILE.fullmatch(name)) and count <= int(m[1]) < earlier]


def cmd_gen_data(args) -> int:
    check_sizes(count=args.count)
    spec = DatasetSpec(height=args.height, width=args.width,
                       n_ellipses=args.ellipses)
    manifest = {"count": args.count, "seed": args.seed, "af": args.af,
                "height": args.height, "width": args.width,
                "ellipses": args.ellipses}
    os.makedirs(args.out, exist_ok=True)
    dataset = os.path.join(args.out, "dataset.json")
    with write_set() as ws:
        for i in range(args.count):
            s = make_sample(spec, args.af, args.seed, i)
            for tag, arr in (("truth", s.truth), ("zf", s.zf),
                             ("mask", s.mask_columns)):
                write_kten(os.path.join(args.out, f"sample{i:04d}.{tag}.kten"), arr)
        for name in _stale_samples(args.out, _dataset_count(dataset), args.count):
            ws.remove(os.path.join(args.out, name))  # an earlier, larger dataset's
        write_json(dataset, manifest)
    _emit({"written": 3 * args.count + 1, "out": args.out, **manifest})
    return 0


def cmd_gen_mask(args) -> int:
    if args.pgm and os.path.realpath(args.pgm) == os.path.realpath(args.out):
        raise ConfigError(f"--pgm {args.pgm!r} is the --out file {args.out!r}")
    mask = gen_cartesian_mask(args.width, args.af,
                              center_fraction=args.center_fraction,
                              rng=Rng(args.seed))
    with write_set():
        write_kten(args.out, mask.sampled)
        if args.pgm:
            write_pgm(args.pgm, mask.sampled[None, :], maxval=1)
    _emit({"width": mask.width, "af": mask.af,
           "center_fraction": mask.center_fraction,
           "center_columns": mask.center_columns,
           "sampled_fraction": mask.sampled_fraction,
           "out": args.out})
    return 0


def _unet_config_from_args(args) -> UNetConfig:
    return UNetConfig(channel_multiples=_parse_multiples(args.multiples),
                      base_channels=args.base,
                      layer_kind=_normalize_kind(args.layer_kind), n=args.n)


def cmd_train(args) -> int:
    ucfg = _unet_config_from_args(args)
    spec = DatasetSpec(height=args.size, width=args.size,
                       n_ellipses=args.ellipses)
    cfg = TrainConfig(**{f.name: getattr(args, f.name) for f in fields(TrainConfig)})
    _emit(run(ucfg, spec, cfg, out=args.out))
    return 0


def cmd_reconstruct(args) -> int:
    k = Tensor(_load_pair(args.input))
    truth = _load_pair(args.truth) if args.truth else None
    if args.mask:
        cols = read_kten(args.mask)
        if cols.ndim != 1:
            raise ShapeError(f"{args.mask}: expected a 1-D mask, got shape {cols.shape}")
        k = apply_mask(k, cols)
    zf = ifft2c(k).data
    model = ConsistentModel(UNet.load(args.checkpoint)) if args.checkpoint else None
    if model is not None and k.dtype != model.dtype:
        raise ShapeError(f"{args.input}: k-space is {k.dtype.name}, "
                         f"the checkpoint is {model.dtype.name}")
    recon = zf if model is None else model(Tensor(zf[None].astype(model.dtype))).data[0]
    mag = complex_magnitude(recon)
    result = {"out": args.out, "shape": list(recon.shape),
              "mode": "model" if args.checkpoint else "zero_filled"}
    if truth is not None:
        truth_mag = complex_magnitude(truth)
        dr = float(truth_mag.max())
        result["metrics"] = {"psnr_db": psnr(mag, truth_mag, dr),
                             "ssim": ssim(mag, truth_mag, dr)}
    # every input is checked before the first output is written
    os.makedirs(args.out, exist_ok=True)
    peak = float(mag.max())
    metrics_path = os.path.join(args.out, "metrics.json")
    with write_set() as ws:
        write_kten(os.path.join(args.out, "recon.kten"), recon)
        write_pgm(os.path.join(args.out, "recon.pgm"),
                  mag / peak if peak > 0 else mag, maxval=255)
        if truth is None:
            ws.remove(metrics_path)  # an earlier run's scores are not this image's
        else:
            write_json(metrics_path, result["metrics"])
    _emit(result)
    return 0


def cmd_metrics(args) -> int:
    recon = _magnitude_image(args.recon)
    truth = _magnitude_image(args.truth)
    dr = args.data_range if args.data_range is not None else float(truth.max())
    _emit({"psnr_db": psnr(recon, truth, dr), "ssim": ssim(recon, truth, dr),
           "data_range": dr})
    return 0


def _count_unet(config: dict):
    kw = {k: v for k, v in config.items()
          if k not in ("model", "layer_kind", "n")}
    kind = _normalize_kind(config.get("layer_kind", "kronecker"))
    dense = unet_param_counts(UNetConfig(**kw, layer_kind="dense"))
    rows = [(name, d, k) for (name, d), (_, k) in zip(dense, unet_param_counts(
        UNetConfig(**kw, layer_kind=kind, n=config.get("n"))))]
    return rows, sum(r[1] for r in rows), sum(r[2] for r in rows)


def _count_attention(config: dict):
    blocks = config.get("blocks", 1)
    embed = config["embed_dim"]
    n = config.get("n", 2)
    AttentionConfig(embed_dim=embed, heads=config["heads"],
                    window=config["window"], n=n)
    hidden = config.get("mlp_hidden", 2 * embed)
    check_sizes(blocks=blocks, mlp_hidden=hidden)

    def count(nn, train_mixing):
        attn = 4 * count_params(nn, embed, embed, train_mixing=train_mixing)
        mlp = (count_params(nn, embed, hidden, train_mixing=train_mixing)
               + count_params(nn, hidden, embed, train_mixing=train_mixing))
        return attn, mlp

    (dense_attn, dense_mlp), (kron_attn, kron_mlp) = count(1, False), count(n, True)
    rows = []
    for b in range(blocks):
        rows += [(f"block{b}.attn", dense_attn, kron_attn),
                 (f"block{b}.mlp", dense_mlp, kron_mlp)]
    return rows, sum(r[1] for r in rows), sum(r[2] for r in rows)


def cmd_count_params(args) -> int:
    config = read_json_object(args.config)
    model = config.get("model", "unet")
    if model == "unet":
        allowed = {f.name for f in fields(UNetConfig)}
        counter = _count_unet
    elif model == "attention":
        allowed = {f.name for f in fields(AttentionConfig)} | {"blocks", "mlp_hidden"}
        counter = _count_attention
    else:
        raise ConfigError(f"{args.config}: unknown model {model!r}")
    for key in config:
        if key != "model" and key not in allowed:
            raise ConfigError(f"{args.config}: unknown field {key!r}")
    try:
        rows, dense_total, kron_total = counter(config)
    except TypeError as err:
        raise ConfigError(f"{args.config}: {err}")
    except KeyError as err:
        raise ConfigError(f"{args.config}: missing field {err.args[0]!r}")
    width = max(len(name) for name, _, _ in rows + [("total", 0, 0)])
    print(f"{'layer':<{width}}  {'dense':>10}  {'kronecker':>10}  ratio")
    for name, d, k in rows:
        print(f"{name:<{width}}  {d:>10}  {k:>10}  {k / d:.4f}")
    print(f"{'total':<{width}}  {dense_total:>10}  {kron_total:>10}  "
          f"{kron_total / dense_total:.4f}")
    return 0


def cmd_verify_algebra(args) -> int:
    names = ["complex", "quaternion"] if args.algebra == "all" else [args.algebra]
    reports = [verify_algebra(preset(name), trials=args.trials, rng=Rng(args.seed),
                              tol=args.tol) for name in names]
    _emit({"reports": reports, "passed": all(r["passed"] for r in reports)})
    return 0


def _grad_targets(seed: int, tol: float):
    rng = Rng(seed)

    def mean_square(model, x):
        def f():
            y = model(x)
            return T.mean_(T.mul(y, y))
        return f, model.parameters(), tol

    def linear():
        layer = KroneckerLinear(8, 8, 2, rng=rng.fork(0), dtype=np.float64)
        return mean_square(layer, Tensor(rng.fork(1).uniform((3, 8), -1, 1)))

    def conv():
        layer = KroneckerConv2d(2, 4, 3, 2, padding=1, rng=rng.fork(2),
                                dtype=np.float64)
        x = rng.fork(3).uniform((1, 2, 6, 6), -1, 1)
        return mean_square(layer, Tensor(x.transpose(0, 2, 3, 1)))

    def mlp():
        block = PhmMlp(4, 8, 2, rng.fork(4), dtype=np.float64)
        return mean_square(block, Tensor(rng.fork(5).uniform((3, 4), -1, 1)))

    def attention():
        cfg = AttentionConfig(embed_dim=4, heads=2, window=2, n=2)
        block = WindowAttention(cfg, rng.fork(6), dtype=np.float64)
        return mean_square(block, Tensor(rng.fork(7).uniform((1, 4, 4), -1, 1)))

    def loss():
        xhat = Tensor(rng.fork(8).uniform((2, 6, 6), -1, 1), requires_grad=True)
        x = Tensor(rng.fork(9).uniform((2, 6, 6), -1, 1))

        def f():
            return loss_total(xhat, x)
        return f, [xhat], tol

    def unet():
        cfg = UNetConfig(channel_multiples=[1, 2], base_channels=4,
                         layer_kind="kronecker", n=2)
        model = build_unet(cfg, rng.fork(10), dtype=np.float64)
        head_rng = rng.fork(11)
        for name, p in model.named_parameters():
            if name == "head.blocks":
                p.data[...] = head_rng.uniform(p.shape, -0.3, 0.3)
            if name.endswith("bias"):
                p.data[...] = head_rng.uniform(p.shape, -0.2, 0.2)
        x = Tensor(rng.fork(12).uniform((1, 2, 8, 8), -1, 1))

        def f():
            y = model(x)
            return T.mul(T.mean_(T.mul(y, y)), 0.03125)
        return f, model.parameters(), max(tol, 1e-3)

    return {"linear": linear, "conv": conv, "mlp": mlp,
            "attention": attention, "loss": loss, "unet": unet}


def cmd_grad_check(args) -> int:
    for name, value in (("h", args.h), ("tol", args.tol)):
        if not (np.isfinite(value) and value > 0):
            raise ConfigError(f"{name} must be finite and > 0, got {value}")
    targets = _grad_targets(args.seed, args.tol)
    names = list(targets) if args.target == "all" else [args.target]
    results = []
    for name in names:
        f, params, tol = targets[name]()
        results.append({"target": name, **grad_check(f, params, h=args.h, tol=tol)})
    _emit({"reports": results, "passed": all(r["passed"] for r in results)})
    if not all(r["passed"] for r in results):
        raise NumericError("gradient check failed: " + ", ".join(
            r["target"] for r in results if not r["passed"]))
    return 0


# ----------------------------------------------------------------- parser

def build_parser() -> _Parser:
    parser = _Parser(prog="kronmri", formatter_class=_fmt,
                     description="Kronecker-factorized layers and a small "
                                 "MRI reconstruction pipeline.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("gen-data", formatter_class=_fmt,
                       help="generate a synthetic phantom dataset as KTEN files")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--count", type=int, default=8, help="number of samples")
    p.add_argument("--seed", type=int, default=0, help="dataset seed")
    p.add_argument("--af", type=int, default=8, choices=CENTER_FRACTION_DEFAULTS,
                   help="acceleration factor")
    p.add_argument("--height", type=int, default=DatasetSpec.height, help="phantom height")
    p.add_argument("--width", type=int, default=DatasetSpec.width, help="phantom width")
    p.add_argument("--ellipses", type=int, default=DatasetSpec.n_ellipses,
                   help="ellipses per phantom")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("gen-mask", formatter_class=_fmt,
                       help="generate a Cartesian column mask")
    p.add_argument("--out", required=True, help="output KTEN path")
    p.add_argument("--width", type=int, default=320, help="mask width")
    p.add_argument("--af", type=int, default=8, choices=CENTER_FRACTION_DEFAULTS,
                   help="acceleration factor")
    p.add_argument("--center-fraction", type=float, default=None,
                   help="fully sampled center fraction (default per AF)")
    p.add_argument("--seed", type=int, default=0, help="mask seed")
    p.add_argument("--pgm", default=None, help="also write a 0/1 PGM strip")
    p.set_defaults(func=cmd_gen_mask)

    p = sub.add_parser("train", formatter_class=_fmt,
                       help="train a reconstruction model on synthetic phantoms")
    p.add_argument("--out", default=None,
                   help="output directory (checkpoint, history, summary)")
    p.add_argument("--seed", type=int, default=TrainConfig.seed, help="run seed")
    p.add_argument("--steps", type=int, default=TrainConfig.steps, help="gradient steps")
    p.add_argument("--batch", type=int, default=TrainConfig.batch, help="batch size")
    p.add_argument("--af", type=int, default=TrainConfig.af,
                   choices=CENTER_FRACTION_DEFAULTS, help="acceleration factor")
    p.add_argument("--lr", type=float, default=TrainConfig.lr, help="learning rate")
    p.add_argument("--layer-kind", default="kron",
                   choices=("dense", "kron", "kronecker"), help="conv flavor")
    p.add_argument("--n", type=int, default=None,
                   help="hypercomplex dimension (default per kind: 1 for "
                        "dense, 2 for kron)")
    p.add_argument("--base", type=int, default=UNetConfig.base_channels,
                   help="base channel count")
    p.add_argument("--multiples", default="4,8,8",
                   help="comma-separated channel multiples")
    p.add_argument("--size", type=int, default=DatasetSpec.height,
                   help="phantom side length")
    p.add_argument("--ellipses", type=int, default=DatasetSpec.n_ellipses,
                   help="ellipses per phantom")
    p.add_argument("--dataset-size", type=int, default=TrainConfig.dataset_size,
                   help="training samples")
    p.add_argument("--eval-every", type=int, default=TrainConfig.eval_every,
                   help="eval cadence in steps (0 = only at the end)")
    p.add_argument("--eval-size", type=int, default=TrainConfig.eval_size,
                   help="held-out samples")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("reconstruct", formatter_class=_fmt,
                       help="reconstruct an image from k-space")
    p.add_argument("--input", required=True, help="k-space KTEN ([2, H, W])")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--mask", default=None,
                   help="column mask KTEN to apply before reconstruction")
    p.add_argument("--checkpoint", default=None,
                   help="model checkpoint directory (default: zero-filled)")
    p.add_argument("--truth", default=None,
                   help="ground-truth image KTEN for metrics")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("metrics", formatter_class=_fmt,
                       help="PSNR/SSIM between two images")
    p.add_argument("--recon", required=True, help="reconstruction KTEN")
    p.add_argument("--truth", required=True, help="ground-truth KTEN")
    p.add_argument("--data-range", type=float, default=None,
                   help="dynamic range (default: truth magnitude peak)")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("count-params", formatter_class=_fmt,
                       help="dense vs kronecker parameter table for a config")
    p.add_argument("--config", required=True, help="model config JSON path")
    p.set_defaults(func=cmd_count_params)

    p = sub.add_parser("verify-algebra", formatter_class=_fmt,
                       help="check mixing-matrix presets against their "
                            "multiplication tables")
    p.add_argument("--algebra", default="all",
                   choices=("complex", "quaternion", "all"),
                   help="preset to verify")
    p.add_argument("--trials", type=int, default=1000,
                   help=f"random trials, at most {MAX_TRIALS}")
    p.add_argument("--seed", type=int, default=0, help="trial seed")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="max allowed deviation")
    p.set_defaults(func=cmd_verify_algebra)

    p = sub.add_parser("grad-check", formatter_class=_fmt,
                       help="finite-difference gradient checks")
    p.add_argument("--target", default="all",
                   choices=("linear", "conv", "mlp", "attention", "loss",
                            "unet", "all"),
                   help="which graph to check")
    p.add_argument("--seed", type=int, default=0, help="draw seed")
    p.add_argument("--h", type=float, default=1e-6, help="difference step")
    p.add_argument("--tol", type=float, default=1e-4,
                   help="relative error tolerance")
    p.set_defaults(func=cmd_grad_check)

    return parser


# Exit code of each error class; the first class the error is an instance of wins.
_EXIT_CODES = ((ConfigError, 2), (ShapeError, 2), (NumericError, 3), (OSError, 4),
               (MemoryError, 4), (KronMriError, 1))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # A non-finite value is a NumericError from the check that meets it
        # (every op output, gradient and score is checked); numpy's warning
        # about the overflow behind it would be a second, non-JSON report.
        with np.errstate(all="ignore"):
            return args.func(args)
    except (KronMriError, OSError, MemoryError) as err:
        name = "OSError" if isinstance(err, OSError) else type(err).__name__
        print(json.dumps({"error": name, "message": str(err)}), file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(err, cls))


if __name__ == "__main__":
    sys.exit(main())
