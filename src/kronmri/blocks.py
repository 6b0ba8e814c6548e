"""Network blocks: a small U-Net plus window attention and MLP blocks.

Every weight-bearing layer is a Kronecker layer with the same hypercomplex
dimension n; a dense build is n=1 with the mixing frozen to [[1]], so
parameter budgets of the two builds can be compared directly. A checkpoint
is a manifest JSON, holding the config and each layer's manifest, next to
one KTEN file per parameter array; `UNet.load` builds the model from the
config and fills it from the arrays.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .kten import read_kten, write_file, write_kten, write_set
from .layers import (DENSE, KroneckerConv2d, KroneckerLinear, Module, check_sizes,
                     count_params, nested)
from .rng import Rng
from .tensor import Tensor

MANIFEST_NAME = "manifest.json"
CHECKPOINT_FORMAT = 1

# Activation gain for the U-Net body. The conv weights are drawn uniform on
# +/- sqrt(1/fan_in), which shrinks activation variance by 6x per conv+ReLU
# (3x from the draw, 2x from the rectifier), so deep features would decay
# toward zero and starve the output head. Multiplying each rectified output
# by sqrt(6) restores unit variance without adding parameters, in the style
# of normalizer-free networks that use scaled activations instead of norm
# layers.
ACT_GAIN = float(np.sqrt(6.0))


@dataclass
class UNetConfig:
    """A U-Net's shape. `n` defaults to None, the kind's own n: 1 for a
    dense build and 2 for a kronecker one. A given n is kept, so a dense
    build with n other than 1 is a ConfigError."""

    channel_multiples: list[int] = field(default_factory=lambda: [1, 2])
    base_channels: int = 8
    layer_kind: str = "kronecker"
    n: int | None = None
    in_channels: int = 2
    out_channels: int = 2

    def __post_init__(self):
        if self.n is None:
            self.n = 1 if self.layer_kind == "dense" else 2
        if not self.channel_multiples:
            raise ConfigError("channel_multiples must be non-empty")
        for m in self.channel_multiples:
            check_sizes(channel_multiple=m)
        check_sizes(base_channels=self.base_channels, n=self.n,
                    in_channels=self.in_channels, out_channels=self.out_channels)
        if not isinstance(self.layer_kind, str) or self.layer_kind not in ("dense", "kronecker"):
            raise ConfigError(f"layer_kind must be dense or kronecker, got {self.layer_kind!r}")
        if self.layer_kind == "dense" and self.n != 1:
            raise ConfigError("dense build takes n=1; n only shapes kronecker layers")

    @property
    def depth(self) -> int:
        return len(self.channel_multiples)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class AttentionConfig:
    embed_dim: int
    heads: int
    window: int
    n: int = 1

    def __post_init__(self):
        check_sizes(embed_dim=self.embed_dim, heads=self.heads, window=self.window, n=self.n)
        if self.embed_dim % self.heads:
            raise ConfigError(f"embed_dim {self.embed_dim} not divisible by heads {self.heads}")
        if self.embed_dim % self.n:
            raise ConfigError(f"embed_dim {self.embed_dim} not divisible by n {self.n}")


def unet_convs(cfg: UNetConfig):
    """(name, in, out, stride) of every U-Net conv, in call order."""
    chans = [cfg.base_channels * m for m in cfg.channel_multiples]
    yield "stem.conv1", cfg.in_channels, chans[0], 1
    yield "stem.conv2", chans[0], chans[0], 1
    for i in range(1, cfg.depth):
        yield f"down{i}.pool", chans[i - 1], chans[i], 2
        yield f"down{i}.conv1", chans[i], chans[i], 1
        yield f"down{i}.conv2", chans[i], chans[i], 1
    for i in range(cfg.depth - 1, 0, -1):
        yield f"up{i}.up", chans[i], chans[i - 1], 1
        yield f"up{i}.conv1", 2 * chans[i - 1], chans[i - 1], 1
        yield f"up{i}.conv2", chans[i - 1], chans[i - 1], 1
    yield "head", chans[0], cfg.out_channels, 1


def unet_param_counts(cfg: UNetConfig) -> list[tuple[str, int]]:
    """(name, parameters) of every U-Net conv, in call order: `count_params`
    in Python ints, so a config of any size is counted without building it."""
    train_mixing = cfg.layer_kind != "dense"
    return [(name, count_params(cfg.n, cin, cout, 9, train_mixing=train_mixing))
            for name, cin, cout, _ in unet_convs(cfg)]


class UNet(Module):
    """Encoder-decoder with skip concatenation and a residual output head.

    Downsampling is a stride-2 conv, upsampling nearest-neighbor x2 followed
    by a conv; no normalization layers. The final 3x3 head starts zeroed, so
    with in_channels == out_channels a freshly built model is the identity,
    and training learns a correction on top of its input.

    The model takes and returns [B,C,H,W]. Inside, activations are
    channels-last [B,H,W,C], the layout of `T.conv2d`: the input is
    transposed once on the way in and the head's output once on the way out.
    Without an rng every parameter starts at zero, for `load` to fill.
    """

    def __init__(self, cfg: UNetConfig, rng: Rng | None, dtype=np.float32):
        self.cfg = cfg
        self._layers = [(name, KroneckerConv2d(cin, cout, 3, cfg.n, stride=stride, padding=1,
                                               rng=rng and rng.fork(fork), dtype=dtype,
                                               **(DENSE if cfg.layer_kind == "dense" else {})))
                        for fork, (name, cin, cout, stride) in enumerate(unet_convs(cfg))]
        layers = iter(layer for _, layer in self._layers)
        self._stem = (next(layers), next(layers))
        self._downs = [(next(layers), next(layers), next(layers)) for _ in range(cfg.depth - 1)]
        self._ups = [(next(layers), next(layers), next(layers)) for _ in range(cfg.depth - 1)]
        self._head = next(layers)
        self._head.blocks.data[...] = 0.0
        self.dtype = self._head.dtype
        self.residual = cfg.in_channels == cfg.out_channels

    def __call__(self, x: Tensor) -> Tensor:
        if x.data.ndim != 4 or x.shape[1] != self.cfg.in_channels:
            raise ShapeError(f"expected [B, {self.cfg.in_channels}, H, W], got {x.shape}")
        step = 2 ** (self.cfg.depth - 1)
        if x.shape[2] % step or x.shape[3] % step:
            raise ShapeError(f"spatial dims {x.shape[2:]} must be divisible by {step}")
        # One op at a time through `h`, and each skip popped as it is
        # concatenated: nothing outlives its last reader, or under a tape
        # the last VJP that reads it. Each activation is one array: relu
        # rectifies in place the conv output that only it reads, and an
        # upsample or a skip concat is a join: only the next conv reads it,
        # from its sources, and taped gives the sources their gradients
        # (`T.conv2d`).
        h = T.transpose(x, (0, 2, 3, 1))
        for conv in self._stem:
            h = conv(h)
            h = T.relu(h, ACT_GAIN, inplace=True)
        skips = []
        for convs in self._downs:
            skips.append(h)
            for conv in convs:
                h = conv(h)
                h = T.relu(h, ACT_GAIN, inplace=True)
        for up, *convs in self._ups:
            h = T.upsample2x(h)
            h = up(h)
            h = T.relu(h, ACT_GAIN, inplace=True)
            h = T.concat([skips.pop(), h])
            for conv in convs:
                h = conv(h)
                h = T.relu(h, ACT_GAIN, inplace=True)
        h = self._head(h)
        out = T.transpose(h, (0, 3, 1, 2))
        if self.residual:
            out = T.add(out, x)
        return out

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return nested(self._layers)

    def save(self, path: str) -> None:
        """Write the checkpoint into `path` as one `kten.write_set`: each
        array, then the manifest. Array files that a checkpoint already
        there names, and this one does not, are handed to the set for
        removal; no other file is touched. A save that fails before the
        renames leaves the old checkpoint byte for byte, and one that fails
        during them leaves no manifest, so nothing that loads. A name there
        that leaves `path` is a ConfigError before any file is written."""
        entries = [{"name": name, "manifest": layer.manifest(),
                    "arrays": {aname: f"{idx:03d}_{aname}.kten" for aname in layer.arrays()}}
                   for idx, (name, layer) in enumerate(self._layers)]
        os.makedirs(path, exist_ok=True)
        keep = {fname for entry in entries for fname in entry["arrays"].values()}
        stale = [_array_path(path, fname) for fname in _named_arrays(path) - keep]
        with write_set() as ws:
            for fpath in stale:
                ws.remove(fpath)
            for entry, (_, layer) in zip(entries, self._layers):
                for aname, arr in layer.arrays().items():
                    write_kten(os.path.join(path, entry["arrays"][aname]), arr)
            write_json(os.path.join(path, MANIFEST_NAME),
                       {"format": CHECKPOINT_FORMAT, "model": "unet",
                        "config": self.cfg.to_dict(), "layers": entries})

    @classmethod
    def load(cls, path: str) -> "UNet":
        """Read a checkpoint written by `save`. Before anything is built, the
        stored layers must be the config's: the same names in order, each
        manifest declaring the parameters `unet_param_counts` gives its
        layer, and each layer's array files (`_read_arrays`) holding that
        many elements. So a config with a size the stored arrays do not
        hold (10**30 channels, say) is a ConfigError or a ShapeError, not
        an allocation. The model is then built from the stored config by
        the constructor, without an rng (zero factors, nothing drawn), in
        the first layer's dtype (float32 or float64),
        and each stored layer must be the built one: its `manifest()`
        (types included, so true is not 1). Each array is then copied into
        its view; a shape or dtype other than the view's is a ShapeError."""
        manifest = read_json_object(os.path.join(path, MANIFEST_NAME))
        fmt = manifest.get("format")  # an int: true and 1.0 equal 1 but are not format 1
        if type(fmt) is not int or fmt != CHECKPOINT_FORMAT or manifest.get("model") != "unet":
            raise ConfigError(f"not a recognizable checkpoint: {path}")
        try:
            cfg = UNetConfig(**manifest["config"])
            entries = manifest["layers"]
            dtype = entries[0]["manifest"]["dtype"]
            if dtype not in ("float32", "float64"):
                raise ConfigError(f"{path}: layer dtype {dtype!r} is not float32 or float64")
            declared = [(entry["name"], _declared_params(entry["manifest"])) for entry in entries]
            if declared != unet_param_counts(cfg):
                raise ConfigError(f"{path}: the stored layers are not those of the config")
            stored = [_read_arrays(path, entry, count)
                      for entry, (_, count) in zip(entries, declared)]
            model = cls(cfg, None, dtype)
            for entry, arrays, (name, layer) in zip(entries, stored, model._layers):
                if (json.dumps(entry["manifest"], sort_keys=True)
                        != json.dumps(layer.manifest(), sort_keys=True)):
                    raise ConfigError(f"{path}: layer {name!r} does not fit the config")
                for aname, dst in layer.arrays().items():
                    src = arrays[aname]
                    if src.shape != dst.shape or src.dtype != dst.dtype:
                        raise ShapeError(f"{path}: layer {name!r} array {aname!r} is "
                                         f"{src.dtype.name}{list(src.shape)}, the config "
                                         f"needs {dst.dtype.name}{list(dst.shape)}")
                    dst[...] = src
        except (KeyError, IndexError, TypeError, AttributeError) as err:
            raise ConfigError(f"{path}: malformed checkpoint manifest ({err!r})") from None
        return model


def _declared_params(m: dict) -> int:
    """The parameters a stored conv layer manifest declares (`count_params`);
    a dense layer's manifest has neither n nor train_mixing."""
    return count_params(m.get("n", 1), m["in_channels"], m["out_channels"],
                        m["kernel_size"] ** 2, train_mixing=m.get("train_mixing") is True)


def _read_arrays(path: str, entry: dict, count: int) -> dict[str, np.ndarray]:
    """The arrays a stored layer names, by name, read from their files in
    `path` (plain names inside it). The names must be those its manifest's
    layer has (`array_names`), else a ConfigError, and the arrays must
    hold `count` elements in all, else a ShapeError."""
    m, files = entry["manifest"], entry["arrays"]
    dense = m["kind"] == "dense_conv"
    n = 1 if dense else m["n"]
    # n > len(files) leaves too few names, and keeps a huge n from being listed
    if n > len(files) or set(files) != set(KroneckerConv2d.array_names(n, dense)):
        raise ConfigError(f"{path}: layer {entry['name']!r} does not fit the config")
    arrays = {aname: read_kten(_array_path(path, fname)) for aname, fname in files.items()}
    held = sum(a.size for a in arrays.values())
    if held != count:
        raise ShapeError(f"{path}: layer {entry['name']!r} arrays hold {held} elements, "
                         f"the config needs {count}")
    return arrays


def read_json_object(path: str) -> dict:
    """The JSON object in the file at `path`. Bytes that are not UTF-8,
    text that is not JSON (nesting too deep to parse included) and a value
    that is not an object are ConfigErrors; a file that cannot be read
    raises its OSError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as err:
        raise ConfigError(f"{path}: not valid JSON ({err})") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    return obj


def write_json(path: str, obj: dict) -> None:
    """Write `obj` to `path` as indented, key-sorted JSON, whole (`write_file`)."""
    write_file(path, (json.dumps(obj, indent=1, sort_keys=True).encode("ascii"),))


def _named_arrays(path: str) -> set:
    """Array file names the manifest in `path` lists; none if there is no
    readable checkpoint manifest."""
    try:
        manifest = read_json_object(os.path.join(path, MANIFEST_NAME))
        return {fname for entry in manifest["layers"] for fname in entry["arrays"].values()}
    except (OSError, ConfigError, KeyError, TypeError, AttributeError):
        return set()


def _array_path(path: str, fname) -> str:
    if not isinstance(fname, str) or fname in ("", ".", "..") or os.path.basename(fname) != fname:
        raise ConfigError(f"{path}: array file {fname!r} is not a name inside the checkpoint")
    return os.path.join(path, fname)


def build_unet(cfg: UNetConfig, rng: Rng, dtype=np.float32) -> UNet:
    return UNet(cfg, rng=rng, dtype=dtype)


class WindowAttention(Module):
    """Non-shifted window self-attention with factorized projections.

    Input is [batch, tokens, embed] where tokens split into consecutive
    runs of window^2 (row-major windows). Q, K, V come from three
    independent KroneckerLinear projections, attention is scaled
    dot-product per head within each window, and the output projection is
    factorized as well.
    """

    def __init__(self, cfg: AttentionConfig, rng: Rng, dtype=np.float32):
        self.cfg = cfg
        self.wq, self.wk, self.wv, self.wo = (
            KroneckerLinear(cfg.embed_dim, cfg.embed_dim, cfg.n,
                            rng=rng.fork(tag), dtype=dtype)
            for tag in range(4))

    def _split_heads(self, t: Tensor, groups: int, axes: tuple) -> Tensor:
        # [G*w2, E] -> [G, w2, heads, dh], transposed by `axes`
        cfg = self.cfg
        t = T.reshape(t, (groups, cfg.window * cfg.window, cfg.heads, cfg.embed_dim // cfg.heads))
        return T.transpose(t, axes)

    def __call__(self, x: Tensor) -> Tensor:
        cfg = self.cfg
        if x.data.ndim != 3 or x.shape[2] != cfg.embed_dim:
            raise ShapeError(f"expected [batch, tokens, {cfg.embed_dim}], got {x.shape}")
        batch, tokens, embed = x.shape
        w2 = cfg.window * cfg.window
        if tokens % w2:
            raise ShapeError(f"{tokens} tokens do not tile into windows of {w2}")
        groups = batch * (tokens // w2)
        dh = embed // cfg.heads

        flat = T.reshape(x, (batch * tokens, embed))
        q = self._split_heads(self.wq(flat), groups, (0, 2, 1, 3))  # [G, heads, w2, dh]
        kt = self._split_heads(self.wk(flat), groups, (0, 2, 3, 1))  # [G, heads, dh, w2]
        v = self._split_heads(self.wv(flat), groups, (0, 2, 1, 3))

        scores = T.mul(T.matmul(q, kt), 1.0 / np.sqrt(dh))
        ctx = T.transpose(T.matmul(T.softmax(scores), v), (0, 2, 1, 3))  # [G, w2, heads, dh]
        out = self.wo(T.reshape(ctx, (batch * tokens, embed)))
        return T.reshape(out, (batch, tokens, embed))

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return nested(zip(("wq", "wk", "wv", "wo"), (self.wq, self.wk, self.wv, self.wo)))


class PhmMlp(Module):
    """Two factorized linear layers with a ReLU between, on [batch, features]."""

    def __init__(self, features: int, hidden: int, n: int, rng: Rng,
                 dtype=np.float32):
        self.fc1 = KroneckerLinear(features, hidden, n, rng=rng.fork(0), dtype=dtype)
        self.fc2 = KroneckerLinear(hidden, features, n, rng=rng.fork(1), dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(T.relu(self.fc1(x)))

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return nested((("fc1", self.fc1), ("fc2", self.fc2)))
