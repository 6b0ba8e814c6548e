"""Kronecker-factorized linear and conv layers (PHM and PHC).

A layer of hypercomplex dimension n holds one mixing tensor A [n, n, n] and
one block tensor S [n, out/n, in/n, *kernel], kernel () for linear and (k, k)
for conv. Its weight sum_i kron(A[i], S[i]) is assembled by one `T.kron_sum`
per forward pass, so a linear forward is two tape ops, `kron_sum` and
`linear`, and a conv forward `kron_sum` and `conv2d`. The assembled weight
lives through the forward only: a taped `linear` or `conv2d` keeps its
`rebuild`, not the weight, and assembles it again from the factors when
its VJP runs, so a taped step holds no materialized weight between its
forward and its backward. A layer drawn from an rng trains its mixing; a
layer given its mixing keeps it frozen. A dense layer is n=1 given the
mixing [[1]] (`**DENSE`): its weight is the block itself, reshaped, with
no assembly MACs, and a VJP keeps that view of the block.

Parameter counts (`count_params`, which a layer's `param_count()` equals;
mixing counts only when trainable):
    factorized linear  n^3 + out*in/n + out
    factorized conv    n^3 + out*in*k^2/n + out
    dense linear       out*in + out
    dense conv         out*in*k^2 + out

Init: mixing, unless given, uniform on +/- 1/sqrt(n), drawn first; blocks
uniform on +/- sqrt(1/fan_in) with fan_in = in*k^2 (k=1 for linear); bias
zero. Without an rng the mixing and blocks start at zero, for a caller that
fills them (`UNet.load`).
A layer's checkpoint entry is its `manifest()` plus its `arrays()`: kind
dense_* stores weight and bias, kind kron_* A_i, then S_i for linear or F_i
for conv, and bias. `UNet.load` builds the model from its config and copies
the stored arrays into these views.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .rng import Rng
from .tensor import Tensor

DENSE = {"mixing": [[[1.0]]]}


# The largest size kronmri takes: a channel count, an image side, a sample,
# step or ellipse count. It is above every size kronmri is run or tested at;
# `check_sizes` says why it is fixed.
MAX_SIZE = 2 ** 20


def check_sizes(*, minimum: int = 1, **sizes) -> None:
    """ConfigError unless every size is a plain int in [minimum, MAX_SIZE]:
    a bool, a float or an infinity is not a size. `minimum` is 1 unless
    zero means none (0) or the size is an image side (`kspace.MIN_SIDE`).

    The cap is fixed rather than taken from the host's free memory, so a
    command exits the same way on every machine, and a size numpy cannot
    hold (10**30 channels, say) is a ConfigError before anything is
    allocated, not an OverflowError or a ValueError from numpy. It bounds
    each size alone, not their products: in-cap sizes that together need
    more memory than the host has, such as `train --base 4096`, or a
    `--batch` or `--dataset-size` near the cap, are not refused; they may
    end in a MemoryError (exit 4) or be killed by the host, which is
    untested."""
    for name, value in sizes.items():
        if type(value) is not int or not minimum <= value <= MAX_SIZE:
            raise ConfigError(f"{name} must be an integer in [{minimum}, {MAX_SIZE}], "
                              f"got {value!r}")


def count_params(n: int, in_features: int, out_features: int, taps: int = 1,
                 train_mixing: bool = True) -> int:
    """Parameters of a factorized layer with `taps` kernel positions per
    block entry; mixing counts only if it trains (`train_mixing`), so a
    dense layer is n=1 with `train_mixing=False`."""
    check_sizes(n=n, in_features=in_features, out_features=out_features, taps=taps)
    if in_features % n or out_features % n:
        raise ConfigError(
            f"n={n} must divide both in={in_features} and out={out_features}")
    mixing = n ** 3 if train_mixing else 0
    return mixing + out_features * in_features * taps // n + out_features


class Module:
    """Parameter protocol: a model defines `named_parameters()`; its
    `parameters()` and `param_count()` (the sum of their sizes) follow."""

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def param_count(self) -> int:
        return sum(p.size for p in self.parameters())


def nested(children) -> list[tuple[str, Tensor]]:
    """Named parameters of (label, module) pairs, each as "label.name"."""
    return [(f"{label}.{name}", p) for label, child in children
            for name, p in child.named_parameters()]


class _Factorized(Module):
    """Storage, init, counting and serialization shared by both layers.

    The mixing trains unless it is given (`train_mixing`). Subclasses name
    their kind suffix in `_FAMILY`, their block array prefix in `_BLOCK`,
    their size arguments in `_ARGS` (positional, before n) and `_OPTS`
    (keywords), and define `__call__`.
    """

    def __init__(self, in_features: int, out_features: int, n: int, kernel: tuple,
                 rng: Rng | None, dtype, mixing):
        taps = int(np.prod(kernel))
        count_params(n, in_features, out_features, taps)
        self.n = n
        self.train_mixing = mixing is None
        self.dtype = np.dtype(dtype)

        def draw(shape, bound):
            if rng is None:
                return np.zeros(shape, dtype=dtype)
            return rng.uniform(shape, -bound, bound, dtype=dtype)

        mixing = np.array(draw((n, n, n), 1.0 / np.sqrt(n)) if mixing is None else mixing,
                          dtype=dtype)
        if mixing.shape != (n, n, n):
            raise ShapeError(f"mixing must be {n} matrices of {n}x{n}, got {mixing.shape}")
        self.mixing = Tensor(mixing, requires_grad=self.train_mixing)
        self.dense = n == 1 and not self.train_mixing and mixing[0, 0, 0] == 1.0

        shape = (n, out_features // n, in_features // n, *kernel)
        self.blocks = Tensor(draw(shape, np.sqrt(1.0 / (in_features * taps))),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(out_features, dtype=dtype), requires_grad=True)

    @property
    def kind(self) -> str:
        return ("dense_" if self.dense else "kron_") + self._FAMILY

    def materialize_weight(self) -> Tensor:
        """The full weight; for a dense layer the block itself."""
        if self.dense:
            return T.reshape(self.blocks, self.blocks.shape[1:])
        return T.kron_sum(self.mixing, self.blocks)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        named = [("mixing", self.mixing)] if self.train_mixing else []
        return named + [("blocks", self.blocks), ("bias", self.bias)]

    def manifest(self) -> dict:
        out = {"kind": self.kind, "dtype": self.dtype.name}
        out.update({key: getattr(self, key) for key in self._ARGS + self._OPTS})
        if not self.dense:
            out.update(n=self.n, train_mixing=self.train_mixing)
        return out

    @classmethod
    def array_names(cls, n: int, dense: bool) -> list[str]:
        """The names of `arrays()` in order: weight and bias if `dense`,
        else A_i, then the blocks (S_i or F_i), then bias, i < n."""
        if dense:
            return ["weight", "bias"]
        return [*(f"A_{i}" for i in range(n)), *(f"{cls._BLOCK}_{i}" for i in range(n)), "bias"]

    def arrays(self) -> dict[str, np.ndarray]:
        """Checkpoint arrays by name, as views of the layer's storage."""
        views = [self.blocks.data[0]] if self.dense else [*self.mixing.data, *self.blocks.data]
        return dict(zip(self.array_names(self.n, self.dense), [*views, self.bias.data]))

    def __repr__(self):
        fields = ", ".join(f"{k}={v}" for k, v in self.manifest().items() if k != "kind")
        return f"{type(self).__name__}({fields}, params={self.param_count()})"


class KroneckerLinear(_Factorized):
    """Linear layer with weight W = sum_i kron(mixing[i], blocks[i])."""

    _FAMILY, _BLOCK = "linear", "S"
    _ARGS, _OPTS = ("in_features", "out_features"), ()

    def __init__(self, in_features: int, out_features: int, n: int, *,
                 rng: Rng | None = None, dtype=np.float32, mixing=None):
        self.in_features = in_features
        self.out_features = out_features
        super().__init__(in_features, out_features, n, (), rng, dtype, mixing)

    def __call__(self, x: Tensor) -> Tensor:
        if x.data.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(f"expected input [batch, {self.in_features}], got {x.shape}")
        return T.linear(x, self.materialize_weight(), self.bias)


class KroneckerConv2d(_Factorized):
    """Conv layer whose kernel is sum_i kron(mixing[i], blocks[i]); channels-last
    activations, [B,H,W,C] in and [B,Ho,Wo,O] out (see `T.conv2d`)."""

    _FAMILY, _BLOCK = "conv", "F"
    _ARGS, _OPTS = ("in_channels", "out_channels", "kernel_size"), ("stride", "padding")

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int, n: int, *,
                 stride: int = 1, padding: int = 0, rng: Rng | None = None,
                 dtype=np.float32, mixing=None):
        check_sizes(kernel_size=kernel_size, stride=stride)
        check_sizes(minimum=0, padding=padding)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        super().__init__(in_channels, out_channels, n, (kernel_size, kernel_size), rng,
                         dtype, mixing)

    def __call__(self, x: Tensor) -> Tensor:
        if len(x.shape) != 4 or x.shape[3] != self.in_channels:
            raise ShapeError(f"expected input [B, H, W, {self.in_channels}], got {x.shape}")
        w = self.materialize_weight()
        return T.conv2d(x, w, self.bias, stride=self.stride, padding=self.padding)

