"""Minimal reverse-mode autodiff over numpy arrays.

One `Tape` records one forward pass; `backward` walks it once in reverse and
returns leaf gradients. Recording is explicit: ops only build graph nodes
while a tape is active (`with Tape(): ...`), otherwise they just compute
values, which is what inference and finite differencing want.

The tape records ops, not tensors. A node holds its op's VJP closure, with
only the arrays that VJP reads, and for each input the input's node or,
for a leaf, the leaf tensor; no node or tape holds an op's output. An op
output thus lives only while the program or a VJP holds it, as without a
tape. A VJP that reads an input with a `rebuild` keeps the rebuild in
place of the array and calls it when it runs, and two kinds of result
have one. A weight assembled by `kron_sum` is computed again from its
Kronecker factors by the `conv2d` or `linear` VJP that reads it, so it
lives only through the forward and that VJP. A cheap activation, the
output of a taped `conv2d` whose im2col row is shorter than its output
row (C*k*k < O: the U-Net's first conv), is computed again by the conv's
own forward, and `relu` composes `gain*max(., 0)` onto an input's rebuild,
so the `conv2d` VJP that reads it keeps nothing the size of the activation
(the cheapest activation to recompute per byte kept first: Jain et al.,
"Checkmate", MLSys 2020). A rebuild repeats the forward's operations on
the arrays the forward read, so it is bitwise the result, and so is every
gradient. It reads those arrays when it runs: a result with a rebuild,
and the arrays its rebuild reads, must not be written between the forward
and the backward. The one exception is `relu(x, inplace=True)`, whose
output's rebuild composes x's.
`backward` sums gradients by node and frees each node's VJP and inputs as
it passes them. A taped result belongs to its tape alone: an op recorded
on one tape that reads a result of another, consumed or not, is a
TapeError.

Ops are functions; a Tensor has no operator methods and holds float32 or
float64 data only. Broadcasting is deliberately narrow: binary elementwise
ops take a tensor first, then a tensor of its shape and dtype or a Python
number (`mul(x, s)` is the one scaling op); `matmul` multiplies
activations, over equal leading axes, and `linear` is a whole linear layer,
`x @ w.T + b`, in one op; `sum_` and `mean_` reduce every element, and
`concat` joins on the last axis. Every op validates shapes and dtypes up
front and checks its output for NaN/Inf, so a numerical problem surfaces at
the op that created it.

Multiply-accumulate counts for the contraction ops (matmul, linear,
kron_sum, conv2d) accumulate into a module-level running total,
`mac_count()`; the MACs of some work are the difference of two reads
around it. A rebuild's MACs, which repeat a forward's, are not counted.

Allocation: every op output and VJP temporary is a fresh numpy array, so a
training step frees and re-allocates the same sizes step after step.
Importing this module fixes glibc's heap thresholds (mmap above 4 MiB, trim
above 32 MiB) so those arrays are reused from the heap instead of being
handed back to the kernel at the end of each step and faulted in, zeroed,
at the next; arrays of 4 MiB and more, where numpy asks for huge pages,
stay mapped and are returned on free. Where the C library has no
`mallopt`, the defaults stand.

Two exceptions keep each activation of a U-Net forward to one array.
`relu(x, gain, inplace=True)` rectifies `x.data` itself, for a caller whose
`x` has no other reader. `concat` and `upsample2x` return a join (`_Join`):
a description of a `conv2d` input, which the conv reads from the join's
sources, and nothing else. A join has no `.data` and records no node;
taped, `conv2d` records the sources as its own inputs and gives each its
gradient.

Image ops are channels-last: conv2d and upsample2x take and return
[B,H,W,C] activations, so the conv GEMM's [B*Ho*Wo, O] result is its output
with no transposing copy. The conv kernel stays [O,C,k,k], its im2col
columns keep the (c,i,j) order and its GEMM the `cols @ w.T` orientation,
so the forward stays bit-identical to a plain NCHW im2col GEMM.

How the conv forward and its VJP keep no copy of the input: see `conv2d`.
"""

from __future__ import annotations

import ctypes

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, NumericError, ShapeError, TapeError

_FLOAT_DTYPES = (np.float32, np.float64)

# The heap policy of the module docstring. glibc's default thresholds move
# with the largest block freed; a whole perfbench phm-blocks run (1200
# steps, seed 11, 2-core Xeon) took 1.25M minor page faults under them and
# 37K with these.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc <malloc.h>
_mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
if _mallopt is not None:
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(_M_MMAP_THRESHOLD, 4 << 20)
    _mallopt(_M_TRIM_THRESHOLD, 32 << 20)

_mac_total = 0


def mac_count() -> int:
    """Multiply-accumulate operations counted since import: a running total
    that is never reset, so read the MACs of some work as the difference of
    two calls around it."""
    return _mac_total


def _count_macs(n: int) -> None:
    global _mac_total
    _mac_total += int(n)


class Tensor:
    """Dense float array plus autodiff bookkeeping.

    `data` is the raw numpy buffer (row-major, float32 or float64).
    `requires_grad` marks leaves whose gradient `backward` should report;
    on op outputs it just means "participates in the recorded graph".
    `rebuild` is None, or a function that returns `data` again, bitwise,
    from the arrays the op's VJP keeps: set on a `kron_sum` result, on a
    taped cheap `conv2d` result and on a taped `relu` of one (module
    docstring).
    """

    __slots__ = ("data", "requires_grad", "node", "rebuild")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            raise ShapeError(f"unsupported tensor dtype {arr.dtype} (float32 or float64 only)")
        # ascontiguousarray promotes 0-d to 1-d; keep scalars 0-d.
        self.data = np.ascontiguousarray(arr) if arr.ndim else arr
        self.requires_grad = bool(requires_grad)
        self.node = self.rebuild = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}{flag})"


class _Join(Tensor):
    """A `concat` or `upsample2x` result: the input of a `conv2d`, and
    nothing else.

    A join is either a concat of plain parts or one upsampled source, so
    one flag, `up`, says which. `parts` are the source arrays joined in
    order on the last (channel) axis, each taken as is or, where `up`, a
    [B,h,w,C] array nearest-2x upsampled, and `sources` are the tensors they
    come from, one per part. The sources must not change while the join
    lives. `conv2d` lays its input rows straight from the parts and, taped,
    records the sources as its inputs, so a join is never built and records
    no node of its own; it requires a gradient when a source does. It has
    no `.data`: any other op given a join raises a ShapeError that names
    the join's op. The join does not scan its sources: a NaN or Inf that
    the conv reads from one reaches the conv's output, whose check
    (`_apply`) raises."""

    __slots__ = ("parts", "up", "sources", "_shape")

    def __init__(self, sources: tuple, up: bool, shape: tuple):
        self.parts = tuple(t.data for t in sources)
        self.up, self.sources, self._shape = up, sources, shape
        self.requires_grad = any(t.requires_grad for t in sources)
        self.node = self.rebuild = None

    @property
    def data(self) -> np.ndarray:
        name = "upsample2x" if self.up else "concat"
        raise ShapeError(f"the result of '{name}' is read only by conv2d; it has no data")

    @property
    def shape(self) -> tuple:
        return self._shape

    @property
    def dtype(self):
        return self.parts[0].dtype


class _Node:
    __slots__ = ("name", "inputs", "vjp", "needs", "tape")

    def __init__(self, name, inputs, vjp, needs, tape):
        self.name = name
        self.inputs = inputs
        self.vjp = vjp
        self.needs = needs
        self.tape = tape


_ACTIVE_TAPE = None


class Tape:
    """Ordered record of one forward pass; context manager sets it active."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self.consumed = False

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise TapeError("a tape is already recording; nested tapes are not supported")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False


# Elements per piece of the finiteness check on op outputs: a larger output
# is checked through one bool buffer of this size, not a mask of its own size.
_FINITE_PIECE = 1 << 18


def _all_finite(a: np.ndarray) -> bool:
    """No NaN or +-Inf in the C-contiguous `a`."""
    if a.size <= _FINITE_PIECE:
        return bool(np.all(np.isfinite(a)))
    flat = a.reshape(-1)
    mask = np.empty(_FINITE_PIECE, dtype=bool)
    for i in range(0, flat.size, _FINITE_PIECE):
        piece = flat[i:i + _FINITE_PIECE]
        if not np.isfinite(piece, out=mask[:piece.size]).all():
            return False
    return True


def _apply(name: str, inputs: tuple, out_data: np.ndarray, vjp) -> Tensor:
    """Wrap an op result, recording a node when a tape is active and an
    input needs a gradient.

    `vjp(g, needs)` must return per-input gradient arrays (None where
    `needs` is False), aligned with `inputs`.
    """
    out = Tensor(out_data)
    if not _all_finite(out.data):
        raise NumericError(f"non-finite values in output of op '{name}'")
    tape = _ACTIVE_TAPE
    if tape is None:
        return out
    if tape.consumed:
        raise TapeError("recording onto a consumed tape")
    needs, keys = [], []
    for t in inputs:
        src = t.node
        if src is not None and src.tape is not tape:
            raise TapeError(f"op '{name}': an input was recorded on another tape")
        needs.append(t.requires_grad)
        keys.append(src or t)
    if True in needs:
        node = _Node(name, tuple(keys), vjp, tuple(needs), tape)
        tape.nodes.append(node)
        out.node = node
        out.requires_grad = True
    return out


def backward(loss: Tensor) -> dict[Tensor, Tensor]:
    """Reverse sweep from a scalar loss; returns {leaf tensor: gradient}.

    The tape is single-use: a second backward over the same tape raises.
    """
    if loss.node is None:
        raise TapeError("loss is not attached to a tape (was it computed while recording?)")
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    tape = loss.node.tape
    if tape.consumed:
        raise TapeError("backward called twice on the same tape")
    tape.consumed = True

    # Gradient sums keyed by node, or by a leaf tensor itself. A node's
    # inputs were recorded before it, so its sum is complete when the loop
    # reaches it, and the keys left at the end are exactly the leaves.
    grads: dict = {loss.node: np.ones_like(loss.data)}
    for node in reversed(tape.nodes):
        g = grads.pop(node, None)
        vjp, inputs = node.vjp, node.inputs
        node.vjp = node.inputs = None  # frees what only this VJP read
        if g is None:
            continue
        for key, gk in zip(inputs, vjp(g, node.needs)):
            if gk is not None:
                grads[key] = grads[key] + gk if key in grads else gk

    out: dict[Tensor, Tensor] = {}
    for t, g in grads.items():
        out[t] = Tensor(g)
        if not _all_finite(out[t].data):
            raise NumericError("non-finite gradient for a leaf tensor")
    return out


# ---------------------------------------------------------------------------
# shape / dtype plumbing


def _as_pair(a, b, op: str):
    """Resolve the operands of a binary elementwise op: a tensor, then a
    tensor of its shape and dtype or a Python number.

    Returns (a_data, b_data, inputs); `inputs` holds only `a` when `b` is a
    number.
    """
    if not isinstance(a, Tensor):
        raise ShapeError(f"{op}: the first operand must be a Tensor, got {type(a).__name__}")
    if isinstance(b, Tensor):
        if a.data.dtype != b.data.dtype:
            raise ShapeError(f"{op}: dtype mismatch {a.data.dtype} vs {b.data.dtype}")
        if a.shape != b.shape:
            raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not match "
                             "(tensor operands must have equal shapes)")
        return a.data, b.data, (a, b)
    if not isinstance(b, (int, float)):
        raise ShapeError(f"{op}: unsupported operand type {type(b).__name__}")
    return a.data, a.data.dtype.type(b), (a,)


# ---------------------------------------------------------------------------
# elementwise ops


def add(a, b) -> Tensor:
    ad, bd, inputs = _as_pair(a, b, "add")
    out = ad + bd

    def vjp(g, needs):
        return tuple(g if need else None for need in needs)

    return _apply("add", inputs, out, vjp)


def sub(a, b) -> Tensor:
    ad, bd, inputs = _as_pair(a, b, "sub")
    out = ad - bd

    def vjp(g, needs):
        if len(needs) == 1:
            return (g,)
        return (g if needs[0] else None, -g if needs[1] else None)

    return _apply("sub", inputs, out, vjp)


def mul(a, b) -> Tensor:
    ad, bd, inputs = _as_pair(a, b, "mul")
    out = ad * bd

    def vjp(g, needs):
        if len(needs) == 1:
            return (g * bd,)
        return (g * bd if needs[0] else None, g * ad if needs[1] else None)

    return _apply("mul", inputs, out, vjp)


def relu(x: Tensor, gain: float = 1.0, inplace: bool = False) -> Tensor:
    """`gain * max(x, 0)`: one fresh buffer scaled in place, bit for bit
    `mul(relu(x), gain)` in value and gradient.

    With `inplace`, `x.data` itself is rectified and becomes the output, so
    no buffer is made. Only a caller whose `x` has no other reader may ask
    for it, with or without a tape: the U-Net's conv outputs, say, which no
    VJP keeps (the conv VJP keeps its input).

    Where `x` has a `rebuild` and the output a tape node, the output's
    rebuild is x's followed by the same `gain * max(., 0)`, so bitwise the
    output; in place, `x.rebuild` is cleared, since `x.data` now holds the
    output. A conv VJP that reads the output keeps that rebuild, not the
    array.

    While a tape records, the VJP keeps the mask `x > 0` packed to one bit
    per element (`np.packbits`, ceil(x.size / 8) bytes), not `x`, so a taped
    `x` lives only as long as the program holds it. The output cannot stand
    in for the mask: for a gain <= 0 its sign does not tell whether x > 0."""
    s = x.data.dtype.type(gain)
    bits = np.packbits(x.data > 0) if _ACTIVE_TAPE is not None else None

    def forward(a, out):
        out = np.maximum(a, 0, out=out)
        out *= s
        return out

    out = forward(x.data, x.data if inplace else None)
    shape = x.shape

    def vjp(g, needs):
        gx = g * s
        gx *= np.unpackbits(bits, count=g.size).view(bool).reshape(shape)
        return (gx,)

    res = _apply("relu", (x,), out, vjp)
    inner = x.rebuild
    if inner is not None and res.node is not None:
        def rebuild():
            a = inner()
            return forward(a, a)

        res.rebuild = rebuild
        if inplace:  # x.data is now the output, which x's own rebuild does not give
            x.rebuild = None
    return res


def sqrt_(x: Tensor) -> Tensor:
    """Elementwise square root; differentiable only for strictly positive input."""
    if np.any(x.data < 0):
        raise NumericError("sqrt of negative value")
    out = np.sqrt(x.data)

    def vjp(g, needs):
        return (g * (0.5 / out),)

    return _apply("sqrt", (x,), out, vjp)


# ---------------------------------------------------------------------------
# contractions


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """[..., m, k] x [..., k, n] -> [..., m, n]: one product per index of
    the leading axes, which must be equal, at equal rank (no broadcasting)."""
    if a.data.ndim < 2 or a.data.ndim != b.data.ndim or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul expects [..., m, k] and [..., k, n] operands with "
                         f"equal leading axes, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} vs {b.shape}")
    if a.data.dtype != b.data.dtype:
        raise ShapeError(f"matmul dtype mismatch {a.data.dtype} vs {b.data.dtype}")
    _count_macs(a.size * b.shape[-1])  # prod(lead) * m * k * n
    out = a.data @ b.data
    ad, bd = a.data, b.data

    def vjp(g, needs):
        ga = g @ bd.swapaxes(-1, -2) if needs[0] else None
        gb = ad.swapaxes(-1, -2) @ g if needs[1] else None
        return (ga, gb)

    return _apply("matmul", (a, b), out, vjp)


def kron_sum(mixing: Tensor, blocks: Tensor) -> Tensor:
    """Sum of Kronecker products, sum_i kron(mixing[i], blocks[i]):
    [m,p,q] x [m,r,s,*kernel] -> [p*r, q*s, *kernel].

    Trailing kernel axes of the blocks ride along, so one op assembles a
    linear weight ([r,s] blocks) or a conv kernel ([r,s,k,k] blocks). The
    m terms are contracted in one matmul rather than summed one by one.

    The VJP keeps views of the two factors, no copy. The result's
    `rebuild` computes it again from the same views by the same product
    and transposing copy, so the rebuilt array is bitwise this one; a
    taped `conv2d` or `linear` keeps that function instead of the weight
    (Chen et al., "Training Deep Nets with Sublinear Memory Cost", 2016).
    Like this op's VJP, a rebuild reads the factors when it runs: they
    must not change between the forward and the backward that reads them.
    """
    if mixing.data.ndim != 3 or blocks.data.ndim < 3 or mixing.shape[0] != blocks.shape[0]:
        raise ShapeError(f"kron_sum expects [m,p,q] and [m,r,s,...] operands, "
                         f"got {mixing.shape} and {blocks.shape}")
    if mixing.size == 0 or blocks.size == 0:
        raise ShapeError(f"kron_sum needs non-empty operands (at least one term), "
                         f"got {mixing.shape} and {blocks.shape}")
    if mixing.data.dtype != blocks.data.dtype:
        raise ShapeError(f"kron_sum dtype mismatch {mixing.data.dtype} vs {blocks.data.dtype}")
    m, p, q = mixing.shape
    _, r, s, *kernel = blocks.shape
    _count_macs(p * q * blocks.size)
    ad = mixing.data.reshape(m, p * q)
    bd = blocks.data.reshape(m, -1)

    def rebuild():
        # [p*q, r*s*K] -> [p, r, q, s, K]: row block u, column block v.
        out = (ad.T @ bd).reshape(p, q, r, s, -1).transpose(0, 2, 1, 3, 4)
        return out.reshape((p * r, q * s, *kernel))

    def vjp(g, needs):
        gt = g.reshape(p, r, q, s, -1).transpose(0, 2, 1, 3, 4).reshape(p * q, -1)
        ga = (bd @ gt.T).reshape(m, p, q) if needs[0] else None
        gb = (ad @ gt).reshape(m, r, s, *kernel) if needs[1] else None
        return (ga, gb)

    out = _apply("kron_sum", (mixing, blocks), rebuild(), vjp)
    out.rebuild = rebuild
    return out


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """A linear layer in one op, `x @ w.T + b`: [B,F] input, [O,F] weight
    and [O] bias give [B,O].

    `np.matmul(x, w.T)` hands the weight to BLAS with its transpose flag, so
    no transposed copy is made, and the bias is added in place. The VJP
    gives `g @ w`, `g.T @ x` and the column sums of `g`. It keeps `x.data`
    and `w.data`, except that a `kron_sum` weight is not kept but rebuilt
    (`w.rebuild`) when `g @ w` is needed."""
    if x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1:
        raise ShapeError(f"linear expects [B,F], [O,F] and [O] operands, "
                         f"got {x.shape}, {w.shape} and {b.shape}")
    if x.shape[1] != w.shape[1] or b.shape[0] != w.shape[0]:
        raise ShapeError(f"linear: input {x.shape}, weight {w.shape} and bias {b.shape} "
                         "do not fit [B,F] x [O,F] + [O]")
    if not x.data.dtype == w.data.dtype == b.data.dtype:
        raise ShapeError(f"linear dtype mismatch {x.data.dtype}, {w.data.dtype} "
                         f"and {b.data.dtype}")
    _count_macs(x.size * w.shape[0])  # B * F * O
    xd, rebuild = x.data, w.rebuild
    wd = w.data if rebuild is None else None
    out = np.matmul(xd, w.data.T)
    out += b.data

    def vjp(g, needs):
        gx = g @ (wd if rebuild is None else rebuild()) if needs[0] else None
        gw = g.T @ xd if needs[1] else None
        gb = g.sum(axis=0) if needs[2] else None
        return (gx, gw, gb)

    return _apply("linear", (x, w, b), out, vjp)


# Fewest output pixels in one GEMM block of the conv2d forward. On
# OpenBLAS 0.3.31 (a DYNAMIC_ARCH build that picked its SkylakeX kernels at
# run time, as `scipy_openblas_get_corename64_` reports; 2 threads, 2-core
# Xeon) row blocks of 1024 or more gave products bitwise equal to one whole
# GEMM for every O >= 2 tried (768 shapes, float32 and float64, with C- and
# with F-ordered blocks); blocks of 32-960 rows did not, the two-column head
# among them. An F-ordered operand of 700 rows or fewer also rounded unlike
# a C-ordered one in 188 of 768 shapes of 32-1000 rows. O = 1 runs as a
# GEMV and may differ in the last bits. The claim holds for that kernel
# only: with the same library forced to its Haswell kernels
# (OPENBLAS_CORETYPE=Haswell), 10 cases of
# `test_streamed_forward_is_bitwise_the_whole_im2col_gemm` fail (the State
# table in ROADMAP.md).
_GEMM_BLOCK_ROWS = 1024

# Byte budget of one block of shifted-gradient rows in the conv2d VJP
# (`_phase_vjp`). On a 2-core Xeon, blocks of 0.5 to 8 MiB timed alike for
# the desk U-Net's training step, and the block sits inside the VJP where a
# taped step peaks: at 0.5 MiB the tracemalloc peak of a taped desk step
# (forward and backward, relu masks as bits, output gradient laid a block
# at a time) read 21.7 MiB, against 23.3 MiB at 2 MiB.
_SHIFT_BLOCK_BYTES = 1 << 19


def _lay_rows(parts: tuple, up: bool, b: int, a: int, dst: np.ndarray) -> None:
    """Lay input rows a .. a+T-1 of image b channel-major into `dst`
    [C, T, W], the input being the channel join of `parts`, upsampled
    where `up` (see `_Join`).

    A plain part is one transposing copy. An upsampled part is four, one
    per output phase (dy, dx): the rows t of `dst` with a+t = dy mod 2 and
    every other column from dx take consecutive source rows from (a+t)//2.
    """
    c0 = 0
    for src in parts:
        c1 = c0 + src.shape[3]
        if not up:
            dst[c0:c1] = src[b, a:a + dst.shape[1]].transpose(2, 0, 1)
        else:
            for dy in (0, 1):
                t = (dy - a) % 2
                q, n = (a + t) // 2, len(range(t, dst.shape[1], 2))
                for dx in (0, 1):
                    dst[c0:c1, t::2, dx::2] = src[b, q:q + n].transpose(2, 0, 1)
        c0 = c1


def _row_windows(parts: tuple, up: bool, hw: tuple, padding: int, s: int, ho: int,
                 r0: int, r1: int, rows: np.ndarray, out: np.ndarray) -> None:
    """Gather the im2col operand of output image rows r0..r1 into `out`.

    The input, [B,H,W,C] with (H, W) = `hw`, is the channel join of
    `parts`, upsampled where `up`, read where it lies: a skip concat or a
    2x upsample is never built for the conv. Output image row r is row
    r % Ho of image r // Ho, so a range may cross images. An image's share
    of n rows from row y reads the zero-padded input rows
    s*y .. s*(y+n-1)+k-1, which
    `_lay_rows` lays channel-major into `rows` ([C, s*(n-1)+k, Wp],
    reused); rows in the padding are zeroed, and the padding columns are
    never written, so they keep the zeros the buffer was made with. `out`
    is [C, k, k, r1-r0, Wo]: read as `out.reshape(C*k*k, -1).T` it is the
    F-ordered im2col block, one row per output pixel and its columns in
    (c, i, j) order. Tap (i, j) of an image's share is one copy of C x n
    runs of Wo values, every s-th row and column of `rows` from (i, j).
    """
    k, wo = out.shape[1], out.shape[4]
    h, wd = hw
    r = r0
    while r < r1:
        b, y = divmod(r, ho)
        n = min(r1 - r, ho - y)
        p = rows[:, :s * (n - 1) + k]
        a = s * y - padding  # input row of p's row 0
        t0, t1 = max(0, -a), min(p.shape[1], h - a)
        p[:, :t0] = 0
        p[:, max(t0, t1):] = 0
        if t1 > t0:
            _lay_rows(parts, up, b, a + t0, p[:, t0:t1, padding:padding + wd])
        dst = out[:, :, :, r - r0:r - r0 + n]
        for i in range(k):
            for j in range(k):
                dst[:, i, j] = p[:, i:i + s * (n - 1) + 1:s, j:j + s * (wo - 1) + 1:s]
        r += n


def _phase_vjp(g: np.ndarray, w: np.ndarray, start: tuple,
               parts: list, up: bool, need_w: bool) -> np.ndarray | None:
    """Both gradients of a stride-1 cross-correlation of one plane grid
    [B,Hu,Wu,C] with w [O,C,ka,kb], from its output gradient g [B,Ho,Wo,O].

    Only the grid's input pixels are visited. They are the channel join of
    `parts`, (xv, gxv) pairs in channel order: `xv` holds a part's pixels,
    [B,hx,wx,Cp], or where `up` its [B,hx/2,wx/2,Cp] source, nearest-2x
    upsampled; `gxv` (xv's shape) receives their input gradient unless it
    is None. `start` (u0, v0) is the grid pixel of input pixel (0, 0); the
    grid's padding pixels contribute to neither gradient. Returns the
    kernel gradient if `need_w`.

    Laid on one image's grid, output pixel (oy, ox) at grid pixel
    (oy, ox) and zero wherever the grid has no output pixel, g makes tap
    (a, b) a 2-D shift: S[u, v, a', b'] = grid[u + a'-ka+1, v + b'-kb+1]
    is the gradient of the output pixel that reads grid pixel (u, v)
    through tap (ka-1-a', kb-1-b'), or zero where no output pixel lies.
    The VJP runs over blocks of input rows y0..y1 of one image b
    (`_SHIFT_BLOCK_BYTES`). Each block lays only the grid rows its S
    reads, u0+y0-ka+1 .. u0+y1-1, into one reused 2-D buffer
    [rows+ka-1, kb-1+max(Wo, v0+wx), O], grid column v at buffer column
    kb-1+v; rows outside [0, Ho), the kb-1 columns before the grid and the
    columns from Wo are zero. The block's S is a read-only window view of
    that buffer (`sliding_window_view`, (ka, kb) windows, from column v0),
    copied into a second reused buffer (runs of kb*O contiguous values).
    Each block then gives each part its rows of the input gradient,
    `S @ wflip` over the part's columns of the kernel flipped to
    [ka*kb*O, C], and adds `S.T @ xrows`, its pixels read from `xv`, to the
    part's columns of the flipped kernel gradient, [ka*kb*O, C] (on
    OpenBLAS's SkylakeX kernels bitwise the transpose of `xrows.T @ S`, and
    faster). Where `up`, S is summed 2x2, one row per source pixel: that sum
    is the transpose of nearest upsampling, so the same two GEMMs on it give
    the source's gradients, at a quarter of the MACs. The buffer's rows are
    summed 2x2 once into a third reused buffer, in the order
    ((g[r,q] + g[r,q+1]) + g[r+1,q]) + g[r+1,q+1], and the summed S is a
    stride-2 window view of that, copied. No array the size of g is made.
    """
    bsz, ho, wo, o = g.shape
    ka, kb = w.shape[2:]
    u0, v0 = start
    _, hx, wx, _ = parts[0][0].shape
    if up:
        hx, wx = 2 * hx, 2 * wx
    kko = ka * kb * o
    rows = max(1, _SHIFT_BLOCK_BYTES // (max(wx, 1) * kko * g.itemsize))
    if up:  # whole 2x2 blocks: rows and columns come in pairs
        rows = max(2, rows - rows % 2)
    f = 2 if up else 1
    most = max(1, min(rows, hx))  # a phase may hold no input row (h=1, stride 2)
    # Grid rows of the largest block, behind kb-1 zero columns. Only grid
    # columns < Wo are ever written, so the rest keep the zeros the buffer
    # is made with.
    gbuf = np.zeros((most + ka - 1, kb - 1 + max(wo, v0 + wx), o), dtype=g.dtype)
    grows = gbuf[:, kb - 1:kb - 1 + wo]
    if up:  # box[r, q]: the 2x2 sum of gbuf from (r, v0 + q)
        box = np.empty((most + ka - 2, wx + kb - 2, o), dtype=g.dtype)
        shifted = sliding_window_view(box, (ka, kb), axis=(0, 1))[::2, ::2]
    else:
        shifted = sliding_window_view(gbuf, (ka, kb), axis=(0, 1))[:, v0:v0 + wx]
    shifted = shifted.transpose(0, 1, 3, 4, 2)
    sbuf = np.empty((most // f, wx // f, ka, kb, o), dtype=g.dtype)
    wflip = None if all(gxv is None for _, gxv in parts) else np.ascontiguousarray(
        w[:, :, ::-1, ::-1].transpose(2, 3, 0, 1)).reshape(kko, -1)
    acc = np.zeros((kko, w.shape[1]), dtype=g.dtype) if need_w else None
    for b in range(bsz):
        for y0 in range(0, hx, rows):
            y1 = min(hx, y0 + rows)
            n = y1 - y0
            r0, r1 = u0 + y0 - (ka - 1), u0 + y1  # the grid rows S reads, from grows[0]
            lo = max(r0, 0)
            hi = max(lo, min(r1, ho))
            grows[:lo - r0] = 0
            grows[lo - r0:hi - r0] = g[b, lo:hi]
            grows[hi - r0:r1 - r0] = 0
            if up:
                m, q1 = n + ka - 2, v0 + wx + kb - 2
                np.add(gbuf[:m, v0:q1], gbuf[:m, v0 + 1:q1 + 1], out=box[:m])
                box[:m] += gbuf[1:m + 1, v0:q1]
                box[:m] += gbuf[1:m + 1, v0 + 1:q1 + 1]
            blk = sbuf[:n // f]
            np.copyto(blk, shifted[:n // f])
            blk = blk.reshape(-1, kko)
            c0 = 0
            for xv, gxv in parts:
                c1 = c0 + xv.shape[3]
                if gxv is not None:
                    dst = gxv[b, y0 // f:y1 // f]
                    if dst.flags.c_contiguous:
                        np.matmul(blk, wflip[:, c0:c1], out=dst.reshape(-1, c1 - c0))
                    else:
                        dst[...] = (blk @ wflip[:, c0:c1]).reshape(dst.shape)
                if acc is not None:
                    acc[:, c0:c1] += blk.T @ xv[b, y0 // f:y1 // f].reshape(-1, c1 - c0)
                c0 = c1
    if acc is None:
        return None
    return acc.reshape(ka, kb, o, -1)[::-1, ::-1].transpose(2, 3, 0, 1)


def conv2d(x: Tensor, w: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation, channels-last: [B,H,W,C] input and [O,C,k,k]
    kernel give a [B,Ho,Wo,O] output.

    Output spatial size is floor((H + 2*padding - k) / stride) + 1 per axis.
    An empty batch, channel or output-channel axis is a ShapeError.

    Nothing the size of the input is copied or kept. The forward runs over
    blocks of whole image rows, as equal as can be and each of at least
    `_GEMM_BLOCK_ROWS` output pixels, with or without a tape. For each
    image's share of a block, the zero-padded input rows it reads are laid
    channel-major into one reused [C, s*(rows-1)+k, Wp] buffer by one
    transposing copy; a `concat` or `upsample2x` input (`_Join`) is laid
    from its sources, so it is never built, and the GEMM operand is the
    same. The block's im2col operand is gathered from there
    into one reused [C,k,k,rows,Wo] buffer (`_row_windows`), one strided
    copy per tap; read as [C*k*k, rows*Wo] and transposed it is the
    F-ordered [rows*Wo, C*k*k] im2col block with (c,i,j) columns, and
    `np.matmul(block, w.reshape(O, C*k*k).T)` hands it to BLAS with a
    transpose flag, straight into its rows of the [B*Ho*Wo, O] output,
    bias added in place. No whole im2col matrix is ever built.

    The output stays bitwise that of one C-ordered `cols @ w.T` GEMM over
    the whole batch, because BLAS rounds a product by how it blocks it.
    On OpenBLAS 0.3.31 with its SkylakeX kernels (chosen at run time),
    blocks of 1024 rows or more come out bitwise as the rows of the one
    whole GEMM for O >= 2, with the operand C- or F-ordered; smaller blocks
    do not. Other kernels block differently (see `_GEMM_BLOCK_ROWS`). A conv of fewer than 1024 output
    pixels is one block, and there OpenBLAS's small-matrix path rounds a
    transposed operand unlike a plain one, so that block is copied to C
    order before its GEMM. The K order and the GEMM orientation are fixed
    for the same reason: any other order changes float32 outputs in the
    last bits, and saved fixtures pin them.

    The VJP keeps only the input's arrays and `w.data`, the arrays it
    reads, and the tape keeps them only until `backward` has run the VJP;
    where the kernel or a plain (not join) input has a `rebuild` (a
    `kron_sum` kernel, a cheap conv's relu output), the VJP keeps that
    instead and calls it when it starts. Taped, a conv whose im2col row is
    shorter than its output row (C*k*k < O) gives its result a rebuild: the
    same local forward run again on what the VJP keeps, so bitwise the
    output, at C*k*k MACs per value where the activation keeps O values per
    pixel. A join's arrays are its sources': the node
    records the sources in x's place and gives each its own gradient. With
    stride s, padded pixel (s*u + py, s*v + px) is pixel (u, v) of phase plane
    (py, px), and output pixel (oy, ox) reads that plane only through the
    taps (py + s*a, px + s*b), at plane pixel (oy + a, ox + b), so each
    phase is a stride-1 correlation of its plane with that sub-kernel. Its
    output gradient lies on the plane's 2-D grid, pixel (oy, ox) at grid
    pixel (oy, ox), and no whole grid is built: `_phase_vjp` takes g itself
    and lays, a block of input rows at a time, only the grid rows that
    block's shifted output gradient S reads, into a 2-D buffer with zero
    borders whose (k, k) window view is S. It gives both of a phase's
    gradients from S, indexed by the phase's input pixels
    x[:, y0::s, x0::s]: a padding pixel
    contributes to neither gradient. Stride 1 is one phase, the whole
    input, whose kernel-gradient rows are a reshape of `x` and whose
    input-gradient rows are written straight into the gradient; a phase no
    tap reads (s > k) gets zero input gradient. A concat's source takes its
    input gradient from its own columns of the flipped kernel and gives
    the kernel-gradient rows of its own channels. An upsampled source never
    meets its full-resolution gradient: nearest 2x upsampling U is
    transposed by summing each 2x2 block, so with P = U.T @ S the source's
    input gradient U.T @ (S @ wflip) is P @ wflip and its kernel-gradient
    share (U @ src).T @ S is src.T @ P, two GEMMs at a quarter of the MACs.
    That holds at stride 1 only, so an `upsample2x` input at a larger
    stride is a ShapeError.
    """
    if len(x.shape) != 4 or w.data.ndim != 4:
        raise ShapeError(f"conv2d expects [B,H,W,C] and [O,C,k,k], got {x.shape} and {w.shape}")
    if x.dtype != w.data.dtype:
        raise ShapeError(f"conv2d dtype mismatch {x.dtype} vs {w.data.dtype}")
    bsz, h, wd, c = x.shape
    o, cw, kh, kw = w.shape
    for size, axis in ((bsz, "batch"), (c, "channel"), (o, "output-channel")):
        if size == 0:
            raise ShapeError(f"conv2d: empty {axis} axis in input {x.shape}, kernel {w.shape}")
    if cw != c:
        raise ShapeError(f"conv2d channel mismatch: input has {c}, kernel expects {cw}")
    if kh != kw:
        raise ShapeError(f"conv2d kernels must be square, got {kh}x{kw}")
    if stride < 1 or padding < 0:
        raise ShapeError(f"conv2d: bad stride/padding ({stride}, {padding})")
    parts, up, srcs = ((x.parts, x.up, x.sources) if isinstance(x, _Join)
                       else ((x.data,), False, (x,)))
    if up and stride > 1:
        raise ShapeError(f"conv2d of an upsample2x result takes stride 1, got {stride}")
    k = kh
    hp, wp = h + 2 * padding, wd + 2 * padding
    if k > hp or k > wp:
        raise ShapeError(f"conv2d kernel {k} exceeds padded input {hp}x{wp}")
    ho = (hp - k) // stride + 1
    wo = (wp - k) // stride + 1
    if bias is not None:
        if bias.data.ndim != 1 or bias.shape[0] != o:
            raise ShapeError(f"conv2d bias must be [O]={o}, got {bias.shape}")
        if bias.data.dtype != x.dtype:
            raise ShapeError("conv2d bias dtype mismatch")

    _count_macs(bsz * o * ho * wo * c * k * k)
    dtype = x.dtype
    # Blocks of output image rows whose sizes differ by one row at most,
    # each of at least `per` rows unless there is only one.
    nrows = bsz * ho
    per = -(-_GEMM_BLOCK_ROWS // wo)
    nblk = max(1, nrows // per)
    bounds = [nrows * i // nblk for i in range(nblk + 1)]
    most = -(-nrows // nblk)  # rows of the largest block
    ckk = c * k * k
    bd = None if bias is None else bias.data

    def forward(parts, wt):
        buf = np.empty(ckk * most * wo, dtype=dtype)
        rows = np.zeros((c, stride * (min(most, ho) - 1) + k, wp), dtype=dtype)
        wr = wt.reshape(o, ckk)
        out = np.empty((nrows * wo, o), dtype=dtype)
        for r0, r1 in zip(bounds, bounds[1:]):
            blk = buf[:ckk * (r1 - r0) * wo].reshape(c, k, k, r1 - r0, wo)
            _row_windows(parts, up, (h, wd), padding, stride, ho, r0, r1, rows, blk)
            cols = blk.reshape(ckk, -1).T
            if cols.shape[0] < _GEMM_BLOCK_ROWS:  # small: a transposed operand rounds otherwise
                cols = np.ascontiguousarray(cols)
            dst = out[r0 * wo:r1 * wo]
            np.matmul(cols, wr.T, out=dst)
            if bd is not None:
                dst += bd
        return out.reshape(bsz, ho, wo, o)

    # What the VJP keeps: each array, or in its place a rebuild.
    x_again = None if isinstance(x, _Join) else x.rebuild
    w_again = w.rebuild
    kept_parts = parts if x_again is None else None
    kept_w = w.data if w_again is None else None
    shapes = [a.shape for a in parts]
    phases = min(stride, k)
    nparts = len(parts)
    inputs = (*srcs, w) if bias is None else (*srcs, w, bias)

    def vjp(g, needs):
        # Every input pixel is in a phase a tap reads unless s > k.
        gxs = [(np.empty if stride <= k else np.zeros)(shape, dtype=g.dtype) if need else None
               for shape, need in zip(shapes, needs)]
        need_w = needs[nparts]
        gw = np.zeros((o, c, k, k), dtype=g.dtype) if need_w else None
        if need_w or any(needs[:nparts]):
            xs = kept_parts if x_again is None else (x_again(),)
            wt = kept_w if w_again is None else w_again()
            for py in range(phases):
                y0 = (py - padding) % stride
                for px in range(phases):
                    x0 = (px - padding) % stride
                    ws = wt[:, :, py::stride, px::stride]
                    views = [(a[:, y0::stride, x0::stride],
                              None if gx is None else gx[:, y0::stride, x0::stride])
                             for a, gx in zip(xs, gxs)]
                    gws = _phase_vjp(g, ws, ((y0 + padding) // stride, (x0 + padding) // stride),
                                     views, up, need_w)
                    if need_w:
                        gw[:, :, py::stride, px::stride] = gws
        if len(needs) == nparts + 1:  # no bias
            return (*gxs, gw)
        return (*gxs, gw, g.reshape(-1, o).sum(axis=0) if needs[-1] else None)

    out = _apply("conv2d", inputs, forward(parts, w.data), vjp)
    if out.node is not None and ckk < o:
        def rebuild():  # from what the VJP keeps
            return forward(kept_parts if x_again is None else (x_again(),),
                           kept_w if w_again is None else w_again())

        out.rebuild = rebuild
    return out


# ---------------------------------------------------------------------------
# reductions and shape ops


def sum_(x: Tensor) -> Tensor:
    """The sum of every element, a 0-d tensor."""
    in_shape = x.shape

    def vjp(g, needs):
        return (np.full(in_shape, g),)

    return _apply("sum", (x,), x.data.sum(), vjp)


def mean_(x: Tensor) -> Tensor:
    """The mean of every element, a 0-d tensor."""
    in_shape = x.shape
    count = x.data.dtype.type(x.size)

    def vjp(g, needs):
        return (np.full(in_shape, g / count),)

    return _apply("mean", (x,), x.data.sum() / count, vjp)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    try:
        out = x.data.reshape(shape)
    except ValueError as e:
        raise ShapeError(f"reshape {x.shape} -> {shape}: {e}") from None
    in_shape = x.shape

    def vjp(g, needs):
        return (g.reshape(in_shape),)

    return _apply("reshape", (x,), out, vjp)


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(x.data.ndim)):
        raise ShapeError(f"transpose: {axes} is not a permutation of rank {x.data.ndim}")
    out = x.data.transpose(axes)
    inv = tuple(np.argsort(axes))

    def vjp(g, needs):
        return (np.ascontiguousarray(g.transpose(inv)),)

    return _apply("transpose", (x,), np.ascontiguousarray(out), vjp)


def concat(parts) -> Tensor:
    """Join tensors of one dtype on their last axis; every other axis must
    match. The result is a `conv2d` input only (`_Join`)."""
    parts = tuple(parts)
    if not parts or any(len(t.shape) == 0 for t in parts):
        raise ShapeError(f"concat needs one or more parts of rank >= 1, "
                         f"got shapes {[t.shape for t in parts]}")
    if any(t.dtype != parts[0].dtype for t in parts):
        raise ShapeError(f"concat: dtype mismatch {[t.dtype.name for t in parts]}")
    if any(t.shape[:-1] != parts[0].shape[:-1] for t in parts):
        raise ShapeError(f"concat: shapes {[t.shape for t in parts]} differ "
                         "off the last axis")
    return _Join(parts, False, (*parts[0].shape[:-1], sum(t.shape[-1] for t in parts)))


def upsample2x(x: Tensor) -> Tensor:
    """Nearest-neighbour 2x spatial upsampling, channels-last [B,H,W,C].
    The result is a stride-1 `conv2d` input only (`_Join`)."""
    if x.data.ndim != 4:
        raise ShapeError(f"upsample2x expects [B,H,W,C], got {x.shape}")
    bsz, h, w, c = x.shape
    return _Join((x,), True, (bsz, 2 * h, 2 * w, c))


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    if x.data.ndim == 0 or x.shape[-1] == 0:
        raise ShapeError(f"softmax needs a non-empty last axis, got shape {x.shape}")
    xd = x.data
    # The row max over the transposed rows' first axis: numpy reduces a short
    # last axis slowly (268 of 385 us per call at the phm-blocks scores'
    # [128,16,16], numpy 2.4.6 on a 2-core Xeon, against 33 us this way), and
    # a max is exact, so the value is bitwise `xd.max(axis=-1, keepdims=True)`.
    top = np.ascontiguousarray(xd.reshape(-1, xd.shape[-1]).T).max(axis=0)
    shifted = xd - top.reshape(*xd.shape[:-1], 1)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def vjp(g, needs):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - inner),)

    return _apply("softmax", (x,), out, vjp)


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(f, params: list[Tensor], h: float = 1e-6, tol: float = 1e-4) -> dict:
    """Compare tape gradients of `f()` against central differences.

    `f` is a closure over `params` returning a scalar Tensor; it is called
    once under a fresh tape for the analytic pass and twice per coordinate
    (no tape) for the numeric pass. Use float64 parameters; float32 cannot
    meet a 1e-4 relative tolerance on nontrivial graphs. `h` and `tol`
    must be finite and > 0 (ConfigError otherwise).

    Returns the record `kronmri grad-check` prints for a target:
    `max_rel_err`, the largest relative error over every coordinate;
    `tol`; `coords`, the number of coordinates checked; and `passed`,
    whether `max_rel_err <= tol`.
    """
    for name, value in (("h", h), ("tol", tol)):
        if not (np.isfinite(value) and value > 0):
            raise ConfigError(f"grad_check: {name} must be finite and > 0, got {value}")
    for i, p in enumerate(params):
        if not p.requires_grad:
            raise TapeError(f"grad_check: params[{i}] does not require grad")
    with Tape():
        loss = f()
    analytic = backward(loss)

    max_rel = 0.0
    for pi, p in enumerate(params):
        ga = analytic.get(p)
        ga_flat = (np.zeros_like(p.data) if ga is None else ga.data).reshape(-1)
        flat = p.data.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = f().item()
            flat[idx] = orig - h
            dn = f().item()
            flat[idx] = orig
            num = (up - dn) / (2.0 * h)
            if not np.isfinite(num):
                raise NumericError(f"non-finite finite-difference at params[{pi}].flat[{idx}]")
            ana = float(ga_flat[idx])
            max_rel = max(max_rel, abs(ana - num) / max(abs(ana), abs(num), 1e-8))
    return {"max_rel_err": max_rel, "tol": tol, "coords": sum(p.size for p in params),
            "passed": max_rel <= tol}
