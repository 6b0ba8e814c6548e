"""Minimal reverse-mode autodiff over numpy arrays.

One `Tape` records one forward pass; `backward` walks it once in reverse and
returns leaf gradients. Recording is explicit: ops only build graph nodes
while a tape is active (`with Tape(): ...`), otherwise they just compute
values, which is what inference and finite differencing want.

Ops are functions; a Tensor has no operator methods and holds float32 or
float64 data only. Broadcasting is deliberately narrow: binary elementwise
ops take a tensor first, then a tensor of its shape and dtype or a Python
number (`mul(x, s)` is the one scaling op); `matmul` takes operands with
equal leading axes; `sum_` and `mean_` reduce every element, and `concat`
joins on the last axis. Every op validates shapes and dtypes up front and
checks its output for NaN/Inf, so a numerical problem surfaces at the op
that created it.

Multiply-accumulate counts for the contraction ops (matmul, kron_sum,
conv2d) accumulate into a module-level running total, `mac_count()`; the
MACs of some work are the difference of two reads around it.

Image ops are channels-last: conv2d and upsample2x take and return
[B,H,W,C] activations, so the conv GEMM's [B*Ho*Wo, O] result is its output
with no transposing copy. The conv kernel stays [O,C,k,k], its im2col
columns keep the (c,i,j) order and its GEMM the `cols @ w.T` orientation,
so the forward stays bit-identical to a plain NCHW im2col GEMM.

How the conv forward and its VJP keep no copy of the input: see `conv2d`.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NumericError, ShapeError, TapeError

_FLOAT_DTYPES = (np.float32, np.float64)

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
    """

    __slots__ = ("data", "requires_grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            raise ShapeError(f"unsupported tensor dtype {arr.dtype} (float32 or float64 only)")
        # ascontiguousarray promotes 0-d to 1-d; keep scalars 0-d.
        self.data = np.ascontiguousarray(arr) if arr.ndim else arr
        self.requires_grad = bool(requires_grad)
        self.node = None

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
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}{flag})"


class _Node:
    __slots__ = ("name", "out", "inputs", "vjp", "needs", "tape")

    def __init__(self, name, out, inputs, vjp, needs, tape):
        self.name = name
        self.out = out
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
    """Wrap an op result, recording a node when a tape is active.

    `vjp(g, needs)` must return per-input gradient arrays (None where
    `needs` is False), aligned with `inputs`.
    """
    out = Tensor(out_data)
    if not _all_finite(out.data):
        raise NumericError(f"non-finite values in output of op '{name}'")
    tape = _ACTIVE_TAPE
    if tape is not None:
        if tape.consumed:
            raise TapeError("recording onto a consumed tape")
        needs = tuple(t.requires_grad or t.node is not None for t in inputs)
        if any(needs):
            node = _Node(name, out, inputs, vjp, needs, tape)
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

    # Tensors hash by identity, so they key their own gradient sums.
    grads: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data)}
    for node in reversed(tape.nodes):
        g = grads.pop(node.out, None)
        if g is None:
            continue
        contribs = node.vjp(g, node.needs)
        for t, gt in zip(node.inputs, contribs):
            if gt is None:
                continue
            grads[t] = grads[t] + gt if t in grads else gt

    out: dict[Tensor, Tensor] = {}
    for t, g in grads.items():
        if t.requires_grad and t.node is None:
            if not np.all(np.isfinite(g)):
                raise NumericError("non-finite gradient for a leaf tensor")
            out[t] = Tensor(g)

    # The tape is single-use, so drop the graph eagerly. Tensor <-> node
    # references form cycles that otherwise wait for the garbage collector,
    # and the vjp closures pin every forward intermediate until then.
    for node in tape.nodes:
        node.out.node = None
        node.inputs = ()
        node.vjp = None
    tape.nodes.clear()
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


def relu(x: Tensor, gain: float = 1.0) -> Tensor:
    """`gain * max(x, 0)`: one fresh buffer scaled in place, bit for bit
    `mul(relu(x), gain)` in value and gradient."""
    s = x.data.dtype.type(gain)
    out = np.maximum(x.data, 0)
    out *= s
    xd = x.data

    def vjp(g, needs):
        return ((g * s) * (xd > 0),)

    return _apply("relu", (x,), out, vjp)


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
    # [p*q, r*s*K] -> [p, r, q, s, K]: row block u, column block v.
    out = (ad.T @ bd).reshape(p, q, r, s, -1).transpose(0, 2, 1, 3, 4)
    out = out.reshape((p * r, q * s, *kernel))

    def vjp(g, needs):
        gt = g.reshape(p, r, q, s, -1).transpose(0, 2, 1, 3, 4).reshape(p * q, -1)
        ga = (bd @ gt.T).reshape(m, p, q) if needs[0] else None
        gb = (ad @ gt).reshape(blocks.shape) if needs[1] else None
        return (ga, gb)

    return _apply("kron_sum", (mixing, blocks), out, vjp)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Row-broadcast bias add: [B,F] + [F]."""
    if x.data.ndim != 2 or b.data.ndim != 1 or x.shape[1] != b.shape[0]:
        raise ShapeError(f"add_bias expects [B,F] + [F], got {x.shape} and {b.shape}")
    if x.data.dtype != b.data.dtype:
        raise ShapeError(f"add_bias dtype mismatch {x.data.dtype} vs {b.data.dtype}")
    out = x.data + b.data[None, :]

    def vjp(g, needs):
        gx = g if needs[0] else None
        gb = g.sum(axis=0) if needs[1] else None
        return (gx, gb)

    return _apply("add_bias", (x, b), out, vjp)


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
# the desk U-Net's training step.
_SHIFT_BLOCK_BYTES = 1 << 21


def _row_windows(x: np.ndarray, padding: int, s: int, ho: int, r0: int, r1: int,
                 rows: np.ndarray, out: np.ndarray) -> None:
    """Gather the im2col operand of output image rows r0..r1 into `out`.

    Output image row r is row r % Ho of image r // Ho, so a range may cross
    images. An image's share of n rows from row y reads the zero-padded
    input rows s*y .. s*(y+n-1)+k-1, which one transposing copy lays
    channel-major into `rows` ([C, s*(n-1)+k, Wp], reused); rows in the
    padding are zeroed, and the padding columns are never written, so they
    keep the zeros the buffer was made with. `out` is [C, k, k, r1-r0, Wo]:
    read as `out.reshape(C*k*k, -1).T` it is the F-ordered im2col block,
    one row per output pixel and its columns in (c, i, j) order. Tap (i, j)
    of an image's share is one copy of C x n runs of Wo values, every s-th
    row and column of `rows` from (i, j).
    """
    k, wo = out.shape[1], out.shape[4]
    h, wd = x.shape[1:3]
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
            p[:, t0:t1, padding:padding + wd] = x[b, a + t0:a + t1].transpose(2, 0, 1)
        dst = out[:, :, :, r - r0:r - r0 + n]
        for i in range(k):
            for j in range(k):
                dst[:, i, j] = p[:, i:i + s * (n - 1) + 1:s, j:j + s * (wo - 1) + 1:s]
        r += n


def _phase_vjp(gext: np.ndarray, w: np.ndarray, grid: tuple, start: tuple,
               xv: np.ndarray, gxv: np.ndarray | None, need_w: bool) -> np.ndarray | None:
    """Both gradients of a stride-1 cross-correlation of one plane grid
    [B,Hu,Wv,C] with w [O,C,ka,kb], from its output gradient laid on the grid.

    Only the grid's input pixels are visited: `xv` [B,hx,wx,C], a view of
    the input, holds them, and `start` (u0, v0) is the grid pixel of
    xv[:, 0, 0]; the grid's padding pixels contribute to neither gradient.
    Writes their input gradient into `gxv` (same shape) unless it is None,
    and returns the kernel gradient if `need_w`. `gext` is the output
    gradient [B,Ho,Wo,O] on the flattened grid, zero elsewhere, behind
    (ka-1)*Wv + (kb-1) zero rows; tap (a, b) is then a shift by whole rows,
    and S[m, a', b'] = gext[m + a'*Wv + b'] is the gradient of the output
    pixel that reads grid row m through tap (ka-1-a', kb-1-b'), or zero: a
    shift that wraps past a row or image edge lands on zero rows. One
    read-only view gives S for whole input rows. It is copied a block of
    rows of one image at a time (`_SHIFT_BLOCK_BYTES`, one reused buffer,
    runs of kb*O contiguous values), and each block gives its rows of the
    input gradient, `S @ wflip` with the kernel flipped to [ka*kb*O, C],
    and its share of the flipped kernel gradient, `xrows.T @ S`, its pixels
    read from `xv`.
    """
    o = gext.shape[1]
    ka, kb = w.shape[2:]
    hu, wv = grid
    u0, v0 = start
    bsz, hx, wx, c = xv.shape
    lead = (ka - 1) * wv + (kb - 1)
    # as_strided reads past the end silently: the last row S reads must be in gext.
    last = ((bsz - 1) * hu + u0 + hx - 1) * wv + v0 + wx - 1 + lead
    if last >= len(gext):
        raise ShapeError(f"conv2d VJP: shifted rows end at {last}, past {len(gext)}")
    e = gext.itemsize
    shifted = np.lib.stride_tricks.as_strided(
        gext[u0 * wv + v0:], (bsz, hx, wx, ka, kb, o),
        (hu * wv * o * e, wv * o * e, o * e, wv * o * e, o * e, e), writeable=False)
    kko = ka * kb * o
    rows = max(1, _SHIFT_BLOCK_BYTES // (max(wx, 1) * kko * e))
    sbuf = np.empty((min(rows, hx), wx, ka, kb, o), dtype=gext.dtype)
    wflip = None if gxv is None else np.ascontiguousarray(
        w[:, :, ::-1, ::-1].transpose(2, 3, 0, 1)).reshape(kko, -1)
    acc = np.zeros((c, kko), dtype=gext.dtype) if need_w else None
    for b in range(bsz):
        for y0 in range(0, hx, rows):
            y1 = min(hx, y0 + rows)
            blk = sbuf[:y1 - y0]
            np.copyto(blk, shifted[b, y0:y1])
            blk = blk.reshape(-1, kko)
            if gxv is not None:
                dst = gxv[b, y0:y1]
                if dst.flags.c_contiguous:
                    np.matmul(blk, wflip, out=dst.reshape(-1, c))
                else:
                    dst[...] = (blk @ wflip).reshape(dst.shape)
            if acc is not None:
                acc += xv[b, y0:y1].reshape(-1, c).T @ blk
    if acc is None:
        return None
    return acc.reshape(-1, ka, kb, o)[:, ::-1, ::-1].transpose(3, 0, 1, 2)


def conv2d(x: Tensor, w: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation, channels-last: [B,H,W,C] input and [O,C,k,k]
    kernel give a [B,Ho,Wo,O] output.

    Output spatial size is floor((H + 2*padding - k) / stride) + 1 per axis.
    An empty batch, channel or output-channel axis is a ShapeError.

    Nothing the size of the input is copied or kept. The forward runs over
    blocks of at least `_GEMM_BLOCK_ROWS` output pixels in whole image rows
    (a short tail joins the last block), with or without a tape. For each
    image's share of a block, the zero-padded input rows it reads are laid
    channel-major into one reused [C, s*(rows-1)+k, Wp] buffer by one
    transposing copy, and the block's im2col operand is gathered from there
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

    The VJP keeps only `x.data`, which the tape holds anyway. With stride
    s, padded pixel (s*u + py, s*v + px) is pixel (u, v) of phase plane
    (py, px), and output pixel (oy, ox) reads that plane only through the
    taps (py + s*a, px + s*b), at plane pixel (oy + a, ox + b), so each
    phase is a stride-1 correlation of its plane with that sub-kernel. The
    output gradient is laid once on the planes' common [B,Hu,Wu] grid,
    behind the zero rows the largest sub-kernel's shifts need, and each
    phase reads it from its own offset. `_phase_vjp` gives both of a
    phase's gradients from one gather of the shifted output gradient,
    indexed by the phase's input pixels x[:, y0::s, x0::s]: a padding pixel
    contributes to neither gradient. Stride 1 is one phase, the whole
    input, whose kernel-gradient rows are a reshape of `x` and whose
    input-gradient rows are written straight into the gradient; a phase no
    tap reads (s > k) gets zero input gradient.
    """
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError(f"conv2d expects [B,H,W,C] and [O,C,k,k], got {x.shape} and {w.shape}")
    if x.data.dtype != w.data.dtype:
        raise ShapeError(f"conv2d dtype mismatch {x.data.dtype} vs {w.data.dtype}")
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
    k = kh
    hp, wp = h + 2 * padding, wd + 2 * padding
    if k > hp or k > wp:
        raise ShapeError(f"conv2d kernel {k} exceeds padded input {hp}x{wp}")
    ho = (hp - k) // stride + 1
    wo = (wp - k) // stride + 1
    if ho < 1 or wo < 1:
        raise ShapeError("conv2d output size would be empty")
    if bias is not None:
        if bias.data.ndim != 1 or bias.shape[0] != o:
            raise ShapeError(f"conv2d bias must be [O]={o}, got {bias.shape}")
        if bias.data.dtype != x.data.dtype:
            raise ShapeError("conv2d bias dtype mismatch")

    _count_macs(bsz * o * ho * wo * c * k * k)
    xd = x.data
    # Blocks of `per` output image rows; the last also takes the short tail.
    nrows = bsz * ho
    per = -(-_GEMM_BLOCK_ROWS // wo)
    bounds = [i * per for i in range(max(1, nrows // per))] + [nrows]
    most = nrows - bounds[-2]  # rows of the largest block, the last
    ckk = c * k * k
    buf = np.empty(ckk * most * wo, dtype=xd.dtype)
    rows = np.zeros((c, stride * (min(most, ho) - 1) + k, wp), dtype=xd.dtype)
    wr = w.data.reshape(o, ckk)
    out = np.empty((nrows * wo, o), dtype=xd.dtype)
    for r0, r1 in zip(bounds, bounds[1:]):
        blk = buf[:ckk * (r1 - r0) * wo].reshape(c, k, k, r1 - r0, wo)
        _row_windows(xd, padding, stride, ho, r0, r1, rows, blk)
        cols = blk.reshape(ckk, -1).T
        if cols.shape[0] < _GEMM_BLOCK_ROWS:  # small: a transposed operand rounds otherwise
            cols = np.ascontiguousarray(cols)
        dst = out[r0 * wo:r1 * wo]
        np.matmul(cols, wr.T, out=dst)
        if bias is not None:
            dst += bias.data
    wd_arr = w.data
    phases = min(stride, k)
    hu, wu = -(-hp // stride), -(-wp // stride)
    lead = (-(-k // stride) - 1) * (wu + 1)  # phase (0, 0)'s, the largest sub-kernel's

    inputs = (x, w) if bias is None else (x, w, bias)

    def vjp(g, needs):
        gx = None
        if needs[0]:  # every input pixel is in a phase a tap reads unless s > k
            gx = (np.empty if stride <= k else np.zeros)((bsz, h, wd, c), dtype=g.dtype)
        gw = np.zeros((o, c, k, k), dtype=g.dtype) if needs[1] else None
        if needs[0] or needs[1]:
            gext = np.zeros((lead + bsz * hu * wu, o), dtype=g.dtype)
            gext[lead:].reshape(bsz, hu, wu, o)[:, :ho, :wo] = g
            for py in range(phases):
                y0 = (py - padding) % stride
                for px in range(phases):
                    x0 = (px - padding) % stride
                    ws = wd_arr[:, :, py::stride, px::stride]
                    gws = _phase_vjp(gext[lead - (ws.shape[2] - 1) * wu - (ws.shape[3] - 1):],
                                     ws, (hu, wu),
                                     ((y0 + padding) // stride, (x0 + padding) // stride),
                                     xd[:, y0::stride, x0::stride],
                                     None if gx is None else gx[:, y0::stride, x0::stride],
                                     gw is not None)
                    if gw is not None:
                        gw[:, :, py::stride, px::stride] = gws
        if bias is None:
            return (gx, gw)
        gb = g.reshape(-1, o).sum(axis=0) if needs[2] else None
        return (gx, gw, gb)

    return _apply("conv2d", inputs, out.reshape(bsz, ho, wo, o), vjp)


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
    match."""
    parts = tuple(parts)
    if any(t.data.dtype != parts[0].data.dtype for t in parts):
        raise ShapeError(f"concat: dtype mismatch {[t.data.dtype.name for t in parts]}")
    try:
        out = np.concatenate([t.data for t in parts], axis=-1)
    except ValueError as e:  # no parts, a 0-d part, or other axes that differ
        raise ShapeError(f"concat: {e}") from None
    sizes = [t.shape[-1] for t in parts]

    def vjp(g, needs):
        grads = []
        start = 0
        for sz, need in zip(sizes, needs):
            grads.append(np.ascontiguousarray(g[..., start:start + sz]) if need else None)
            start += sz
        return tuple(grads)

    return _apply("concat", parts, out, vjp)


def upsample2x(x: Tensor) -> Tensor:
    """Nearest-neighbour 2x spatial upsampling, channels-last [B,H,W,C]."""
    if x.data.ndim != 4:
        raise ShapeError(f"upsample2x expects [B,H,W,C], got {x.shape}")
    bsz, h, w, c = x.shape
    out = np.empty((bsz, h, 2, w, 2, c), dtype=x.data.dtype)
    out[...] = x.data[:, :, None, :, None, :]

    def vjp(g, needs):
        gx = g[:, 0::2, 0::2] + g[:, 0::2, 1::2]
        gx += g[:, 1::2, 0::2]
        gx += g[:, 1::2, 1::2]
        return (gx,)

    return _apply("upsample2x", (x,), out.reshape(bsz, 2 * h, 2 * w, c), vjp)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    if x.data.ndim == 0 or x.shape[-1] == 0:
        raise ShapeError(f"softmax needs a non-empty last axis, got shape {x.shape}")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def vjp(g, needs):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - inner),)

    return _apply("softmax", (x,), out, vjp)


# ---------------------------------------------------------------------------
# gradient checking


class GradCheckReport:
    """Outcome of a finite-difference check (see `grad_check`)."""

    def __init__(self, max_rel_err: float, tol: float, coords: int,
                 worst_param: int, worst_index: int):
        self.max_rel_err = max_rel_err
        self.tol = tol
        self.coords = coords
        self.worst_param = worst_param
        self.worst_index = worst_index
        self.passed = max_rel_err <= tol

    def __repr__(self):
        status = "passed" if self.passed else "FAILED"
        return (f"GradCheckReport({status}, max_rel_err={self.max_rel_err:.3e}, "
                f"tol={self.tol:.1e}, coords={self.coords}, "
                f"worst=param[{self.worst_param}].flat[{self.worst_index}])")


def grad_check(f, params: list[Tensor], h: float = 1e-6, tol: float = 1e-4) -> GradCheckReport:
    """Compare tape gradients of `f()` against central differences.

    `f` is a closure over `params` returning a scalar Tensor; it is called
    once under a fresh tape for the analytic pass and twice per coordinate
    (no tape) for the numeric pass. Use float64 parameters; float32 cannot
    meet a 1e-4 relative tolerance on nontrivial graphs. `h` and `tol`
    must be finite and > 0 (ConfigError otherwise).
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
    worst = (0, 0)
    coords = 0
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
            rel = abs(ana - num) / max(abs(ana), abs(num), 1e-8)
            coords += 1
            if rel > max_rel:
                max_rel = rel
                worst = (pi, idx)
    return GradCheckReport(max_rel, tol, coords, worst[0], worst[1])
