"""KTEN tensor files and PGM image export.

KTEN layout, all integers little-endian:

    bytes 0-3   magic "KTEN"
    byte  4     format version (0x01)
    byte  5     dtype: 0x01 = float32, 0x02 = float64
    byte  6     rank
    next        rank x uint64 dimensions
    rest        row-major payload, little-endian floats

Round-trips are bit-exact; readers reject bad magic, unknown versions and
a payload whose declared size differs from the bytes left in the file,
before allocating it. Every file kronmri writes, KTEN, PGM, JSON or
history, goes through `write_file`: a temporary name of the call's own,
`os.fsync`, then a rename over the target.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import ShapeError

_MAGIC = b"KTEN"
_VERSION = 0x01
_DTYPE_CODES = {np.dtype(np.float32): 0x01, np.dtype(np.float64): 0x02}
_CODE_DTYPES = {0x01: np.dtype("<f4"), 0x02: np.dtype("<f8")}


def write_kten(path, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr) if arr.ndim else np.asarray(arr)
    code = _DTYPE_CODES.get(arr.dtype)
    if code is None:
        raise ShapeError(f"KTEN supports float32/float64, got {arr.dtype}")
    if arr.ndim > 255:
        raise ShapeError(f"KTEN rank limit exceeded: {arr.ndim}")
    head = _MAGIC + struct.pack(f"<BBB{arr.ndim}Q", _VERSION, code, arr.ndim, *arr.shape)
    write_file(path, (head, arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()))


def read_kten(path) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.read(7)
        if len(head) < 7 or head[:4] != _MAGIC:
            raise OSError(f"{path}: not a KTEN file")
        version, code, rank = head[4], head[5], head[6]
        if version != _VERSION:
            raise OSError(f"{path}: unsupported KTEN version {version}")
        dtype = _CODE_DTYPES.get(code)
        if dtype is None:
            raise OSError(f"{path}: unknown dtype code {code:#x}")
        dim_bytes = fh.read(8 * rank)
        if len(dim_bytes) != 8 * rank:
            raise OSError(f"{path}: truncated KTEN header")
        shape = struct.unpack(f"<{rank}Q", dim_bytes) if rank else ()
        count = 1
        for d in shape:
            count *= d
        # Check the declared size against the file before allocating it.
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left != count * dtype.itemsize:
            raise OSError(f"{path}: payload size mismatch "
                          f"(expected {count * dtype.itemsize} bytes, got {left})")
        payload = fh.read(left)
    arr = np.frombuffer(payload, dtype=dtype).reshape(shape)
    return arr.astype(arr.dtype.newbyteorder("="))


def write_pgm(path, image: np.ndarray, maxval: int = 255) -> None:
    """Binary PGM (P5). maxval 1 writes a bilevel image from 0/1 data;
    otherwise values are expected in [0, 1] and quantized to maxval steps."""
    if image.ndim != 2:
        raise ShapeError(f"PGM needs a 2-D image, got shape {image.shape}")
    if not 1 <= maxval <= 255:
        raise ShapeError(f"PGM maxval must be in [1, 255], got {maxval}")
    if maxval == 1:
        data = (image > 0.5).astype(np.uint8)
    else:
        data = np.clip(np.rint(image * maxval), 0, maxval).astype(np.uint8)
    h, w = image.shape
    write_file(path, (f"P5\n{w} {h}\n{maxval}\n".encode("ascii"), data.tobytes()))


def write_file(path, parts) -> None:
    """Write the byte strings `parts` to `path` whole; the one function in
    kronmri that opens a file for writing. `path` is resolved
    (`os.path.realpath`), so a symlink's target is rewritten; an existing
    target that is not a regular file is an OSError, raised before anything
    is opened. The parts go to a temporary file beside the target, under a
    name of this call's own that is created new (mode "x": it never opens,
    truncates or renames a file that was there, and its permissions follow
    the umask). It is flushed to disk (`os.fsync`), closed and renamed over
    the target, so the target never holds part of a file, not even after a
    crash. If a step fails, the temporary file is removed, an earlier
    target is left as it was, and the error raised."""
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        raise OSError(f"{path}: not a regular file")
    tmp = f"{target}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            for part in parts:
                fh.write(part)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    except BaseException:
        os.remove(tmp)
        raise
