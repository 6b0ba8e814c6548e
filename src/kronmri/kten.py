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
`os.fsync`, then a rename over the target. The writes of one command or
save form one `write_set`, which renames nothing until all of them are on
disk, so a command that fails before then leaves every earlier file as it
was. This module is also the only one that removes files.
"""

from __future__ import annotations

import contextlib
import os
import struct
import threading

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


class _WriteSet:
    """The writes of an open `write_set`: each temporary file with its
    target, in the order written; the last target of each block (its
    commit file); and the files handed to `remove`."""

    def __init__(self):
        self.renames = []
        self.commits = []
        self.removals = []

    def remove(self, path) -> None:
        """Remove `path`, if it is a file, when the set commits."""
        self.removals.append(path)


class _Open(threading.local):
    ws = None  # this thread's open write set: one thread's writes never join another's


_open = _Open()


@contextlib.contextmanager
def write_set():
    """Group writes: inside the block, each `write_file` writes and syncs
    its temporary file but renames nothing; a `write_set` inside another
    joins the outer one. Yields the set, whose `remove(path)` hands it a
    file to remove.

    When the outermost block ends normally the set commits: it removes
    the files handed to `remove` and, if it holds more than one file, the
    last file each block wrote (its commit file, such as a checkpoint's
    manifest); then it renames every temporary file over its target in
    the order written. So a block that raises leaves every earlier file
    byte for byte, and a failure during the renames leaves no commit file
    of a block whose files were not all renamed. Whatever fails, the
    temporary files not yet renamed are removed and no set stays open.
    Each thread has its own open set."""
    ws = _open.ws
    outer = ws is None
    if outer:
        ws = _open.ws = _WriteSet()
    start = len(ws.renames)
    try:
        yield ws
        if len(ws.renames) > start:
            ws.commits.append(ws.renames[-1][1])
        if outer:
            gone = ws.removals + (ws.commits if len(ws.renames) > 1 else [])
            for path in gone:
                if os.path.isfile(path):
                    os.remove(path)
            while ws.renames:
                os.replace(*ws.renames[0])
                del ws.renames[0]
    except BaseException:
        for tmp, _ in ws.renames[start:]:
            os.remove(tmp)
        del ws.renames[start:]
        raise
    finally:
        if outer:
            _open.ws = None


def write_file(path, parts) -> None:
    """Write the byte strings `parts` to `path` whole; the one function in
    kronmri that opens a file for writing. `path` is resolved
    (`os.path.realpath`), so a symlink's target is rewritten; an existing
    target that is not a regular file is an OSError, raised before anything
    is opened. The parts go to a temporary file beside the target, under a
    name of this call's own that is created new (mode "x": it never opens,
    truncates or renames a file that was there, and its permissions follow
    the umask), and are flushed to disk (`os.fsync`). The temporary file is
    renamed over the target when the open `write_set` commits; outside one
    the write is a set of its own, renamed at once. So the target never
    holds part of a file, not even after a crash. If a step fails, the
    temporary file is removed, an earlier target is left as it was, and
    the error raised."""
    if _open.ws is None:
        with write_set():
            write_file(path, parts)
        return
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
    except BaseException:
        os.remove(tmp)
        raise
    _open.ws.renames.append((tmp, target))
