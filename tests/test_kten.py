"""KTEN container: bit-exact round-trips, header validation, PGM export,
the one writer every file goes through, and the write set that groups a
command's writes."""

import errno
import os
import signal
import stat
import struct
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kronmri import kten
from kronmri.blocks import write_json
from kronmri.errors import ShapeError
from kronmri.kten import read_kten, write_kten, write_pgm, write_set
from kronmri.rng import Rng
from kronmri.training import write_history


class TestRoundTrip:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(), (1,), (5,), (3, 4), (2, 3, 4, 5)])
    def test_bit_exact(self, tmp_path, dtype, shape):
        arr = Rng(1).uniform(shape if shape else (1,), -10, 10, dtype=dtype)
        arr = arr.reshape(shape)
        path = tmp_path / "t.kten"
        write_kten(path, arr)
        back = read_kten(path)
        assert back.dtype == dtype
        assert back.shape == shape
        assert back.tobytes() == arr.tobytes()

    def test_special_values_survive(self, tmp_path):
        arr = np.array([0.0, -0.0, 1e-300, -1e300, np.pi], dtype=np.float64)
        path = tmp_path / "s.kten"
        write_kten(path, arr)
        back = read_kten(path)
        assert arr.tobytes() == back.tobytes()

    def test_header_layout(self, tmp_path):
        arr = np.arange(6, dtype=np.float32).reshape(2, 3)
        path = tmp_path / "h.kten"
        write_kten(path, arr)
        raw = path.read_bytes()
        assert raw[:4] == b"KTEN"
        assert raw[4] == 0x01  # version
        assert raw[5] == 0x01  # float32
        assert raw[6] == 2     # rank
        assert struct.unpack("<QQ", raw[7:23]) == (2, 3)
        assert len(raw) == 23 + 6 * 4

    def test_rejects_int_array(self, tmp_path):
        with pytest.raises(ShapeError):
            write_kten(tmp_path / "i.kten", np.arange(3))


class TestReadValidation:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(OSError):
            read_kten(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v"
        path.write_bytes(b"KTEN" + bytes([9, 1, 0]))
        with pytest.raises(OSError):
            read_kten(path)

    def test_truncated_payload(self, tmp_path):
        good = tmp_path / "g.kten"
        write_kten(good, np.ones(10, dtype=np.float64))
        clipped = tmp_path / "c.kten"
        clipped.write_bytes(good.read_bytes()[:-4])
        with pytest.raises(OSError):
            read_kten(clipped)

    def test_trailing_garbage(self, tmp_path):
        good = tmp_path / "g.kten"
        write_kten(good, np.ones(4, dtype=np.float32))
        padded = tmp_path / "p.kten"
        padded.write_bytes(good.read_bytes() + b"\x00")
        with pytest.raises(OSError):
            read_kten(padded)

    def test_huge_declared_payload_fails_before_allocating(self, tmp_path):
        # 15 bytes: a rank-1 float64 header declaring 2**40 elements (8 TiB)
        path = tmp_path / "h.kten"
        path.write_bytes(b"KTEN" + bytes([1, 2, 1]) + struct.pack("<Q", 2**40))
        assert path.stat().st_size == 15
        with pytest.raises(OSError, match="payload size mismatch"):
            read_kten(path)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cut=st.integers(0, 7 + 2 * 8 + 6 * 4 - 1))
    def test_every_truncation_is_rejected(self, tmp_path, cut):
        good = tmp_path / "g.kten"
        write_kten(good, np.ones((2, 3), dtype=np.float32))
        clipped = tmp_path / "c.kten"
        clipped.write_bytes(good.read_bytes()[:cut])
        with pytest.raises(OSError):
            read_kten(clipped)


class TestPgm:
    def test_bilevel_mask(self, tmp_path):
        mask = np.array([[1.0, 0.0, 1.0, 1.0]])
        path = tmp_path / "m.pgm"
        write_pgm(path, mask, maxval=1)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n4 1\n1\n")
        assert raw[len(b"P5\n4 1\n1\n"):] == bytes([1, 0, 1, 1])

    def test_grayscale_range(self, tmp_path):
        img = np.linspace(0, 1, 16).reshape(4, 4)
        path = tmp_path / "g.pgm"
        write_pgm(path, img)
        raw = path.read_bytes()
        header = b"P5\n4 4\n255\n"
        assert raw.startswith(header)
        pix = np.frombuffer(raw[len(header):], dtype=np.uint8)
        assert pix[0] == 0 and pix[-1] == 255
        assert len(pix) == 16

    def test_rejects_3d(self, tmp_path):
        with pytest.raises(ShapeError):
            write_pgm(tmp_path / "x.pgm", np.zeros((2, 2, 2)))


class _FullDisk:
    """A file opened for writing whose every write fails as on a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("write", [lambda p: write_kten(p, np.zeros(3)),
                                   lambda p: write_pgm(p, np.zeros((2, 2)))],
                         ids=["kten", "pgm"])
def test_a_write_that_fails_leaves_no_part_written_file(tmp_path, monkeypatch, write):
    monkeypatch.setattr(kten, "open", lambda path, mode: _FullDisk(open(path, mode)),
                        raising=False)
    path = tmp_path / "x"
    with pytest.raises(OSError):
        write(path)
    assert not path.exists()


@pytest.mark.parametrize("write", [lambda p: write_kten(p, np.zeros(3)),
                                   lambda p: write_pgm(p, np.zeros((2, 2)))],
                         ids=["kten", "pgm"])
def test_a_written_file_is_synced_whole_before_the_close(tmp_path, monkeypatch, write):
    """One os.fsync, on the file's own descriptor, once every byte is written."""
    synced = []
    real = os.fsync

    def fsync(fd):
        st = os.fstat(fd)
        synced.append((st.st_ino, st.st_size))
        real(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    path = tmp_path / "x"
    write(path)
    st = os.stat(path)
    assert synced == [(st.st_ino, st.st_size)]


# Every file kronmri writes goes through `kten.write_file`; these are its callers.
WRITERS = {"kten": lambda p: write_kten(p, np.arange(3.0)),
           "pgm": lambda p: write_pgm(p, np.eye(2)),
           "json": lambda p: write_json(p, {"a": [1, 2]}),
           "history": lambda p: write_history(p, [{"step": 1, "loss": 0.5}])}


@pytest.mark.parametrize("write", WRITERS.values(), ids=WRITERS.keys())
class TestWriteFile:
    def test_a_failed_sync_leaves_the_old_file(self, tmp_path, monkeypatch, write):
        """An fsync error while overwriting a file removes the temporary file
        and leaves the old bytes."""
        path = tmp_path / "x"
        path.write_bytes(b"old bytes")

        def fsync(fd):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(os, "fsync", fsync)
        with pytest.raises(OSError, match="Input/output"):
            write(str(path))
        assert path.read_bytes() == b"old bytes"
        assert os.listdir(tmp_path) == ["x"]

    def test_the_temporary_file_is_synced_whole_then_renamed(self, tmp_path, monkeypatch,
                                                             write):
        """One os.fsync, on the temporary file's descriptor once every byte
        is written; then os.replace moves that same file over the target."""
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            st = os.fstat(fd)
            calls.append(("fsync", st.st_ino, st.st_size))
            real_fsync(fd)

        def replace(src, dst):
            st = os.stat(src)
            calls.append(("replace", src, dst, st.st_ino, st.st_size))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        path = tmp_path / "x"
        path.write_bytes(b"old bytes")
        write(str(path))
        st, real = os.stat(path), os.path.realpath(path)
        assert calls == [("fsync", st.st_ino, st.st_size),
                         ("replace", calls[1][1], real, st.st_ino, st.st_size)]
        assert os.path.dirname(calls[1][1]) == str(tmp_path)

    def test_a_fifo_at_the_old_temporary_name_is_left_alone(self, tmp_path, write):
        """The temporary name is the call's own, created new: a FIFO at
        target + ".tmp" is neither opened, which would block until a reader
        came (an alarm ends the write if it blocks), nor replaced."""
        path = tmp_path / "x"
        os.mkfifo(tmp_path / "x.tmp")

        def blocked(signum, frame):
            raise TimeoutError("the write blocked")

        old = signal.signal(signal.SIGALRM, blocked)
        signal.alarm(10)
        try:
            write(str(path))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
        assert stat.S_ISFIFO(os.lstat(tmp_path / "x.tmp").st_mode)
        assert sorted(os.listdir(tmp_path)) == ["x", "x.tmp"]

    def test_a_file_at_the_old_temporary_name_is_kept_byte_for_byte(self, tmp_path, write):
        path = tmp_path / "x"
        (tmp_path / "x.tmp").write_bytes(b"a user's file")
        write(str(path))
        assert (tmp_path / "x.tmp").read_bytes() == b"a user's file"
        assert sorted(os.listdir(tmp_path)) == ["x", "x.tmp"]

    def test_a_failed_rename_leaves_no_temporary_file(self, tmp_path, monkeypatch, write):
        def replace(src, dst):
            raise OSError(errno.EXDEV, "Invalid cross-device link")

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="cross-device"):
            write(str(tmp_path / "x"))
        assert os.listdir(tmp_path) == []

    def test_the_mode_follows_the_umask(self, tmp_path, write):
        old = os.umask(0o027)
        try:
            write(str(tmp_path / "x"))
        finally:
            os.umask(old)
        assert stat.S_IMODE(os.stat(tmp_path / "x").st_mode) == 0o640

    def test_two_writes_take_two_temporary_names(self, tmp_path, monkeypatch, write):
        names = []
        real = os.replace

        def replace(src, dst):
            names.append(src)
            real(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        write(str(tmp_path / "x"))
        write(str(tmp_path / "x"))
        assert len(set(names)) == 2

    def test_a_symlink_keeps_its_link_and_its_target_is_rewritten(self, tmp_path, write):
        target, link = tmp_path / "target", tmp_path / "link"
        target.write_bytes(b"old bytes")
        link.symlink_to(target)
        write(str(link))
        fresh = tmp_path / "fresh"
        write(str(fresh))
        assert os.readlink(link) == str(target)
        assert target.read_bytes() == fresh.read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["fresh", "link", "target"]

    @pytest.mark.parametrize("kind", ["fifo", "dir"])
    def test_a_target_that_is_not_a_regular_file_is_refused(self, tmp_path, write, kind):
        """A FIFO or directory at the target is an OSError naming the path,
        raised before anything is opened; the target is left as it was."""
        path = tmp_path / "x"
        os.mkfifo(path) if kind == "fifo" else os.mkdir(path)
        with pytest.raises(OSError, match="not a regular file") as err:
            write(str(path))
        assert str(path) in str(err.value)
        mode = os.lstat(path).st_mode
        assert stat.S_ISFIFO(mode) if kind == "fifo" else stat.S_ISDIR(mode)
        assert os.listdir(tmp_path) == ["x"]


def record_calls(monkeypatch, calls):
    """Record each os.remove and os.replace as (name, path), the
    replace's path being its target, and make the call."""
    for name in ("remove", "replace"):
        real = getattr(os, name)

        def spy(*args, name=name, real=real):
            calls.append((name, os.path.basename(args[-1])))
            real(*args)
        monkeypatch.setattr(os, name, spy)


def put(path, data: bytes) -> None:
    kten.write_file(str(path), (data,))


class TestWriteSet:
    def test_nothing_is_renamed_until_the_outermost_block_ends(self, tmp_path):
        """A set inside another joins it: both blocks' files appear when
        the outer one ends, and only then."""
        (tmp_path / "a").write_bytes(b"old a")
        with write_set():
            put(tmp_path / "a", b"new a")
            with write_set():
                put(tmp_path / "b", b"new b")
            assert (tmp_path / "a").read_bytes() == b"old a"
            assert sorted(f for f in os.listdir(tmp_path) if not f.endswith(".tmp")) == ["a"]
        assert (tmp_path / "a").read_bytes() == b"new a"
        assert sorted(os.listdir(tmp_path)) == ["a", "b"]

    def test_commit_files_and_removals_go_before_the_renames_in_write_order(
            self, tmp_path, monkeypatch):
        """The last file of each block is its commit file; with the files
        handed to `remove` it is removed first, then every temporary file
        is renamed in the order written. A file to remove that is missing
        or not a regular file is left alone."""
        for name in ("inner.json", "outer.json", "stale", "arr2"):
            (tmp_path / name).write_bytes(b"old")
        (tmp_path / "adir").mkdir()
        calls = []
        record_calls(monkeypatch, calls)
        with write_set() as ws:
            with write_set() as inner:
                inner.remove(str(tmp_path / "stale"))
                put(tmp_path / "arr1", b"1")
                put(tmp_path / "arr2", b"2")
                put(tmp_path / "inner.json", b"i")
            ws.remove(str(tmp_path / "missing"))
            ws.remove(str(tmp_path / "adir"))
            put(tmp_path / "history", b"h")
            put(tmp_path / "outer.json", b"o")
        assert calls == [("remove", "stale"), ("remove", "inner.json"),
                         ("remove", "outer.json"), ("replace", "arr1"),
                         ("replace", "arr2"), ("replace", "inner.json"),
                         ("replace", "history"), ("replace", "outer.json")]
        assert sorted(os.listdir(tmp_path)) == ["adir", "arr1", "arr2", "history",
                                                "inner.json", "outer.json"]

    def test_a_set_of_one_file_removes_nothing(self, tmp_path, monkeypatch):
        (tmp_path / "x").write_bytes(b"old")
        calls = []
        record_calls(monkeypatch, calls)
        with write_set():
            put(tmp_path / "x", b"new")
        put(tmp_path / "x", b"newer")
        assert calls == [("replace", "x"), ("replace", "x")]
        assert (tmp_path / "x").read_bytes() == b"newer"

    def test_a_block_that_raises_leaves_every_file_and_no_set_open(self, tmp_path):
        """Nothing is removed or renamed, the temporary files go, and the
        next plain write renames at once."""
        (tmp_path / "a").write_bytes(b"old a")
        (tmp_path / "stale").write_bytes(b"old stale")
        with pytest.raises(RuntimeError, match="stop"):
            with write_set() as ws:
                ws.remove(str(tmp_path / "stale"))
                put(tmp_path / "a", b"new a")
                put(tmp_path / "b", b"new b")
                raise RuntimeError("stop")
        assert sorted(os.listdir(tmp_path)) == ["a", "stale"]
        assert (tmp_path / "a").read_bytes() == b"old a"
        assert kten._open.ws is None
        put(tmp_path / "c", b"c")
        assert (tmp_path / "c").read_bytes() == b"c"

    def test_an_inner_block_that_raises_drops_only_its_own_files(self, tmp_path):
        with write_set():
            put(tmp_path / "a", b"a")
            with pytest.raises(RuntimeError):
                with write_set():
                    put(tmp_path / "b", b"b")
                    raise RuntimeError("stop")
            assert len(os.listdir(tmp_path)) == 1
        assert os.listdir(tmp_path) == ["a"]

    @pytest.mark.parametrize("fail_at", [1, 2, 3])
    def test_a_failed_rename_leaves_no_commit_file_and_no_temporary_file(
            self, tmp_path, monkeypatch, fail_at):
        """Files renamed before the failure stay; the commit file was
        removed before the first rename and never comes back."""
        for name in ("a", "b", "last"):
            (tmp_path / name).write_bytes(b"old")
        real, count = os.replace, [0]

        def replace(src, dst):
            count[0] += 1
            if count[0] == fail_at:
                raise OSError(errno.EIO, "Input/output error")
            real(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="Input/output"):
            with write_set():
                put(tmp_path / "a", b"new")
                put(tmp_path / "b", b"new")
                put(tmp_path / "last", b"new")
        assert sorted(os.listdir(tmp_path)) == ["a", "b"]
        assert kten._open.ws is None
        for i, name in enumerate(("a", "b")):
            assert (tmp_path / name).read_bytes() == (b"new" if i + 1 < fail_at else b"old")

    def test_a_set_is_the_thread_s_own(self, tmp_path):
        """A plain write from another thread, while this one holds a set
        open, renames at once and joins nothing."""
        done = []

        def other():
            put(tmp_path / "theirs", b"t")
            done.append(os.path.exists(tmp_path / "theirs"))

        with write_set():
            put(tmp_path / "mine", b"m")
            worker = threading.Thread(target=other)
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
            assert done == [True]
            assert not (tmp_path / "mine").exists()
        assert sorted(os.listdir(tmp_path)) == ["mine", "theirs"]
