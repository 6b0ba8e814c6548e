"""Checkpoint format 1: stable bytes, old checkpoints load, bad ones fail cleanly.

The fixtures under fixtures/format1 were written by kronmri at commit
a8e9200, when dense and Kronecker layers were separate classes: a [1,2] x 2
U-Net per build (dense, and Kronecker with n=2), every parameter redrawn
from Rng(11) on [-0.5, 0.5] so the head and biases carry signal, plus the
forward output of each on input.kten.
"""

import contextlib
import errno
import hashlib
import io
import json
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronmri import blocks
from kronmri.blocks import UNet, UNetConfig, build_unet
from kronmri.cli import main
from kronmri.errors import ConfigError, ShapeError
from kronmri.kten import read_kten, write_kten
from kronmri.rng import Rng
from kronmri.tensor import Tensor

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "format1")


def dir_digest(path: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def files(path: str) -> dict[str, bytes]:
    out = {}
    for name in os.listdir(path):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = fh.read()
    return out


class TestFormatStability:
    # Digests of fresh seed-0 checkpoints as written at commit a8e9200.
    @pytest.mark.parametrize("kind,n,multiples,base,digest", [
        ("dense", 1, [1, 2], 2,
         "5e0bef2652de447edd5acb0f2205022b0512c92af731b6fca2df5fa284e8a5d9"),
        ("kronecker", 2, [1, 2], 2,
         "34e8524e323aec2916b7ce753d43418b9e57d506e36f5f403a641af70c630bf9"),
        ("dense", 1, [4, 8, 8], 8,
         "c5cb799534cb0a4723fd27d38051a8cb5adb2ad8d02ee4bf82137171190ef5a6"),
        ("kronecker", 2, [4, 8, 8], 8,
         "ffdd48fa57770189e8fa3c5a1d348549f0ccdcc52a7dce0c508877bedac06c8d"),
    ])
    def test_fresh_seed0_checkpoint_bytes(self, tmp_path, kind, n, multiples, base, digest):
        cfg = UNetConfig(channel_multiples=multiples, base_channels=base,
                         layer_kind=kind, n=n)
        build_unet(cfg, Rng(0)).save(str(tmp_path))
        assert dir_digest(str(tmp_path)) == digest

    @pytest.mark.parametrize("tag", ["dense", "kron2"])
    def test_old_checkpoint_loads_and_resaves_identically(self, tmp_path, tag):
        src = os.path.join(FIXTURES, f"unet_{tag}")
        model = UNet.load(src)
        out = model(Tensor(read_kten(os.path.join(FIXTURES, "input.kten")))).data
        want = read_kten(os.path.join(FIXTURES, f"unet_{tag}.out.kten"))
        if tag == "dense":
            assert np.array_equal(out, want)
        else:
            assert np.allclose(out, want, rtol=1e-6, atol=1e-6 * np.abs(want).max())
        model.save(str(tmp_path))
        assert files(str(tmp_path)) == files(src)


def fixture_copy(tmp_path, tag: str, name: str) -> str:
    path = str(tmp_path / name)
    shutil.copytree(os.path.join(FIXTURES, f"unet_{tag}"), path)
    return path


@pytest.fixture
def ckpt(tmp_path):
    return fixture_copy(tmp_path, "kron2", "ckpt")


@pytest.fixture
def dense_ckpt(tmp_path):
    return fixture_copy(tmp_path, "dense", "dense")


def read_manifest(path: str) -> dict:
    with open(os.path.join(path, "manifest.json")) as fh:
        return json.load(fh)


def edit_manifest(path: str, edit) -> None:
    manifest = read_manifest(path)
    edit(manifest)
    with open(os.path.join(path, "manifest.json"), "w") as fh:
        json.dump(manifest, fh)


class TestLoadValidation:
    def test_wrong_size_or_dtype_array_is_shape_error(self, ckpt):
        # a 1-element float64 array in place of stem.conv1's first block
        write_kten(os.path.join(ckpt, "000_F_0.kten"), np.array([7.0]))
        with pytest.raises(ShapeError):
            UNet.load(ckpt)

    def test_float64_bias_is_shape_error(self, ckpt):
        bias = read_kten(os.path.join(ckpt, "000_bias.kten"))
        write_kten(os.path.join(ckpt, "000_bias.kten"), bias.astype(np.float64))
        with pytest.raises(ShapeError):
            UNet.load(ckpt)

    def test_missing_layer_manifest_key_is_config_error(self, ckpt):
        edit_manifest(ckpt, lambda m: m["layers"][0]["manifest"].pop("kernel_size"))
        with pytest.raises(ConfigError):
            UNet.load(ckpt)

    @pytest.mark.parametrize("fname", ["../000_F_0.kten", "/etc/hostname", "", ".."])
    def test_array_file_outside_the_directory_is_config_error(self, ckpt, fname):
        edit_manifest(ckpt, lambda m: m["layers"][0]["arrays"].update(F_0=fname))
        with pytest.raises(ConfigError):
            UNet.load(ckpt)

    @pytest.mark.parametrize("edit", [
        lambda m: m.pop("layers"),
        lambda m: m["layers"][0].pop("arrays"),
        lambda m: m["config"].update(base_channels=4),
        lambda m: m["config"].update(bogus=1),
        lambda m: m["layers"].pop(),
    ])
    def test_malformed_or_mismatched_manifest_is_config_error(self, ckpt, edit):
        edit_manifest(ckpt, edit)
        with pytest.raises(ConfigError):
            UNet.load(ckpt)

    def test_wrong_shape_or_dtype_is_shape_error(self, tmp_path):
        for layer in (0, -1):
            for change in ("shape", "dtype"):
                path = fixture_copy(tmp_path, "kron2", f"{change}{layer}")
                fname = os.path.join(path, read_manifest(path)["layers"][layer]["arrays"]["F_0"])
                arr = read_kten(fname)
                write_kten(fname, arr[..., :2] if change == "shape" else arr.astype(np.float64))
                with pytest.raises(ShapeError):
                    UNet.load(path)

    def test_missing_manifest_key_is_config_error(self, tmp_path):
        for key in ("kind", "in_channels", "out_channels", "kernel_size", "stride",
                    "padding", "dtype", "n", "train_mixing"):
            path = fixture_copy(tmp_path, "kron2", key)
            edit_manifest(path, lambda m: m["layers"][1]["manifest"].pop(key))
            with pytest.raises(ConfigError):
                UNet.load(path)

    def test_missing_array_is_config_error(self, tmp_path):
        for tag, array in (("kron2", "A_1"), ("kron2", "F_0"), ("kron2", "bias"),
                           ("dense", "weight"), ("dense", "bias")):
            path = fixture_copy(tmp_path, tag, f"{tag}-{array}")
            edit_manifest(path, lambda m: m["layers"][-1]["arrays"].pop(array))
            with pytest.raises(ConfigError):
                UNet.load(path)

    @pytest.mark.parametrize("field,value", [("n", "2"), ("stride", -1), ("dtype", "int8"),
                                             ("train_mixing", 1), ("kind", "dense_conv"),
                                             ("padding", 1.0)])
    def test_bad_manifest_value_is_config_error(self, tmp_path, field, value):
        for layer in (0, -1):
            path = fixture_copy(tmp_path, "kron2", str(layer))
            edit_manifest(path, lambda m: m["layers"][layer]["manifest"].update({field: value}))
            with pytest.raises(ConfigError):
                UNet.load(path)

    def test_unknown_kind_rejected(self, ckpt):
        edit_manifest(ckpt, lambda m: m["layers"][0]["manifest"].update(kind="mystery"))
        with pytest.raises(ConfigError):
            UNet.load(ckpt)

    def test_extra_array_is_config_error(self, dense_ckpt):
        edit_manifest(dense_ckpt, lambda m: m["layers"][0]["arrays"].update(
            A_0=m["layers"][0]["arrays"]["bias"]))
        with pytest.raises(ConfigError):
            UNet.load(dense_ckpt)

    @pytest.mark.parametrize("edit", [
        lambda m: m.update(layers=[]),
        lambda m: m.update(layers={}),
        lambda m: m.update(layers="layers"),
        lambda m: m.update(layers=3),
        lambda m: m["layers"].__setitem__(0, "stem.conv1"),
        lambda m: m["layers"].__setitem__(0, ["stem.conv1"]),
        lambda m: m["layers"].reverse(),
        lambda m: m["layers"].append(m["layers"][-1]),
        lambda m: m["layers"][0].update(name="stem.conv0"),
        lambda m: m["layers"][0].update(manifest=None),
        lambda m: m["layers"][0].update(arrays=["F_0"]),
    ])
    def test_layer_list_other_than_the_configs_is_config_error(self, ckpt, edit):
        edit_manifest(ckpt, edit)
        with pytest.raises(ConfigError):
            UNet.load(ckpt)

    @pytest.mark.parametrize("tag", ["dense", "kron2"])
    @pytest.mark.parametrize("field,value", [("n", True), ("base_channels", 2.0),
                                             ("channel_multiples", [True, 2]),
                                             ("layer_kind", 1)])
    def test_config_size_that_is_not_a_plain_integer_is_config_error(
            self, ckpt, dense_ckpt, tag, field, value):
        path = ckpt if tag == "kron2" else dense_ckpt
        edit_manifest(path, lambda m: m["config"].update({field: value}))
        with pytest.raises(ConfigError):
            UNet.load(path)

    def test_manifest_not_json_is_config_error(self, ckpt):
        with open(os.path.join(ckpt, "manifest.json"), "w") as fh:
            fh.write("{nope")
        with pytest.raises(ConfigError):
            UNet.load(ckpt)


class TestRoundTrip:
    @settings(max_examples=16, deadline=None, derandomize=True, database=None)
    @given(kind_n=st.sampled_from([("dense", 1), ("kronecker", 1), ("kronecker", 2)]),
           multiples=st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=3),
           base=st.sampled_from([2, 4]), dtype=st.sampled_from(["float32", "float64"]))
    def test_load_gives_back_the_saved_model_bitwise(self, kind_n, multiples, base, dtype):
        kind, n = kind_n
        cfg = UNetConfig(channel_multiples=multiples, base_channels=base,
                         layer_kind=kind, n=n)
        model = build_unet(cfg, Rng(0), dtype=dtype)
        draw = Rng(1)
        for _, p in model.named_parameters():
            p.data[...] = draw.uniform(p.shape, -0.5, 0.5, dtype=dtype)
        with tempfile.TemporaryDirectory() as path:
            model.save(path)
            loaded = UNet.load(path)
        assert loaded.cfg == cfg
        assert loaded.dtype == model.dtype
        saved, got = model.named_parameters(), loaded.named_parameters()
        assert [name for name, _ in saved] == [name for name, _ in got]
        for (_, pa), (_, pb) in zip(saved, got):
            assert pa.data.dtype == pb.data.dtype
            assert pa.data.tobytes() == pb.data.tobytes()
        x = Tensor(Rng(2).uniform((1, 2, 8, 8), -1, 1, dtype=dtype))
        assert np.array_equal(model(x).data, loaded(x).data)

    @pytest.mark.parametrize("kind,n", [("dense", 1), ("kronecker", 2)])
    def test_load_draws_no_random_init(self, tmp_path, monkeypatch, kind, n):
        """The stored arrays replace every parameter, so `load` builds the
        model without an rng and draws nothing."""
        model = small_unet(kind, n, seed=5)
        model.save(str(tmp_path))

        def no_draw(*args, **kwargs):
            raise AssertionError("UNet.load drew from an rng")
        monkeypatch.setattr(Rng, "uniform", no_draw)
        loaded = UNet.load(str(tmp_path))
        assert [(name, p.data.tobytes()) for name, p in loaded.named_parameters()] \
            == [(name, p.data.tobytes()) for name, p in model.named_parameters()]


def manifest_files(path: str) -> set[str]:
    return {f for entry in read_manifest(path)["layers"] for f in entry["arrays"].values()}


def small_unet(kind: str, n: int, seed: int = 0):
    cfg = UNetConfig(channel_multiples=[1, 2], base_channels=2, layer_kind=kind, n=n)
    return build_unet(cfg, Rng(seed))


def failing_after(monkeypatch, module, name, calls: int):
    """Make `module.name` raise ENOSPC on call number `calls`."""
    real, count = getattr(module, name), [0]

    def flaky(*args, **kwargs):
        count[0] += 1
        if count[0] == calls:
            raise OSError(errno.ENOSPC, "No space left on device")
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, flaky)


def reconstruct_from(tmp_path, checkpoint: str):
    """`reconstruct --checkpoint` on a 16x16 k-space: (exit code, stdout,
    stderr)."""
    kpath = str(tmp_path / "k.kten")
    write_kten(kpath, Rng(3).uniform((2, 16, 16), -1, 1, dtype=np.float32))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["reconstruct", "--input", kpath, "--checkpoint", checkpoint,
                     "--out", str(tmp_path / "rec")])
    return code, out.getvalue(), err.getvalue()


class TestSaveOverExisting:
    def test_stale_arrays_of_the_old_checkpoint_are_deleted(self, tmp_path):
        path, fresh = str(tmp_path / "ckpt"), str(tmp_path / "fresh")
        small_unet("kronecker", 2).save(path)
        old = manifest_files(path)
        small_unet("dense", 1).save(path)
        assert old - manifest_files(path)  # the n=2 build had A_i/F_i files
        assert set(os.listdir(path)) == manifest_files(path) | {"manifest.json"}
        small_unet("dense", 1).save(fresh)
        assert files(path) == files(fresh)

    def test_a_failed_save_keeps_the_arrays_it_would_delete(self, tmp_path, monkeypatch):
        """Stale arrays go only when the save commits: one that fails on its
        manifest leaves the old checkpoint byte for byte."""
        path = str(tmp_path / "ckpt")
        small_unet("kronecker", 2).save(path)
        before = files(path)
        failing_after(monkeypatch, blocks, "write_json", 1)
        with pytest.raises(OSError):
            small_unet("dense", 1).save(path)
        assert files(path) == before

    @pytest.mark.parametrize("raw", [b'{"layers": "\xff"}', b"[" * 200_000],
                             ids=["invalid-utf8", "too-deep"])
    def test_unreadable_old_manifest_names_no_files(self, tmp_path, raw):
        """A manifest that does not decode, or nests too deep to parse, is
        replaced; the files beside it are kept."""
        path = str(tmp_path / "ckpt")
        small_unet("kronecker", 2).save(path)
        with open(os.path.join(path, "manifest.json"), "wb") as fh:
            fh.write(raw)
        old = set(os.listdir(path))
        small_unet("dense", 1).save(path)
        assert old <= set(os.listdir(path))
        assert UNet.load(path).cfg.layer_kind == "dense"

    def test_files_the_old_manifest_does_not_name_are_kept(self, tmp_path):
        path = str(tmp_path / "ckpt")
        small_unet("kronecker", 2).save(path)
        with open(os.path.join(path, "notes.kten"), "w") as fh:
            fh.write("mine")
        small_unet("dense", 1).save(path)
        assert "notes.kten" in os.listdir(path)

    def test_old_manifest_naming_a_file_outside_is_config_error(self, tmp_path):
        path = str(tmp_path / "ckpt")
        small_unet("kronecker", 2).save(path)
        outside = tmp_path / "outside.kten"
        outside.write_text("keep")
        edit_manifest(path, lambda m: m["layers"][0]["arrays"].update(F_0="../outside.kten"))
        before = files(path)
        with pytest.raises(ConfigError):
            small_unet("dense", 1).save(path)
        assert outside.read_text() == "keep"
        assert files(path) == before

    def test_manifest_is_synced_whole_before_it_is_renamed(self, tmp_path, monkeypatch):
        """write_json calls os.fsync on the temporary file once its text is
        written, then os.replace moves that same file over the manifest."""
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            st = os.fstat(fd)
            calls.append(("fsync", st.st_ino, st.st_size))
            real_fsync(fd)

        def replace(src, dst):
            st = os.stat(src)
            calls.append(("replace", st.st_ino, st.st_size))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        path = tmp_path / "manifest.json"
        blocks.write_json(str(path), {"format": 1, "layers": []})
        st = os.stat(path)
        assert calls == [("fsync", st.st_ino, st.st_size), ("replace", st.st_ino, st.st_size)]

    # the kron n=2 [1,2] U-Net has 45 array files; the save writes them and
    # the manifest before it renames any: os.replace call 1 is the first
    # array's, 46 the manifest's
    @pytest.mark.parametrize("stop", [("write_kten", 1), ("write_kten", 21),
                                      ("write_kten", 45), ("replace", 1), ("replace", 46)],
                             ids=lambda stop: f"{stop[0]}-{stop[1]}")
    def test_a_save_that_stops_part_way_leaves_nothing_that_loads(
            self, tmp_path, monkeypatch, stop):
        """Saving over a checkpoint of the same config and failing on one
        array file leaves the old checkpoint byte for byte, loading the old
        parameters. Failing on a rename must not leave the old manifest to
        load a mix of old and new arrays."""
        path = str(tmp_path / "ckpt")
        old = small_unet("kronecker", 2, seed=0)
        old.save(path)
        before = files(path)
        new = small_unet("kronecker", 2, seed=1)
        failing_after(monkeypatch, blocks if stop[0] == "write_kten" else os, *stop)
        with pytest.raises(OSError):
            new.save(path)
        monkeypatch.undo()
        left = os.listdir(path)
        assert not [f for f in left if f.endswith(".tmp")]
        if stop[0] == "write_kten":
            assert files(path) == before
            loaded = UNet.load(path)
            for (_, pa), (_, pb) in zip(old.named_parameters(), loaded.named_parameters()):
                assert pa.data.tobytes() == pb.data.tobytes()
        else:
            assert "manifest.json" not in left
            with pytest.raises(OSError):
                UNet.load(path)
            code, stdout, err = reconstruct_from(tmp_path, path)
            assert (code, stdout) == (4, "")
            lines = err.splitlines()
            assert len(lines) == 1 and json.loads(lines[0])["error"] == "OSError"
            assert not (tmp_path / "rec").exists()
        new.save(path)  # a save that completes leaves no temporary file
        assert set(os.listdir(path)) == manifest_files(path) | {"manifest.json"}
        loaded = UNet.load(path)
        for (_, pa), (_, pb) in zip(new.named_parameters(), loaded.named_parameters()):
            assert pa.data.tobytes() == pb.data.tobytes()
