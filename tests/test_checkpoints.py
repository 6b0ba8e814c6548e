"""Checkpoint format 1: stable bytes, old checkpoints load, bad ones fail cleanly.

The fixtures under fixtures/format1 were written by kronmri at commit
a8e9200, when dense and Kronecker layers were separate classes: a [1,2] x 2
U-Net per build (dense, and Kronecker with n=2), every parameter redrawn
from Rng(11) on [-0.5, 0.5] so the head and biases carry signal, plus the
forward output of each on input.kten.
"""

import hashlib
import json
import os
import shutil

import numpy as np
import pytest

from kronmri.blocks import UNet, UNetConfig, build_unet
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


@pytest.fixture
def ckpt(tmp_path):
    path = str(tmp_path / "ckpt")
    shutil.copytree(os.path.join(FIXTURES, "unet_kron2"), path)
    return path


def edit_manifest(path: str, edit) -> None:
    with open(os.path.join(path, "manifest.json")) as fh:
        manifest = json.load(fh)
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

    def test_manifest_not_json_is_config_error(self, ckpt):
        with open(os.path.join(ckpt, "manifest.json"), "w") as fh:
            fh.write("{nope")
        with pytest.raises(ConfigError):
            UNet.load(ckpt)


def manifest_files(path: str) -> set[str]:
    with open(os.path.join(path, "manifest.json")) as fh:
        manifest = json.load(fh)
    return {f for entry in manifest["layers"] for f in entry["arrays"].values()}


def small_unet(kind: str, n: int):
    cfg = UNetConfig(channel_multiples=[1, 2], base_channels=2, layer_kind=kind, n=n)
    return build_unet(cfg, Rng(0))


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
