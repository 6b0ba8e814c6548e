"""Command-line contract: help snapshots, exit codes, and file outputs."""

import contextlib
import errno
import io
import json
import math
import os
import stat
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kronmri import blocks, cli, training
from kronmri.algebra import MAX_TRIALS
from kronmri.blocks import UNetConfig, build_unet
from kronmri.cli import build_parser, main
from kronmri.errors import TapeError
from kronmri.kspace import apply_mask, fft2c, gen_cartesian_mask, gen_phantom, ifft2c
from kronmri.kten import read_kten, write_kten
from kronmri.layers import MAX_SIZE
from kronmri.rng import Rng
from kronmri.tensor import Tensor

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
# Files that hold no JSON document: bad text, bytes that are not UTF-8,
# nesting too deep for the parser, an integer over Python's digit limit.
BAD_JSON = {"not-json": b"{nope",
            "invalid-utf8": b'{"model": "unet\xff"}',
            "too-deep": b"[" * 200_000,
            "int-too-long": b'{"n": ' + b"1" * 5000 + b"}"}
COMMANDS = ["gen-data", "gen-mask", "train", "reconstruct", "metrics",
            "count-params", "verify-algebra", "grad-check"]


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_shown(*args):
    """`main` in process with its streams redirected and every warning
    shown: a warning counts as stderr output, as it would on a console.
    An argparse refusal's SystemExit gives the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(list(args))
        except SystemExit as stop:
            code = stop.code
    shown = "".join(warnings.formatwarning(w.message, w.category, w.filename, w.lineno)
                    for w in caught)
    return code, out.getvalue(), err.getvalue() + shown


def tree_bytes(root) -> dict:
    """{path relative to `root`: bytes} for every file under `root`."""
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def stderr_json(err: str) -> dict:
    lines = [ln for ln in err.splitlines() if ln.strip()]
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert set(payload) == {"error", "message"}
    return payload


class TestHelpSnapshots:
    def golden(self, name):
        with open(os.path.join(GOLDEN_DIR, f"help_{name}.txt")) as fh:
            return fh.read()

    def help_text(self, capsys, *args):
        with pytest.raises(SystemExit) as caught:
            main(list(args))
        assert caught.value.code == 0
        return capsys.readouterr().out

    def test_main_help(self, capsys):
        assert self.help_text(capsys, "--help") == self.golden("main")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_subcommand_help(self, capsys, command):
        assert self.help_text(capsys, command, "--help") == self.golden(command)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_flag_documents_a_default(self, command):
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if a.__class__.__name__ == "_SubParsersAction")
        text = sub.choices[command].format_help()
        for action in sub.choices[command]._actions:
            if action.dest in ("help",) or action.required:
                continue
            assert "default:" in text

    # timing lives in perfbench: `bench` is not a command
    @pytest.mark.parametrize("argv", [[], ["bench"]], ids=["missing", "bench"])
    def test_missing_or_unknown_subcommand_is_a_config_error(self, capsys, argv):
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert stderr_json(captured.err)["error"] == "ConfigError"


class TestExitCodes:
    def test_success_is_zero(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "gen-mask", "--out",
                                 str(tmp_path / "m.kten"), "--width", "64")
        assert code == 0 and err == ""
        json.loads(out)

    def test_bad_flag_value_is_two(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as caught:
            main(["gen-mask", "--out", str(tmp_path / "m.kten"), "--af", "5"])
        assert caught.value.code == 2
        assert stderr_json(capsys.readouterr().err)["error"] == "ConfigError"

    def test_config_error_is_two(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"model": "unet", "bogus": 1}')
        code, _, err = run_cli(capsys, "count-params", "--config", str(cfg))
        assert code == 2
        payload = stderr_json(err)
        assert payload["error"] == "ConfigError"
        assert "bogus" in payload["message"]
        assert str(cfg) in payload["message"]

    def test_numeric_error_is_three(self, capsys):
        code, _, err = run_cli(capsys, "grad-check", "--target", "mlp",
                               "--tol", "1e-18")
        assert code == 3
        assert stderr_json(err)["error"] == "NumericError"

    @pytest.mark.parametrize("argv", [
        ["grad-check", "--target", "linear", "--h", "1e300"],
        # the update itself overflows float32, then the next op reads inf
        ["train", "--lr", "1e300"],
        # the update is finite, but step 2's forward overflows
        ["train", "--lr", "1e30", "--steps", "2"]])
    def test_overflow_is_one_numeric_error_line(self, tmp_path, argv):
        """numpy's overflow warnings are not printed before the JSON line."""
        if argv[0] == "train":
            argv = argv + ["--size", "16", "--base", "2", "--multiples", "1,2",
                           "--batch", "1", "--dataset-size", "2", "--eval-size", "1",
                           "--out", str(tmp_path / "run")]
        code, out, err = run_cli_shown(*argv)
        assert code == 3
        assert stderr_json(err)["error"] == "NumericError"
        assert not (tmp_path / "run").exists()

    def test_overflowing_update_aborts_the_step_that_made_it(self, tmp_path):
        """Adam checks each update before writing it, so the error names the
        training step and the parameter, not a later op that read it."""
        code, _, err = run_cli_shown(
            "train", "--lr", "1e300", "--steps", "1", "--size", "16", "--base", "2",
            "--multiples", "1,2", "--batch", "1", "--dataset-size", "2", "--eval-size", "1")
        assert code == 3
        message = stderr_json(err)["message"]
        assert message.startswith("training aborted at step 1: ")
        assert "non-finite update for parameter 'stem.conv1." in message

    @pytest.mark.parametrize("extra", [["--h", "0"], ["--h", "nan"], ["--tol", "inf"],
                                       ["--target", "unet", "--tol", "-1"]])
    def test_grad_check_bad_step_or_tolerance_is_config_error(self, capsys, extra):
        code, out, err = run_cli(capsys, "grad-check", *extra)
        assert code == 2
        assert out == ""
        assert stderr_json(err)["error"] == "ConfigError"

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_verify_algebra_bad_tolerance_is_config_error(self, capsys, tol):
        code, out, err = run_cli(capsys, "verify-algebra", "--trials", "1", "--tol", tol)
        assert code == 2
        assert out == ""
        assert stderr_json(err)["error"] == "ConfigError"

    @pytest.mark.parametrize("trials", [str(MAX_TRIALS + 1), str(10**30)])
    def test_verify_algebra_trials_over_the_cap_is_config_error(self, capsys, trials):
        """Refused before the first trial, not run for hours."""
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify-algebra", "--trials", trials)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert str(MAX_TRIALS) in stderr_json(err)["message"]

    @pytest.mark.parametrize("argv", [
        ["train", "--base", str(10**30)],
        ["train", "--multiples", f"1,{10**30}"],
        ["train", "--ellipses", str(10**30)],
        ["train", "--size", str(10**30)],
        ["gen-data", "--ellipses", str(10**30)],
        ["gen-data", "--height", str(10**30)],
        ["gen-mask", "--width", str(10**30)]],
        ids=lambda argv: f"{argv[0]}{argv[1]}")
    def test_size_over_the_cap_is_config_error_and_writes_nothing(self, tmp_path, argv):
        """A size numpy cannot hold is refused by `check_sizes` before
        anything is built: one JSON line and exit 2, not an OverflowError or
        a ValueError traceback. The other sizes are small, so a command
        that gets past its checks fails fast."""
        out = str(tmp_path / ("out.kten" if argv[0] == "gen-mask" else "out"))
        small = {"train": ["--steps", "1", "--batch", "1", "--dataset-size", "1",
                           "--eval-size", "1", "--size", "16", "--base", "2",
                           "--multiples", "1,2", "--ellipses", "1"],
                 "gen-data": ["--count", "1", "--height", "16", "--width", "16"],
                 "gen-mask": []}[argv[0]]
        code, stdout, err = run_cli_shown(argv[0], "--out", out, *small, *argv[1:])
        assert (code, stdout) == (2, "")
        error = stderr_json(err)
        assert error["error"] == "ConfigError"
        assert str(MAX_SIZE) in error["message"]
        assert os.listdir(tmp_path) == []

    def test_io_error_is_four(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "metrics",
                               "--recon", str(tmp_path / "missing.kten"),
                               "--truth", str(tmp_path / "missing.kten"))
        assert code == 4
        assert stderr_json(err)["error"] == "OSError"

    def test_memory_error_is_four(self, capsys, monkeypatch, tmp_path):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")
        monkeypatch.setattr(cli, "make_sample", exhausted)
        code, out, err = run_cli(capsys, "gen-data", "--out", str(tmp_path / "d"),
                                 "--count", "1")
        assert code == 4 and out == ""
        payload = stderr_json(err)
        assert payload["error"] == "MemoryError"
        assert "allocate" in payload["message"]

    def test_other_package_error_is_one(self, capsys, monkeypatch):
        def misuse(args):
            raise TapeError("backward called twice on the same tape")
        monkeypatch.setattr(cli, "cmd_metrics", misuse)
        code, _, err = run_cli(capsys, "metrics", "--recon", "r.kten",
                               "--truth", "t.kten")
        assert code == 1
        payload = stderr_json(err)
        assert payload["error"] == "TapeError"
        assert "backward" in payload["message"]

    def test_corrupt_checkpoint_is_two(self, capsys, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        build_unet(UNetConfig(channel_multiples=[1, 2], base_channels=4,
                              layer_kind="kronecker", n=2), Rng(0)).save(ckpt)
        write_kten(os.path.join(ckpt, "000_F_0.kten"), np.array([7.0]))
        kspace = str(tmp_path / "k.kten")
        write_kten(kspace, np.zeros((2, 8, 8), dtype=np.float32))
        code, _, err = run_cli(capsys, "reconstruct", "--input", kspace,
                               "--checkpoint", ckpt, "--out", str(tmp_path / "o"))
        assert code == 2
        assert stderr_json(err)["error"] == "ShapeError"


class TestGenData:
    def test_byte_identical_across_runs(self, capsys, tmp_path):
        dirs = [str(tmp_path / "a"), str(tmp_path / "b")]
        for out in dirs:
            code, _, _ = run_cli(capsys, "gen-data", "--out", out, "--count",
                                 "3", "--seed", "11", "--height", "32",
                                 "--width", "32")
            assert code == 0
        names = sorted(os.listdir(dirs[0]))
        assert names == sorted(os.listdir(dirs[1]))
        assert len(names) == 3 * 3 + 1
        for name in names:
            with open(os.path.join(dirs[0], name), "rb") as fa, \
                 open(os.path.join(dirs[1], name), "rb") as fb:
                assert fa.read() == fb.read(), name

    def test_sample_files_have_expected_shapes(self, capsys, tmp_path):
        out = str(tmp_path / "d")
        run_cli(capsys, "gen-data", "--out", out, "--count", "1", "--height",
                "32", "--width", "48")
        assert read_kten(os.path.join(out, "sample0000.truth.kten")).shape == (2, 32, 48)
        assert read_kten(os.path.join(out, "sample0000.zf.kten")).shape == (2, 32, 48)
        mask = read_kten(os.path.join(out, "sample0000.mask.kten"))
        assert mask.shape == (48,)
        assert set(np.unique(mask)) <= {0.0, 1.0}

    def test_manifest_records_the_request(self, capsys, tmp_path):
        out = str(tmp_path / "d")
        run_cli(capsys, "gen-data", "--out", out, "--count", "2", "--seed",
                "4", "--af", "16", "--height", "32", "--width", "32")
        with open(os.path.join(out, "dataset.json")) as fh:
            manifest = json.load(fh)
        assert manifest["count"] == 2 and manifest["seed"] == 4
        assert manifest["af"] == 16

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_count_below_one_is_config_error(self, capsys, tmp_path, count):
        out = tmp_path / "d"
        code, _, err = run_cli(capsys, "gen-data", "--out", str(out), "--count", count)
        assert code == 2
        assert stderr_json(err)["error"] == "ConfigError"
        assert not out.exists()

    def test_failed_manifest_write_leaves_no_sample_file(self, capsys, tmp_path):
        """With dataset.json a directory the last write fails: gen-data
        exits 4 and leaves none of the sample files it had written."""
        out = tmp_path / "d"
        (out / "dataset.json").mkdir(parents=True)
        code, stdout, err = run_cli(capsys, "gen-data", "--out", str(out), "--count", "2",
                                    "--height", "16", "--width", "16")
        assert (code, stdout) == (4, "")
        assert stderr_json(err)["error"] == "OSError"
        assert os.listdir(out) == ["dataset.json"]

    ARGV = ("--height", "16", "--width", "16", "--count")

    def test_a_smaller_rerun_removes_the_earlier_samples_beyond_its_count(
            self, capsys, tmp_path):
        out = str(tmp_path / "d")
        assert run_cli(capsys, "gen-data", "--out", out, *self.ARGV, "3")[0] == 0
        assert run_cli(capsys, "gen-data", "--out", out, *self.ARGV, "1")[0] == 0
        assert sorted(os.listdir(out)) == ["dataset.json", "sample0000.mask.kten",
                                           "sample0000.truth.kten", "sample0000.zf.kten"]

    @pytest.mark.parametrize("manifest", [None, b"{", b"[3]", b'{"count": "3"}',
                                          b'{"count": true}', b'{"seed": 1}'])
    def test_an_absent_or_malformed_earlier_manifest_removes_nothing(
            self, capsys, tmp_path, manifest):
        out = tmp_path / "d"
        assert run_cli(capsys, "gen-data", "--out", str(out), *self.ARGV, "3")[0] == 0
        if manifest is None:
            os.remove(out / "dataset.json")
        else:
            (out / "dataset.json").write_bytes(manifest)
        assert run_cli(capsys, "gen-data", "--out", str(out), *self.ARGV, "1")[0] == 0
        assert len(os.listdir(out)) == 3 * 3 + 1

    def test_a_failed_smaller_rerun_keeps_every_earlier_sample(
            self, capsys, tmp_path, monkeypatch):
        """The samples beyond the new count are removed only when the set
        commits: a rerun that fails writing its manifest leaves the earlier
        dataset byte for byte."""
        out = tmp_path / "d"
        assert run_cli(capsys, "gen-data", "--out", str(out), *self.ARGV, "3")[0] == 0
        before = tree_bytes(out)

        def fail(path, obj):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(cli, "write_json", fail)
        code, stdout, err = run_cli(capsys, "gen-data", "--out", str(out), *self.ARGV, "1",
                                    "--seed", "5")
        assert (code, stdout) == (4, "")
        assert stderr_json(err)["error"] == "OSError"
        assert tree_bytes(out) == before


class TestGenMask:
    def test_deterministic_and_binary(self, capsys, tmp_path):
        paths = [str(tmp_path / "m1.kten"), str(tmp_path / "m2.kten")]
        for p in paths:
            run_cli(capsys, "gen-mask", "--out", p, "--width", "128",
                    "--seed", "3")
        with open(paths[0], "rb") as fa, open(paths[1], "rb") as fb:
            assert fa.read() == fb.read()
        cols = read_kten(paths[0])
        assert cols.shape == (128,)
        assert set(np.unique(cols)) <= {0.0, 1.0}

    def test_matches_library_mask(self, capsys, tmp_path):
        p = str(tmp_path / "m.kten")
        _, out, _ = run_cli(capsys, "gen-mask", "--out", p, "--width", "96",
                            "--seed", "17", "--af", "8")
        lib = gen_cartesian_mask(96, 8, rng=Rng(17))
        assert np.array_equal(read_kten(p), lib.sampled)
        summary = json.loads(out)
        assert summary["sampled_fraction"] == lib.sampled_fraction
        assert summary["center_columns"] == lib.center_columns

    def test_pgm_strip(self, capsys, tmp_path):
        p = str(tmp_path / "m.kten")
        strip = str(tmp_path / "m.pgm")
        run_cli(capsys, "gen-mask", "--out", p, "--width", "64", "--pgm", strip)
        with open(strip, "rb") as fh:
            data = fh.read()
        assert data.startswith(b"P5")
        assert b"64 1" in data
        assert b"\n1\n" in data

    @pytest.mark.parametrize("pgm", ["m.kten", "./m.kten", "link"])
    def test_pgm_over_the_mask_is_config_error(self, capsys, tmp_path, monkeypatch, pgm):
        """A --pgm that names the --out file, however spelled, would leave
        the strip where the mask should be; nothing is written."""
        monkeypatch.chdir(tmp_path)
        os.symlink("m.kten", "link")
        code, stdout, err = run_cli(capsys, "gen-mask", "--out", "m.kten",
                                    "--width", "16", "--pgm", pgm)
        assert (code, stdout) == (2, "")
        assert stderr_json(err)["error"] == "ConfigError"
        assert os.listdir(tmp_path) == ["link"]

    def test_a_fifo_out_is_refused_with_exit_4(self, capsys, tmp_path):
        fifo = tmp_path / "m.kten"
        os.mkfifo(fifo)
        code, stdout, err = run_cli(capsys, "gen-mask", "--out", str(fifo), "--width", "16")
        assert (code, stdout) == (4, "")
        assert stderr_json(err) == {"error": "OSError",
                                    "message": f"{fifo}: not a regular file"}
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert os.listdir(tmp_path) == ["m.kten"]

    def test_center_covering_every_column_is_config_error(self, capsys, tmp_path):
        p = tmp_path / "m.kten"
        code, _, err = run_cli(capsys, "gen-mask", "--out", str(p), "--width", "16",
                               "--center-fraction", "0.999")
        assert code == 2
        assert "covers all 16 columns" in stderr_json(err)["message"]
        assert not p.exists()

    @pytest.mark.parametrize("bad", ["out", "pgm"])
    def test_unwritable_output_leaves_no_file(self, capsys, tmp_path, bad):
        """A gen-mask that cannot write its KTEN or its PGM strip exits 4
        and leaves neither file, even the KTEN it had already written."""
        paths = {"out": tmp_path / "m.kten", "pgm": tmp_path / "m.pgm"}
        paths[bad] = tmp_path / "nodir" / f"m.{bad}"
        code, stdout, err = run_cli(capsys, "gen-mask", "--out", str(paths["out"]),
                                    "--width", "16", "--pgm", str(paths["pgm"]))
        assert (code, stdout) == (4, "")
        assert stderr_json(err)["error"] == "OSError"
        assert os.listdir(tmp_path) == []


def rerun_argv(tmp_path, command: str, seed: int) -> tuple[list, str]:
    """(argv, last target) of one run of `command` whose outputs go under
    tmp_path/out; `seed` picks what it writes."""
    out = tmp_path / "out"
    if command == "gen-data":
        return (["gen-data", "--out", str(out), "--count", "2", "--height", "16",
                 "--width", "16", "--seed", str(seed)], str(out / "dataset.json"))
    if command == "gen-mask":
        out.mkdir(exist_ok=True)
        return (["gen-mask", "--out", str(out / "m.kten"), "--width", "64",
                 "--seed", str(seed), "--pgm", str(out / "m.pgm")], str(out / "m.pgm"))
    truth = gen_phantom(16, 16, 3, Rng(seed), dtype=np.float32)
    kpath, tpath = str(tmp_path / f"k{seed}.kten"), str(tmp_path / f"t{seed}.kten")
    write_kten(kpath, fft2c(truth).data)
    write_kten(tpath, truth.data)
    return (["reconstruct", "--input", kpath, "--truth", tpath, "--out", str(out)],
            str(out / "metrics.json"))


class TestFailedRerun:
    """A command rerun over an earlier run's outputs that fails leaves
    those outputs as they were."""

    @pytest.mark.parametrize("command", ["reconstruct", "gen-data", "gen-mask"])
    def test_a_rerun_whose_last_target_is_a_directory_keeps_every_file(
            self, capsys, tmp_path, command):
        """Exit 4 with one JSON line, every earlier file byte for byte and
        no temporary file; the same rerun, once it can write, changes them."""
        argv, last = rerun_argv(tmp_path, command, 1)
        assert run_cli(capsys, *argv)[0] == 0
        out = tmp_path / "out"
        os.remove(last)
        os.mkdir(last)
        before = tree_bytes(out)
        argv, _ = rerun_argv(tmp_path, command, 2)
        code, stdout, err = run_cli(capsys, *argv)
        assert (code, stdout) == (4, "")
        assert stderr_json(err)["error"] == "OSError"
        assert tree_bytes(out) == before
        assert os.path.isdir(last)
        os.rmdir(last)
        assert run_cli(capsys, *argv)[0] == 0
        after = tree_bytes(out)
        assert set(after) == set(before) | {os.path.relpath(last, out)}
        assert all(after[name] != data for name, data in before.items())
        assert not [name for name in after if name.endswith(".tmp")]

    @pytest.mark.parametrize("fail_at", [1, 7], ids=["first", "last"])
    def test_a_gen_data_rename_that_fails_leaves_no_manifest(
            self, capsys, tmp_path, monkeypatch, fail_at):
        """gen-data over an earlier dataset: an os.replace that fails at its
        first rename, or its last (dataset.json's), leaves no dataset.json
        and no temporary file."""
        assert run_cli(capsys, *rerun_argv(tmp_path, "gen-data", 1)[0])[0] == 0
        real, count = os.replace, [0]

        def replace(src, dst):
            count[0] += 1
            if count[0] == fail_at:
                raise OSError(errno.EIO, "Input/output error")
            real(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        code, stdout, err = run_cli(capsys, *rerun_argv(tmp_path, "gen-data", 2)[0])
        assert (code, stdout) == (4, "")
        assert stderr_json(err)["error"] == "OSError"
        left = os.listdir(tmp_path / "out")
        assert "dataset.json" not in left
        assert not [name for name in left if name.endswith(".tmp")]
        assert count[0] == fail_at

    def test_reconstruct_without_truth_removes_an_earlier_metrics_file(
            self, capsys, tmp_path):
        """Scores of an earlier image must not sit beside a new one."""
        assert run_cli(capsys, *rerun_argv(tmp_path, "reconstruct", 1)[0])[0] == 0
        argv, _ = rerun_argv(tmp_path, "reconstruct", 2)
        at = argv.index("--truth")
        del argv[at:at + 2]
        assert run_cli(capsys, *argv)[0] == 0
        assert sorted(os.listdir(tmp_path / "out")) == ["recon.kten", "recon.pgm"]


def parse_table(text: str):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = lines[0].split()
    assert header == ["layer", "dense", "kronecker", "ratio"]
    rows = []
    for line in lines[1:]:
        name, dense, kron, ratio = line.split()
        rows.append((name, int(dense), int(kron), float(ratio)))
    return rows


# Drawn `count-params` configs. Row counts grow with `blocks` and the
# length of `channel_multiples`, so both stay small.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=8)
CONFIG_SIZES = st.sampled_from([1, 2, 4, 8]) | st.integers(-2, 64) | st.just(2 ** 64) | JSON_VALUES
UNET_FIELDS = {
    "model": st.just("unet"),
    "layer_kind": st.sampled_from(["dense", "kron", "kronecker"]) | JSON_VALUES,
    "channel_multiples": st.lists(CONFIG_SIZES, max_size=4) | JSON_VALUES,
    **{key: CONFIG_SIZES for key in ("base_channels", "n", "in_channels", "out_channels")}}
ATTENTION_SIZES = {key: CONFIG_SIZES for key in ("embed_dim", "heads", "window")}
ATTENTION_FIELDS = {
    "blocks": st.sampled_from([1, 2]) | st.integers(-2, 8) | JSON_VALUES,
    **{key: CONFIG_SIZES for key in ("n", "mlp_hidden")}}
CONFIG_FILES = st.one_of(
    st.fixed_dictionaries({}, optional=UNET_FIELDS),
    st.fixed_dictionaries({"model": st.just("attention"), **ATTENTION_SIZES},
                          optional=ATTENTION_FIELDS),
    st.fixed_dictionaries({}, optional={**UNET_FIELDS, **ATTENTION_SIZES,
                                        **ATTENTION_FIELDS, "model": JSON_VALUES}),
    JSON_VALUES).map(lambda v: json.dumps(v).encode()) | st.binary(max_size=48)


class TestCountParams:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(raw=CONFIG_FILES)
    def test_fuzzed_config_is_accepted_or_rejected_cleanly(self, raw):
        """Any config file prints a table and exits 0, or exits 2 with one
        JSON stderr line and nothing on stdout."""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cfg.json")
            with open(path, "wb") as fh:
                fh.write(raw)
            code, stdout, err = run_cli_shown("count-params", "--config", path)
            assert os.listdir(tmp) == ["cfg.json"]
        assert code in (0, 2)
        if code:
            assert stdout == ""
            assert stderr_json(err)["error"] == "ConfigError"
        else:
            assert err == ""
            assert parse_table(stdout)[-1][0] == "total"

    def write_cfg(self, tmp_path, payload):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_totals_match_library_counts(self, capsys, tmp_path):
        cfg = self.write_cfg(tmp_path, {
            "model": "unet", "channel_multiples": [1, 2],
            "base_channels": 8, "n": 2})
        code, out, _ = run_cli(capsys, "count-params", "--config", cfg)
        assert code == 0
        rows = parse_table(out)
        assert rows[-1][0] == "total"
        dense = build_unet(UNetConfig(channel_multiples=[1, 2], base_channels=8,
                                      layer_kind="dense", n=1), Rng(0))
        kron = build_unet(UNetConfig(channel_multiples=[1, 2], base_channels=8,
                                     layer_kind="kronecker", n=2), Rng(0))
        assert rows[-1][1] == dense.param_count()
        assert rows[-1][2] == kron.param_count()
        assert sum(r[1] for r in rows[:-1]) == rows[-1][1]
        assert sum(r[2] for r in rows[:-1]) == rows[-1][2]
        exact = kron.param_count() / dense.param_count()
        assert abs(rows[-1][3] - exact) < 5e-5

    def test_dense_config_ratio_exactly_one(self, capsys, tmp_path):
        cfg = self.write_cfg(tmp_path, {
            "model": "unet", "channel_multiples": [1, 2],
            "base_channels": 8, "layer_kind": "dense"})
        _, out, _ = run_cli(capsys, "count-params", "--config", cfg)
        for name, dense, kron, ratio in parse_table(out):
            assert dense == kron
            assert ratio == 1.0

    @pytest.mark.parametrize("n", [4, 2])
    def test_dense_config_with_n_other_than_one_is_config_error(self, capsys, tmp_path, n):
        """A dense build takes n=1; the n of a dense config is not ignored."""
        cfg = self.write_cfg(tmp_path, {"layer_kind": "dense", "n": n})
        code, out, err = run_cli(capsys, "count-params", "--config", cfg)
        assert (code, out) == (2, "")
        assert stderr_json(err)["error"] == "ConfigError"

    def test_attention_n4_ratio_below_n2(self, capsys, tmp_path):
        ratios = {}
        for n in (2, 4):
            cfg = self.write_cfg(tmp_path, {
                "model": "attention", "embed_dim": 64, "heads": 4,
                "window": 2, "n": n})
            _, out, _ = run_cli(capsys, "count-params", "--config", cfg)
            ratios[n] = parse_table(out)[-1][3]
        assert ratios[4] < ratios[2]

    def test_attention_dense_column_is_plain_affine_count(self, capsys, tmp_path):
        cfg = self.write_cfg(tmp_path, {
            "model": "attention", "embed_dim": 16, "heads": 2, "window": 2,
            "n": 2, "mlp_hidden": 32})
        code, out, _ = run_cli(capsys, "count-params", "--config", cfg)
        assert code == 0
        rows = {r[0]: r[1] for r in parse_table(out)}

        def affine(fan_in, fan_out):
            return fan_out * fan_in + fan_out
        assert rows["block0.attn"] == 4 * affine(16, 16) == 1088
        assert rows["block0.mlp"] == affine(16, 32) + affine(32, 16) == 1072
        assert rows["total"] == 1088 + 1072

    @pytest.mark.parametrize("case", sorted(BAD_JSON))
    def test_not_json_is_config_error(self, tmp_path, case):
        path = tmp_path / "cfg.json"
        path.write_bytes(BAD_JSON[case])
        code, stdout, err = run_cli_shown("count-params", "--config", str(path))
        assert (code, stdout) == (2, "")
        assert stderr_json(err)["error"] == "ConfigError"
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize("payload", [[1, 2], "unet", 3, None])
    def test_config_not_an_object_is_config_error(self, capsys, tmp_path, payload):
        cfg = self.write_cfg(tmp_path, payload)
        code, _, err = run_cli(capsys, "count-params", "--config", cfg)
        assert code == 2
        assert stderr_json(err)["error"] == "ConfigError"

    def test_unknown_model_is_config_error(self, capsys, tmp_path):
        cfg = self.write_cfg(tmp_path, {"model": "perceptron"})
        code, _, err = run_cli(capsys, "count-params", "--config", cfg)
        assert code == 2
        assert "perceptron" in stderr_json(err)["message"]

    @pytest.mark.parametrize("field,payload", [
        ("channel_multiple", {"channel_multiples": [True, 2]}),
        ("n", {"n": True}),
        ("channel_multiple", {"channel_multiples": [1.0, 2], "base_channels": 8.0}),
        ("base_channels", {"base_channels": 1e400}),
        ("layer_kind", {"layer_kind": ["dense"]}),
        ("embed_dim", {"model": "attention", "embed_dim": 8.0, "heads": 2, "window": 2}),
        ("heads", {"model": "attention", "embed_dim": 8, "heads": True, "window": 2}),
        ("blocks", {"model": "attention", "embed_dim": 8, "heads": 2, "window": 2,
                    "blocks": 1.5}),
        ("mlp_hidden", {"model": "attention", "embed_dim": 8, "heads": 2, "window": 2,
                        "mlp_hidden": 1e400}),
        ("embed_dim", {"model": "attention", "embed_dim": {}, "heads": 2, "window": 2}),
    ])
    def test_size_that_is_not_a_plain_integer_is_config_error(self, capsys, tmp_path,
                                                              field, payload):
        cfg = self.write_cfg(tmp_path, payload)
        code, out, err = run_cli(capsys, "count-params", "--config", cfg)
        assert (code, out) == (2, "")
        error = stderr_json(err)
        assert error["error"] == "ConfigError"
        assert error["message"].startswith(f"{field} must be")


class TestMetricsCmd:
    def write_phantom(self, tmp_path, name, seed):
        img = gen_phantom(32, 32, 4, Rng(seed), dtype=np.float32).data
        path = str(tmp_path / name)
        write_kten(path, img)
        return path, img

    def test_identical_images_hit_the_sentinel(self, capsys, tmp_path):
        p, _ = self.write_phantom(tmp_path, "a.kten", 1)
        code, out, _ = run_cli(capsys, "metrics", "--recon", p, "--truth", p)
        assert code == 0
        payload = json.loads(out)
        assert math.isinf(payload["psnr_db"])
        assert payload["ssim"] == 1.0

    def test_data_range_flag(self, capsys, tmp_path):
        pa, _ = self.write_phantom(tmp_path, "a.kten", 2)
        pb, _ = self.write_phantom(tmp_path, "b.kten", 3)
        _, out_default, _ = run_cli(capsys, "metrics", "--recon", pa,
                                    "--truth", pb)
        a = json.loads(out_default)
        doubled = 2.0 * a["data_range"]
        _, out_scaled, _ = run_cli(capsys, "metrics", "--recon", pa,
                                   "--truth", pb, "--data-range", str(doubled))
        b = json.loads(out_scaled)
        assert b["data_range"] == doubled
        assert b["psnr_db"] > a["psnr_db"]

    @pytest.mark.parametrize("shape", [(0, 32), (32, 0), (2, 0, 32), (2, 32, 0), (0,)])
    @pytest.mark.parametrize("role", ["--recon", "--truth"])
    def test_empty_image_is_shape_error(self, tmp_path, role, shape):
        good, _ = self.write_phantom(tmp_path, "a.kten", 4)
        empty = str(tmp_path / "empty.kten")
        write_kten(empty, np.zeros(shape, dtype=np.float32))
        paths = {"--recon": good, "--truth": good, role: empty}
        code, out, err = run_cli_shown("metrics", *[a for kv in paths.items() for a in kv])
        assert code == 2 and out == ""
        assert stderr_json(err)["error"] == "ShapeError"

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("role", ["--recon", "--truth"])
    def test_non_finite_pixel_is_numeric_error(self, tmp_path, role, value):
        good, img = self.write_phantom(tmp_path, "a.kten", 5)
        bad = str(tmp_path / "bad.kten")
        img = img.copy()
        img[0, 7, 9] = value
        write_kten(bad, img)
        paths = {"--recon": good, "--truth": good, role: bad}
        code, out, err = run_cli_shown("metrics", *[a for kv in paths.items() for a in kv])
        assert code == 3 and out == ""
        assert stderr_json(err)["error"] == "NumericError"

    @pytest.mark.parametrize("recon,truth", [
        (np.full((16, 16), 1e300), np.full((16, 16), -1e300)),  # both scores overflow
        (np.full((16, 16), 1e160), np.full((16, 16), 1e160) + np.eye(16) * 1e150),  # ssim only
    ])
    def test_finite_pixels_whose_score_overflows_are_numeric_error(self, tmp_path,
                                                                   recon, truth):
        pa, pb = str(tmp_path / "a.kten"), str(tmp_path / "b.kten")
        write_kten(pa, recon)
        write_kten(pb, truth)
        code, out, err = run_cli_shown("metrics", "--recon", pa, "--truth", pb,
                                       "--data-range", "1")
        assert code == 3 and out == ""
        assert stderr_json(err)["error"] == "NumericError"

    def test_data_range_whose_ssim_constants_overflow_is_numeric_error(self, tmp_path):
        """Identical images give PSNR's +inf sentinel without reading the
        range, so SSIM's (K2 * range)**2 is the first to overflow."""
        pa, _ = self.write_phantom(tmp_path, "a.kten", 8)
        code, out, err = run_cli_shown("metrics", "--recon", pa, "--truth", pa,
                                       "--data-range=1e300")
        assert code == 3 and out == ""
        assert stderr_json(err)["error"] == "NumericError"

    @pytest.mark.parametrize("data_range", ["nan", "inf", "-inf", "0", "-1"])
    def test_data_range_not_finite_and_positive_is_config_error(self, tmp_path,
                                                                data_range):
        pa, _ = self.write_phantom(tmp_path, "a.kten", 6)
        pb, _ = self.write_phantom(tmp_path, "b.kten", 7)
        code, out, err = run_cli_shown("metrics", "--recon", pa, "--truth", pb,
                                       f"--data-range={data_range}")
        assert code == 2 and out == ""
        assert stderr_json(err)["error"] == "ConfigError"


class TestReconstruct:
    def make_kspace(self, tmp_path, seed=5, size=32):
        truth = gen_phantom(size, size, 4, Rng(seed), dtype=np.float32)
        k = fft2c(truth)
        kpath = str(tmp_path / "k.kten")
        tpath = str(tmp_path / "truth.kten")
        write_kten(kpath, k.data)
        write_kten(tpath, truth.data)
        mask = gen_cartesian_mask(size, 8, rng=Rng(seed + 1))
        mpath = str(tmp_path / "mask.kten")
        write_kten(mpath, mask.sampled)
        return kpath, tpath, mpath, truth, mask

    def test_zero_filled_passthrough_is_bit_exact(self, capsys, tmp_path):
        kpath, tpath, mpath, truth, mask = self.make_kspace(tmp_path)
        out = str(tmp_path / "rec")
        code, _, _ = run_cli(capsys, "reconstruct", "--input", kpath,
                             "--mask", mpath, "--truth", tpath, "--out", out)
        assert code == 0
        expected = ifft2c(apply_mask(fft2c(truth), mask.sampled)).data
        produced = read_kten(os.path.join(out, "recon.kten"))
        assert produced.dtype == expected.dtype
        assert produced.tobytes() == expected.tobytes()

    def test_writes_pgm_and_metrics(self, capsys, tmp_path):
        kpath, tpath, mpath, _, _ = self.make_kspace(tmp_path, seed=8)
        out = str(tmp_path / "rec")
        _, stdout, _ = run_cli(capsys, "reconstruct", "--input", kpath,
                               "--mask", mpath, "--truth", tpath, "--out", out)
        with open(os.path.join(out, "recon.pgm"), "rb") as fh:
            assert fh.read(2) == b"P5"
        with open(os.path.join(out, "metrics.json")) as fh:
            metrics = json.load(fh)
        assert metrics["psnr_db"] > 5.0
        assert 0.0 < metrics["ssim"] <= 1.0
        payload = json.loads(stdout)
        assert payload["mode"] == "zero_filled"
        assert payload["metrics"] == metrics

    def test_failed_metrics_write_leaves_no_image_file(self, capsys, tmp_path):
        """With metrics.json a directory the last write fails: reconstruct
        exits 4 and leaves neither recon.kten nor recon.pgm."""
        kpath, tpath, mpath, _, _ = self.make_kspace(tmp_path)
        out = tmp_path / "rec"
        (out / "metrics.json").mkdir(parents=True)
        code, stdout, err = run_cli(capsys, "reconstruct", "--input", kpath, "--mask", mpath,
                                    "--truth", tpath, "--out", str(out))
        assert (code, stdout) == (4, "")
        assert stderr_json(err)["error"] == "OSError"
        assert os.listdir(out) == ["metrics.json"]

    def test_model_mode_restores_measured_columns(self, capsys, tmp_path):
        kpath, tpath, mpath, truth, mask = self.make_kspace(tmp_path, seed=9)
        ckpt = str(tmp_path / "ckpt")
        model = build_unet(UNetConfig(channel_multiples=[1, 2],
                                      base_channels=4, layer_kind="kronecker",
                                      n=2), Rng(12))
        head_rng = Rng(13)
        for name, p in model.named_parameters():
            if name.startswith("head."):
                p.data[...] = head_rng.uniform(p.shape, -0.3, 0.3)
        model.save(ckpt)
        out = str(tmp_path / "rec")
        code, stdout, _ = run_cli(capsys, "reconstruct", "--input", kpath,
                                  "--mask", mpath, "--checkpoint", ckpt,
                                  "--truth", tpath, "--out", out)
        assert code == 0
        assert json.loads(stdout)["mode"] == "model"
        recon = read_kten(os.path.join(out, "recon.kten"))
        k_rec = fft2c(Tensor(recon)).data
        k_true = fft2c(truth).data
        sampled = np.broadcast_to(mask.sampled[None, None, :].astype(bool),
                                  k_rec.shape)
        assert np.abs((k_rec - k_true)[sampled]).max() < 5e-5
        assert np.abs((k_rec - k_true)[~sampled]).max() > 1e-3

    @pytest.mark.parametrize("value", [0.5, np.nan, 2.0, -1.0, np.inf])
    def test_mask_value_other_than_0_or_1_is_config_error(self, capsys, tmp_path, value):
        kpath, _, mpath, _, _ = self.make_kspace(tmp_path)
        cols = read_kten(mpath).copy()
        cols[0] = value
        write_kten(mpath, cols)
        out = tmp_path / "rec"
        code, _, err = run_cli(capsys, "reconstruct", "--input", kpath,
                               "--mask", mpath, "--out", str(out))
        assert code == 2
        assert stderr_json(err)["error"] == "ConfigError"
        assert not out.exists()

    def test_kspace_dtype_other_than_the_checkpoints_is_shape_error(self, capsys, tmp_path):
        kpath, _, mpath, _, _ = self.make_kspace(tmp_path)
        write_kten(kpath, read_kten(kpath).astype(np.float64))
        ckpt = str(tmp_path / "ckpt")
        build_unet(UNetConfig(channel_multiples=[1, 2], base_channels=4,
                              layer_kind="kronecker", n=2), Rng(0)).save(ckpt)
        out = tmp_path / "rec"
        code, _, err = run_cli(capsys, "reconstruct", "--input", kpath, "--mask", mpath,
                               "--checkpoint", ckpt, "--out", str(out))
        assert code == 2
        payload = stderr_json(err)
        assert payload["error"] == "ShapeError"
        assert "float64" in payload["message"] and "float32" in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize("fmt", [True, 1.0, "1", 2])
    def test_checkpoint_format_other_than_integer_one_is_config_error(self, tmp_path, fmt):
        """true and 1.0 compare equal to 1 in Python, but are not format 1."""
        kpath, _, _, _, _ = self.make_kspace(tmp_path)
        ckpt = tmp_path / "ckpt"
        build_unet(UNetConfig(channel_multiples=[1, 2], base_channels=4,
                              layer_kind="kronecker", n=2), Rng(0)).save(str(ckpt))
        manifest = json.loads((ckpt / "manifest.json").read_text())
        manifest["format"] = fmt
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "rec"
        code, stdout, err = run_cli_shown("reconstruct", "--input", kpath,
                                          "--checkpoint", str(ckpt), "--out", str(out))
        assert (code, stdout) == (2, "")
        assert stderr_json(err)["error"] == "ConfigError"
        assert not out.exists()

    @pytest.mark.parametrize("field", ["base_channels", "in_channels", "out_channels",
                                       "channel_multiples"])
    @pytest.mark.parametrize("layers_too", [False, True], ids=["config", "layers-too"])
    def test_huge_manifest_config_is_refused_before_any_build(self, tmp_path, field,
                                                              layers_too):
        """A config size over `MAX_SIZE` (10**30) is refused before the model
        is built: one JSON line and exit 2, not an OverflowError. A size in
        the cap (2**16) with layer manifests edited to match passes the
        config checks, in Python ints, but the stored arrays hold far fewer
        elements than the config's count: a ShapeError, still before any
        build (at base_channels 2**16 the model would hold 3.1e11
        parameters)."""
        size = 2**16 if layers_too else 10**30
        value = [1, size] if field == "channel_multiples" else size
        kpath, _, _, _, _ = self.make_kspace(tmp_path)
        ckpt = tmp_path / "ckpt"
        build_unet(UNetConfig(channel_multiples=[1, 2], base_channels=4,
                              layer_kind="kronecker", n=2), Rng(0)).save(str(ckpt))
        manifest = json.loads((ckpt / "manifest.json").read_text())
        manifest["config"][field] = value
        if layers_too:
            convs = blocks.unet_convs(UNetConfig(**manifest["config"]))
            for entry, (_, cin, cout, _) in zip(manifest["layers"], convs):
                entry["manifest"].update(in_channels=cin, out_channels=cout)
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "rec"
        code, stdout, err = run_cli_shown("reconstruct", "--input", kpath,
                                          "--checkpoint", str(ckpt), "--out", str(out))
        assert (code, stdout) == (2, "")
        assert stderr_json(err)["error"] == ("ShapeError" if layers_too else "ConfigError")
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(BAD_JSON))
    def test_manifest_that_is_not_json_is_config_error(self, tmp_path, case):
        kpath, _, _, _, _ = self.make_kspace(tmp_path)
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        (ckpt / "manifest.json").write_bytes(BAD_JSON[case])
        out = tmp_path / "rec"
        code, stdout, err = run_cli_shown("reconstruct", "--input", kpath,
                                          "--checkpoint", str(ckpt), "--out", str(out))
        assert (code, stdout) == (2, "")
        assert stderr_json(err)["error"] == "ConfigError"
        assert not out.exists()
        assert os.listdir(ckpt) == ["manifest.json"]

    @pytest.mark.parametrize("shape", [(16,), (1, 32)])
    def test_mask_width_mismatch_is_config_error(self, capsys, tmp_path, shape):
        kpath, _, _, _, _ = self.make_kspace(tmp_path)
        bad = str(tmp_path / "bad.kten")
        write_kten(bad, np.ones(shape, dtype=np.float32))
        out = tmp_path / "r"
        code, _, err = run_cli(capsys, "reconstruct", "--input", kpath,
                               "--mask", bad, "--out", str(out))
        assert code == 2
        assert stderr_json(err)["error"] == "ShapeError"
        assert not out.exists()

    @pytest.mark.parametrize("shape", [(2, 0, 8), (2, 8, 0), (2, 0, 0)])
    @pytest.mark.parametrize("role", ["--input", "--truth"])
    def test_empty_kspace_or_truth_is_shape_error(self, tmp_path, role, shape):
        kpath, tpath, _, _, _ = self.make_kspace(tmp_path)
        write_kten({"--input": kpath, "--truth": tpath}[role],
                   np.zeros(shape, dtype=np.float32))
        out = tmp_path / "rec"
        code, stdout, err = run_cli_shown("reconstruct", "--input", kpath,
                                          "--truth", tpath, "--out", str(out))
        assert code == 2 and stdout == ""
        assert stderr_json(err)["error"] == "ShapeError"
        assert not out.exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("role", ["--input", "--truth"])
    def test_non_finite_kspace_or_truth_is_numeric_error(self, tmp_path, role, value):
        kpath, tpath, mpath, _, _ = self.make_kspace(tmp_path)
        path = {"--input": kpath, "--truth": tpath}[role]
        arr = read_kten(path).copy()
        arr[1, 3, 4] = value
        write_kten(path, arr)
        out = tmp_path / "rec"
        code, stdout, err = run_cli_shown("reconstruct", "--input", kpath, "--mask", mpath,
                                          "--truth", tpath, "--out", str(out))
        assert code == 3 and stdout == ""
        assert stderr_json(err)["error"] == "NumericError"
        assert not out.exists()

    def test_kspace_that_overflows_the_fft_is_one_numeric_error_line(self, tmp_path):
        kpath = str(tmp_path / "k.kten")
        write_kten(kpath, np.full((2, 16, 16), 3e38, dtype=np.float32))
        out = tmp_path / "rec"
        code, stdout, err = run_cli_shown("reconstruct", "--input", kpath, "--out", str(out))
        assert code == 3 and stdout == ""
        assert stderr_json(err)["error"] == "NumericError"
        assert not out.exists()


class TestTrainCmd:
    def test_tiny_run_writes_artifacts(self, capsys, tmp_path):
        out = str(tmp_path / "run")
        code, stdout, _ = run_cli(
            capsys, "train", "--out", out, "--steps", "2", "--batch", "2",
            "--size", "16", "--ellipses", "3", "--dataset-size", "2",
            "--eval-size", "2", "--multiples", "1,2", "--base", "4",
            "--seed", "3")
        assert code == 0
        summary = json.loads(stdout)
        assert {"config", "zero_filled", "final", "psnr_gain_db",
                "final_loss"} <= set(summary)
        assert math.isfinite(summary["final_loss"])
        with open(os.path.join(out, "history.jsonl")) as fh:
            lines = fh.readlines()
        assert len(lines) == 2
        rec = json.loads(lines[0])
        assert rec["step"] == 1 and math.isfinite(rec["loss"])
        assert os.path.exists(os.path.join(out, "checkpoint", "manifest.json"))
        with open(os.path.join(out, "summary.json")) as fh:
            assert json.load(fh)["final_loss"] == summary["final_loss"]

    def test_repeat_run_is_identical(self, capsys, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = str(tmp_path / tag)
            _, stdout, _ = run_cli(
                capsys, "train", "--out", out, "--steps", "2", "--batch", "2",
                "--size", "16", "--ellipses", "3", "--dataset-size", "2",
                "--eval-size", "2", "--multiples", "1,2", "--base", "4",
                "--seed", "5")
            outs.append((out, stdout))
        summaries = []
        for _, stdout in outs:
            payload = json.loads(stdout)
            payload.pop("out")
            summaries.append(payload)
        assert summaries[0] == summaries[1]
        for name in ("history.jsonl", os.path.join("checkpoint", "manifest.json")):
            with open(os.path.join(outs[0][0], name), "rb") as fa, \
                 open(os.path.join(outs[1][0], name), "rb") as fb:
                assert fa.read() == fb.read()

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_lr_is_config_error(self, capsys, lr):
        code, out, err = run_cli(
            capsys, "train", "--steps", "1", "--batch", "2", "--size", "16",
            "--ellipses", "3", "--dataset-size", "2", "--eval-size", "2",
            "--multiples", "1", "--base", "4", "--lr", lr)
        assert code == 2
        assert out == ""
        assert "lr" in stderr_json(err)["message"]

    TINY = ("--steps", "1", "--batch", "2", "--size", "16", "--ellipses", "3",
            "--dataset-size", "2", "--eval-size", "2", "--multiples", "1",
            "--base", "4")

    @pytest.mark.parametrize("kind,n", [("dense", 1), ("kronecker", 2)])
    def test_omitted_n_is_the_kinds_default(self, capsys, kind, n):
        code, stdout, _ = run_cli(capsys, "train", *self.TINY, "--layer-kind", kind)
        assert code == 0
        cfg = json.loads(stdout)["config"]
        assert cfg["layer_kind"] == kind and cfg["n"] == n

    def test_a_run_that_fails_saving_leaves_the_earlier_run(
            self, capsys, tmp_path, monkeypatch):
        """`train --out` over an earlier run that stops on an array file:
        the earlier run is intact, the same files and bytes, and its
        checkpoint reconstructs."""
        out = str(tmp_path / "run")
        assert run_cli(capsys, "train", *self.TINY, "--seed", "1", "--out", out)[0] == 0
        before = tree_bytes(out)
        real, count = blocks.write_kten, [0]

        def flaky(*args):
            count[0] += 1
            if count[0] == 3:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real(*args)
        monkeypatch.setattr(blocks, "write_kten", flaky)
        code, stdout, err = run_cli(capsys, "train", *self.TINY, "--seed", "2", "--out", out)
        assert (code, stdout) == (4, "")
        assert stderr_json(err)["error"] == "OSError"
        monkeypatch.undo()
        assert tree_bytes(out) == before
        kpath = str(tmp_path / "k.kten")
        write_kten(kpath, np.zeros((2, 16, 16), dtype=np.float32))
        code, _, err = run_cli(capsys, "reconstruct", "--input", kpath, "--checkpoint",
                               os.path.join(out, "checkpoint"), "--out", str(tmp_path / "rec"))
        assert (code, err) == (0, "")
        assert run_cli(capsys, "train", *self.TINY, "--seed", "2", "--out", out)[0] == 0
        assert sorted(os.listdir(out)) == ["checkpoint", "history.jsonl", "summary.json"]
        assert tree_bytes(out) != before

    def test_empty_out_is_config_error_before_training(self, capsys, monkeypatch):
        """`--out ''` names no directory: refused with one JSON line before a
        step runs, not a run that trains and writes nothing."""
        def no_training(*args):
            raise AssertionError("training started")
        monkeypatch.setattr(training, "train", no_training)
        code, stdout, err = run_cli(capsys, "train", *self.TINY, "--out", "")
        assert (code, stdout) == (2, "")
        assert len(err.splitlines()) == 1
        assert stderr_json(err)["error"] == "ConfigError"

    @pytest.mark.parametrize("n", ["4", "2"])
    def test_dense_kind_with_n_other_than_one_is_config_error(self, capsys, tmp_path, n):
        """A given n is not ignored: dense takes n=1, as in count-params."""
        out = tmp_path / "run"
        code, stdout, err = run_cli(capsys, "train", *self.TINY, "--layer-kind",
                                    "dense", "--n", n, "--out", str(out))
        assert (code, stdout) == (2, "")
        assert stderr_json(err)["error"] == "ConfigError"
        assert not out.exists()


PLANTED = (0.0, 1.0, 0.5, np.nan, np.inf, -np.inf)
SIDES = st.one_of(st.sampled_from([12, 16]), st.integers(0, 20))


@st.composite
def kten_files(draw, shape, binary=False):
    """(array, damage) for one KTEN input: usually of the role's own
    `shape`, otherwise rank 0-4 with axes 0-20; float32 or float64 normal
    draws (0/1 draws for a mask) with up to three values planted from
    {0, 1, 0.5, NaN, +-inf}; damage is None, a byte count to cut off the
    end, or "magic"."""
    if draw(st.integers(0, 5)) == 0:
        shape = tuple(draw(st.lists(st.integers(0, 20), max_size=4)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.integers(0, 2, shape) if binary else rng.standard_normal(shape)
    arr = values.astype(draw(st.sampled_from([np.float32, np.float32, np.float64])))
    if arr.size:
        for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 2, 3]))):
            arr.flat[draw(st.integers(0, arr.size - 1))] = draw(st.sampled_from(PLANTED))
    damage = draw(st.sampled_from([None] * 10 + ["cut", "magic"]))
    if damage == "cut":
        damage = draw(st.integers(1, 64))
    return arr, damage


def write_damaged(path, arr, damage):
    write_kten(path, arr)
    if damage == "magic":
        with open(path, "r+b") as fh:
            fh.write(b"KTEM")
    elif damage is not None:
        os.truncate(path, max(0, os.path.getsize(path) - damage))
    return path


def check_outcome(code, stdout, err):
    """Exit 0 with a JSON result and a silent stderr, or a documented
    failure code with one JSON error line and nothing on stdout."""
    assert code in (0, 2, 3, 4)
    if code:
        assert stdout == ""
        stderr_json(err)
        return None
    assert err == ""
    return json.loads(stdout)


def check_scores(scores):
    assert math.isfinite(scores["ssim"])
    assert math.isfinite(scores["psnr_db"]) or scores["psnr_db"] == math.inf


class TestKtenBoundaryGate:
    """`reconstruct` and `metrics` on drawn KTEN inputs: every input is
    either accepted or rejected with a documented exit code and one JSON
    stderr line, and a rejected `reconstruct` writes nothing."""

    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("gate") / "ckpt")
        model = build_unet(UNetConfig(channel_multiples=[1, 2], base_channels=2,
                                      layer_kind="kronecker", n=2), Rng(40))
        model.save(path)
        return path

    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              suppress_health_check=list(HealthCheck))
    @given(data=st.data())
    def test_inputs_are_accepted_or_rejected_cleanly(self, checkpoint, data):
        h, w = data.draw(SIDES), data.draw(SIDES)
        drawn = {"--input": data.draw(kten_files((2, h, w))),
                 "--mask": data.draw(st.none() | kten_files((w,), binary=True)),
                 "--truth": data.draw(st.none() | kten_files((2, h, w)))}
        metric_files = {"--recon": data.draw(kten_files(data.draw(st.sampled_from(
                            [(2, h, w), (h, w)])))),
                        "--truth": data.draw(kten_files((h, w)))}
        data_range = data.draw(st.sampled_from([None, "1.0", "0", "-1", "nan", "inf"]))
        with tempfile.TemporaryDirectory() as tmp:
            argv = ["reconstruct", "--out", os.path.join(tmp, "rec")]
            for flag, file in drawn.items():
                if file is not None:
                    argv += [flag, write_damaged(os.path.join(tmp, flag[2:]), *file)]
            if data.draw(st.booleans()):
                argv += ["--checkpoint", checkpoint]
            result = check_outcome(*run_cli_shown(*argv))
            if result is None:
                assert not os.path.exists(os.path.join(tmp, "rec"))
            elif "metrics" in result:
                check_scores(result["metrics"])

            argv = ["metrics"] + ([f"--data-range={data_range}"] if data_range else [])
            for flag, file in metric_files.items():
                argv += [flag, write_damaged(os.path.join(tmp, "m" + flag[2:]), *file)]
            result = check_outcome(*run_cli_shown(*argv))
            if result is not None:
                check_scores(result)


# Drawn argv values for the fuzzed-argv gate. Sizes, counts and steps are
# drawn small (no draw allocates more than a few MB or trains more than two
# steps) or above `MAX_SIZE` (OVER_CAP, refused before anything is built),
# never in between; seeds and floats range freely; NOT_NUMBERS are texts
# argparse must refuse or read as the small numbers they spell.
NOT_NUMBERS = ["", "x", "1.5", "nan", "inf", "0x10", "1e3", "+2", " 3", "1_0", "٣", "-0"]
OVER_CAP = [str(MAX_SIZE + 1), str(10**30), str(2**63)]
FLOATS = (st.sampled_from(["nan", "inf", "-inf", "0", "-0", "1e-300", "1e300", "1", "x", ""])
          | st.floats().map(repr))
SEEDS = st.integers(-2 ** 70, 2 ** 70).map(str) | st.sampled_from(NOT_NUMBERS)


def mostly(valid, invalid=("-1", "0", *OVER_CAP)):
    """One of `valid` three draws in four, else one of `invalid` or of
    NOT_NUMBERS, so that most drawn commands get past their checks."""
    return st.integers(0, 3).flatmap(lambda i: st.sampled_from(
        list(valid) if i else list(invalid) + NOT_NUMBERS))


def sizes(lo, hi):
    return mostly([str(v) for v in range(lo, hi + 1)])


AFS = mostly(["8", "16"], ["4"])


@st.composite
def fuzzed_argv(draw, inputs, out):
    """(argv, command) for one subcommand, every option drawn or left out;
    options that would train long or allocate much are always given.
    `inputs` names the prepared files, `out` the path outputs go under."""
    command = draw(st.sampled_from(COMMANDS))
    opts = {
        "gen-data": {"--count": sizes(1, 2), "--seed": SEEDS, "--af": AFS,
                     "--height": sizes(16, 40), "--width": sizes(16, 40),
                     "--ellipses": sizes(1, 8)},
        "gen-mask": {"--width": sizes(16, 400), "--af": AFS, "--center-fraction": FLOATS,
                     "--seed": SEEDS, "--pgm": st.just(out + ".pgm")},
        "train": {"--out": st.just(out), "--seed": SEEDS, "--af": AFS, "--lr": FLOATS,
                  "--layer-kind": mostly(["dense", "kron", "kronecker"], ["x"]),
                  "--n": sizes(1, 2), "--ellipses": sizes(1, 8),
                  "--eval-every": sizes(0, 3)},
        "reconstruct": {key: mostly([inputs[key[2:]]], [out + ".missing"])
                        for key in ("--mask", "--checkpoint", "--truth")},
        "metrics": {"--data-range": FLOATS},
        "count-params": {},
        "verify-algebra": {"--algebra": mostly(["complex", "quaternion", "all"], ["x"]),
                           "--trials": sizes(1, 20), "--seed": SEEDS, "--tol": FLOATS},
        "grad-check": {"--seed": SEEDS, "--h": FLOATS, "--tol": FLOATS}}[command]
    always = {
        "gen-data": {"--out": st.just(out)},
        "gen-mask": {"--out": st.just(out + ".kten")},
        "train": {"--steps": sizes(1, 2), "--batch": sizes(1, 3), "--base": mostly(["2", "4"]),
                  "--multiples": mostly(["1,2", "2", "1,2,2"], ["", "0", "-1,2", "1,,2", "a",
                                                              *(f"1,{v}" for v in OVER_CAP)]),
                  "--size": mostly(["16", "24"], ["-1", "0", "17", *OVER_CAP]),
                  "--dataset-size": sizes(1, 4), "--eval-size": sizes(1, 2)},
        "reconstruct": {"--input": st.just(inputs["input"]), "--out": st.just(out)},
        "metrics": {"--recon": st.just(inputs["truth"]), "--truth": st.just(inputs["truth"])},
        "count-params": {"--config": mostly([inputs["config"]], [out + ".missing"])},
        # "unet" and "all" take seconds per check, so the gate leaves them out
        "grad-check": {"--target": mostly(["linear", "conv", "mlp", "attention", "loss"],
                                          ["x"])},
    }.get(command, {})
    argv = [command]
    for flag, values in {**always, **opts}.items():
        if flag in always or draw(st.booleans()):
            argv.append(f"{flag}={draw(values)}")
    return argv, command


class TestFuzzedArgv:
    """Every subcommand on drawn argv: exit 0, or exit 2, 3 or 4 with one
    JSON stderr line (warnings counted) and no file written."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("argv")
        truth = gen_phantom(16, 16, 3, Rng(41), dtype=np.float32)
        paths = {name: str(root / f"{name}.kten") for name in ("input", "truth", "mask")}
        write_kten(paths["input"], fft2c(truth).data)
        write_kten(paths["truth"], truth.data)
        write_kten(paths["mask"], gen_cartesian_mask(16, 8, rng=Rng(42)).sampled)
        paths["checkpoint"] = str(root / "ckpt")
        build_unet(UNetConfig(channel_multiples=[1, 2], base_channels=2,
                              layer_kind="kronecker", n=2), Rng(43)).save(paths["checkpoint"])
        paths["config"] = str(root / "cfg.json")
        with open(paths["config"], "w") as fh:
            json.dump({"model": "unet", "channel_multiples": [1, 2], "base_channels": 4}, fh)
        return paths

    @settings(max_examples=400, deadline=None, derandomize=True, database=None,
              suppress_health_check=list(HealthCheck))
    @given(data=st.data())
    def test_argv_is_accepted_or_rejected_cleanly(self, inputs, data):
        with tempfile.TemporaryDirectory() as tmp:
            argv, command = data.draw(fuzzed_argv(inputs, os.path.join(tmp, "out")))
            code, stdout, err = run_cli_shown(*argv)
            written = os.listdir(tmp)
        assert code in (0, 2, 3, 4)
        if code:
            assert written == []
            stderr_json(err)
        else:
            assert err == ""
            if command != "count-params":
                json.loads(stdout)
