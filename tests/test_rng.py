"""SplitMix64 stream: reference vectors, batching, forking, determinism."""

import os
import subprocess
import sys

import numpy as np

from kronmri import rng as rng_module
from kronmri.rng import Rng

# First three outputs of the reference sequential generator for seed 0.
REFERENCE_SEED0 = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


class TestRawStream:
    def test_reference_vectors_seed0(self):
        out = Rng(0).integers(3)
        assert [int(v) for v in out] == REFERENCE_SEED0

    def test_batching_invariance(self):
        a = Rng(31337).integers(64)
        r = Rng(31337)
        b = np.concatenate([r.integers(n) for n in (1, 2, 3, 10, 48)])
        assert np.array_equal(a, b)

    def test_distinct_seeds_distinct_streams(self):
        assert not np.array_equal(Rng(1).integers(8), Rng(2).integers(8))

    def test_counter_advances(self):
        r = Rng(7)
        first = r.integers(4)
        second = r.integers(4)
        assert not np.array_equal(first, second)


class TestUniform:
    def test_range_and_dtype(self):
        u = Rng(5).uniform((1000,), low=-2.0, high=3.0)
        assert u.dtype == np.float64
        assert u.min() >= -2.0 and u.max() < 3.0

    def test_float32_matches_float64_draws(self):
        a = Rng(9).uniform((100,), dtype=np.float64)
        b = Rng(9).uniform((100,), dtype=np.float32)
        assert np.array_equal(a.astype(np.float32), b)

    def test_mean_of_unit_uniform(self):
        u = Rng(1234).uniform((20000,))
        assert abs(u.mean() - 0.5) < 0.01

    def test_shape_handling(self):
        assert Rng(1).uniform((3, 4)).shape == (3, 4)
        assert Rng(1).uniform(5).shape == (5,)

    def test_scalar_count_matches_batch(self):
        flat = Rng(77).uniform((6,))
        grid = Rng(77).uniform((2, 3))
        assert np.array_equal(flat.reshape(2, 3), grid)


class TestForkShuffle:
    def test_fork_changes_stream(self):
        base = Rng(42)
        child = base.fork(0)
        assert not np.array_equal(child.integers(4), Rng(42).integers(4))

    def test_fork_deterministic(self):
        a = Rng(42).fork(3, 17).uniform((8,))
        b = Rng(42).fork(3, 17).uniform((8,))
        assert np.array_equal(a, b)

    def test_fork_tags_independent(self):
        assert not np.array_equal(Rng(42).fork(0).integers(4),
                                  Rng(42).fork(1).integers(4))

    def test_shuffle_is_permutation(self):
        perm = Rng(11).shuffle(50)
        assert sorted(perm.tolist()) == list(range(50))

    def test_shuffle_deterministic(self):
        assert np.array_equal(Rng(11).shuffle(50), Rng(11).shuffle(50))

    def test_shuffle_small(self):
        assert Rng(1).shuffle(0).tolist() == []
        assert Rng(1).shuffle(1).tolist() == [0]


class TestCrossProcess:
    def test_identical_bytes_across_processes(self):
        code = ("from kronmri.rng import Rng; import sys; "
                "sys.stdout.buffer.write(Rng(2024).uniform((64,)).tobytes())")
        # the children import the kronmri this test imported, not an installed one
        src = os.path.dirname(os.path.dirname(os.path.abspath(rng_module.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        runs = [subprocess.run([sys.executable, "-c", code], env=env,
                               capture_output=True, check=True).stdout
                for _ in range(2)]
        assert runs[0] == runs[1]
        assert len(runs[0]) == 64 * 8
