"""Tests of the benchmark's own rules. Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import harness  # noqa: E402


@pytest.mark.parametrize("n", [11, 12, 19, 20, 57, 100, 1001])
def test_tail_is_highest_percentile_with_ten_samples_above(n):
    rng = random.Random(n)
    xs = [rng.random() for _ in range(n)]
    p, value = harness.tail_percentile(xs)
    assert sum(x > value for x in xs) >= harness.TAIL_ABOVE
    if p < 99:
        # one percentile up (nearest rank), fewer than ten samples lie above
        rank = -(-(p + 1) * n // 100)
        assert sum(x > sorted(xs)[rank - 1] for x in xs) < harness.TAIL_ABOVE


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        harness.tail_percentile([float(i) for i in range(harness.TAIL_ABOVE)])


def test_tail_counts_only_samples_strictly_above():
    # 30 equal values at the top: nothing lies above them, so the tail falls
    # back to the percentile under the tie.
    xs = [1.0] * 70 + [2.0] * 30
    p, value = harness.tail_percentile(xs)
    assert value == 1.0 and p == 70


def test_short_run_tail_is_the_tail_of_all_samples():
    xs = [float(i) for i in range(2 * harness.TAIL_BLOCK - 1)]
    p, value = harness.tail_percentile(xs)
    assert harness.run_tail(xs) == (p, len(xs), value)


def test_long_run_tail_is_the_median_of_block_tails():
    block = harness.TAIL_BLOCK
    rng = random.Random(3)
    blocks = [[rng.random() + b for _ in range(block)] for b in range(5)]
    # a burst: the third block's slowest operations take far longer
    blocks[2] = [x + 100.0 * (x > 2.5) for x in blocks[2]]
    p, size, value = harness.run_tail([x for b in blocks for x in b])
    tails = sorted(harness.tail_percentile(b)[1] for b in blocks)
    assert (p, size, value) == (harness.tail_percentile(blocks[0])[0], block, tails[2])
    # a remainder joins the last block
    p, size, value = harness.run_tail([x for b in blocks for x in b] + [1e9] * 5)
    assert size == block and value == tails[2]


def test_metric_names_follow_the_rule():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert harness.check_metric_name(name) == name
    for bad in ("", "a b", ".lead", "-lead", "lat/ms", "x" * 65, "ms\n"):
        with pytest.raises(ValueError):
            harness.check_metric_name(bad)


def _digest(workload: str, seed: int) -> str:
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
            "import harness, workloads\n"
            "wl = workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4]), 'unused')\n"
            "print(harness.array_digest(wl.generate()))\n")
    out = subprocess.run([sys.executable, "-c", code, HERE, os.path.join(ROOT, "src"),
                          workload, str(seed)],
                         capture_output=True, text=True, timeout=120, check=True)
    return out.stdout.strip()


@pytest.mark.parametrize("workload", ["train-desk", "train-dense", "recon-320", "phm-blocks"])
def test_inputs_are_a_function_of_the_seed(workload):
    first = _digest(workload, 3)
    assert first == _digest(workload, 3)
    assert first != _digest(workload, 4)


def test_self_time_and_attributed_work():
    tr = harness.Tracer()
    with tr.span("outside an operation", "fwd"):
        pass
    assert tr.spans == []
    with tr.op() as root:
        with tr.span("model") as model:
            with tr.span("tensor.op", "fwd") as a:
                with tr.span("tensor.inner", "fwd") as inner:
                    pass
            with tr.span("tensor.vjp.op", "bwd") as b:
                pass
        with tr.span("adam", "call") as c:
            pass
    # fix the clock so the arithmetic is exact
    root.start, root.end = 0.0, 10.0
    model.start, model.end = 1.0, 6.0
    a.start, a.end = 1.5, 3.0
    inner.start, inner.end = 2.0, 2.5
    b.start, b.end = 3.5, 5.0
    c.start, c.end = 5.5, 8.0   # overlaps model: the union, not the sum, is covered
    (op,) = tr.per_op()
    assert op["root"] == 10.0
    assert op["self"]["model"] == 2.0
    assert op["self"]["op"] == 3.0
    # nested work counts once, through the outermost work span
    assert op["work"] == {"fwd": 1.5, "bwd": 1.5, "call": 2.5}
    assert [s[3] for s in tr.dump()["spans"]] == [None, 0, 1, 2, 1, 0]


def test_measure_runs_a_fixed_number_of_operations():
    class Counter:
        def __init__(self):
            self.done = []

        def op(self, tr):
            if len(self.done) == 2:
                self.done.append("failed")
                raise RuntimeError("one failure")
            return len(self.done)

        def record(self, outcome):
            self.done.append(outcome)

    wl = Counter()
    times, failed = harness.measure(wl, harness.NullTracer(), 5, lambda: 0, float("inf"))
    assert (len(times), failed) == (4, 1)
    with pytest.raises(harness.CheckFailed):
        harness.measure(Counter(), harness.NullTracer(), 5, lambda: 0, 0.0)


def test_op_count_depends_on_seconds_only():
    assert harness.op_count(25, 0.52, 24) == 48
    assert harness.op_count(25, 2.0, 4) == 12
    assert harness.op_count(1, 2.0, 4) == harness.TAIL_ABOVE + 1
    assert harness.op_count(1, 0.025, 200) == 200
