"""Measurement plumbing shared by the workloads: the closed loop, spans,
summary statistics, metric-name rules and the environment record.

Nothing here imports kronmri, so the rules can be tested on their own.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import platform
import re
import statistics
import sys
import time
import traceback

import numpy as np

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")
TAIL_ABOVE = 10
# Runs of two blocks or more take their tail per block of this many
# operations; see `run_tail`.
TAIL_BLOCK = 100


class CheckFailed(Exception):
    """An output check failed; the run is reported as not correct."""


def check_metric_name(name: str) -> str:
    """Return `name` if it is a legal metric name, else raise ValueError."""
    if not METRIC_NAME.fullmatch(name) or len(name) > 64 or not name[0].isalnum():
        raise ValueError(f"bad metric name {name!r}")
    return name


def tail_percentile(samples) -> tuple[int, float]:
    """Highest whole percentile that has at least TAIL_ABOVE samples strictly
    above its nearest-rank value; returns (percentile, value).

    Raises ValueError when no percentile qualifies (fewer than
    TAIL_ABOVE + 1 samples, or too many ties at the top).
    """
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 0, -1):
        value = xs[max(math.ceil(p * n / 100), 1) - 1]
        if sum(1 for x in xs if x > value) >= TAIL_ABOVE:
            return p, value
    raise ValueError(f"{n} samples: no percentile has {TAIL_ABOVE} samples above it")


def run_tail(samples) -> tuple[int, int, float]:
    """A run's tail latency: (percentile, samples per block, value).

    A run of fewer than 2 * TAIL_BLOCK samples is one block, and its tail is
    `tail_percentile` of all of them. A longer run is cut into consecutive
    blocks of TAIL_BLOCK samples (the last one takes any remainder), and its
    tail is the median of the blocks' `tail_percentile` values, so that a
    burst of load from other tenants of a shared host moves one block's
    tail, not the run's. The percentile returned is that of a full block.
    """
    n = len(samples)
    if n < 2 * TAIL_BLOCK:
        p, value = tail_percentile(samples)
        return p, n, value
    k = n // TAIL_BLOCK
    starts = [i * TAIL_BLOCK for i in range(k)] + [n]
    tails = [tail_percentile(samples[a:b]) for a, b in zip(starts, starts[1:])]
    return tails[0][0], TAIL_BLOCK, median([value for _, value in tails])


def array_digest(arrays) -> str:
    """sha256 over the shapes, dtypes and bytes of `arrays`, in order."""
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "kind", "under_work", "tracer")

    def __init__(self, tracer, name, parent, op, kind):
        self.tracer = tracer
        self.name = name
        self.parent = parent
        self.op = op
        self.kind = kind
        self.under_work = parent is not None and (parent.kind is not None or parent.under_work)
        self.start = self.end = 0.0

    def __enter__(self):
        self.tracer._stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """In-memory span recorder. `op()` opens an operation's root span; every
    span opened inside it belongs to that operation (`op`) and names the
    span it was opened inside (`parent`). Spans opened outside an operation
    are not recorded.

    A span's `kind` says whether its time is attributed work: "fwd" for a
    tensor op's forward call, "bwd" for its vector-Jacobian product inside
    `backward`, "call" for a library call that runs no tensor op (Adam,
    KTEN I/O, metrics). None marks a structural span (a model, a layer, the
    whole `backward`), whose time is attributed only through the work spans
    inside it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: list[dict] = []
        self._stack: list[Span] = []

    def op(self) -> Span:
        self.counts.append({})
        s = Span(self, "op", None, len(self.counts) - 1, None)
        self.spans.append(s)
        return s

    def span(self, name: str, kind: str | None = None):
        if not self._stack:
            return _NULL
        parent = self._stack[-1]
        s = Span(self, name, parent, parent.op, kind)
        self.spans.append(s)
        return s

    def count(self, name: str, n: int) -> None:
        """Add `n` to a per-operation counter of the open operation."""
        if self._stack:
            c = self.counts[self._stack[0].op]
            c[name] = c.get(name, 0) + n

    def wrap(self, fn, name: str, kind: str | None = None):
        """`fn` with every call recorded as a span called `name`."""
        def traced(*args, **kwargs):
            with self.span(name, kind):
                return fn(*args, **kwargs)
        return traced

    def per_op(self) -> list[dict]:
        """Per operation: root duration; summed duration and summed self
        time per span name; and per kind, the summed duration of the work
        spans that lie inside no other work span, so nested work is
        counted once."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(id(s.parent), []).append(s)
        ops = [{"total": {}, "self": {}, "work": {}, "counts": c, "root": 0.0}
               for c in self.counts]
        for s in self.spans:
            rec = ops[s.op]
            dur = s.end - s.start
            rec["total"][s.name] = rec["total"].get(s.name, 0.0) + dur
            rec["self"][s.name] = (rec["self"].get(s.name, 0.0) + dur
                                   - _covered(children.get(id(s), [])))
            if s.parent is None:
                rec["root"] = dur
            elif s.kind is not None and not s.under_work:
                rec["work"][s.kind] = rec["work"].get(s.kind, 0.0) + dur
        return ops

    def dump(self) -> dict:
        index = {id(s): i for i, s in enumerate(self.spans)}
        return {"fields": ["name", "start_s", "end_s", "parent", "op", "kind"],
                "spans": [[s.name, s.start, s.end,
                           None if s.parent is None else index[id(s.parent)], s.op, s.kind]
                          for s in self.spans]}


def _covered(spans) -> float:
    """Length of the union of the spans' intervals."""
    total, end = 0.0, -math.inf
    for s in sorted(spans, key=lambda s: s.start):
        if s.end > end:
            total += s.end - max(s.start, end)
            end = s.end
    return total


_NULL = contextlib.nullcontext()


class NullTracer:
    """Tracing off: spans cost one attribute lookup and a no-op `with`."""

    def op(self):
        return _NULL

    def span(self, name: str, kind: str | None = None):
        return _NULL

    def count(self, name: str, n: int) -> None:
        pass


def op_count(seconds: float, nominal_op_s: float, min_ops: int) -> int:
    """Operations one run times: about `seconds` of work at the workload's
    nominal operation time, and at least `min_ops`. The count depends on
    `seconds` only, not on how fast the code runs, so the tail percentile
    is the same on every run."""
    return max(min_ops, TAIL_ABOVE + 1, round(seconds / nominal_op_s))


def measure(wl, tr, ops: int, mac_count, deadline: float):
    """Closed loop, one client: run `ops` operations of `wl.op`, one after
    the other. Each outcome is checked and recorded by `wl.record` outside
    the timed region. Fails the run if `deadline` (a `time.perf_counter`
    value) passes first. Returns (op times, failures)."""
    times, failed = [], 0
    while len(times) + failed < ops:
        if time.perf_counter() > deadline:
            raise CheckFailed(f"{len(times) + failed} of {ops} operations done "
                              f"before the deadline")
        t0 = time.perf_counter()
        try:
            with tr.op():
                m0 = mac_count()
                outcome = wl.op(tr)
                tr.count("tensor.macs", mac_count() - m0)
        except Exception:  # a failed operation is counted, and the loop goes on
            traceback.print_exc(file=sys.stderr)
            failed += 1
            continue
        times.append(time.perf_counter() - t0)
        wl.record(outcome)
    return times, failed


def median(values) -> float:
    return float(statistics.median(values))


def self_times_ms(tr: Tracer) -> dict:
    """Per span name, the median over operations of its summed self time,
    in ms, largest first. An operation without the span counts 0."""
    ops = tr.per_op()
    names = {name for op in ops for name in op["self"]}
    times = {name: median([op["self"].get(name, 0.0) for op in ops]) * 1e3 for name in names}
    return dict(sorted(times.items(), key=lambda kv: -kv[1]))


def environment(seed: int, blas_threads: str) -> dict:
    """What bitwise determinism and GEMM speed depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads, "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "seed": seed}
