#!/usr/bin/env python3
"""kronmri benchmark.

One workload, in this process:

    python3 perfbench/run.py --workload train-desk --seed 0 --seconds 20 --trace 0

Every workload, each in a fresh process, with a table of the results:

    python3 perfbench/run.py --all --seed 0 --seconds 20 --trace 0 [--out results.json]

With --trace 0 a run reports the end-to-end metrics; with --trace 1 it
reports the per-layer metrics from spans and the per-layer replay. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the environment,
the run's details, any failed output checks (which make "correct" false)
and any failed gates on the traced measurement (which fail --all). It
builds nothing and imports kronmri from the src/ directory beside
perfbench/.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("train-desk", "train-dense", "recon-320", "phm-blocks")
SETUP_REPS = 5
# A run must end within 180 s; stop measuring well before that.
DEADLINE_S = 140.0
COVERAGE_GATE = 0.9


def cap_blas_threads() -> str:
    """Limit BLAS/OpenMP threads to the CPUs this process may use. Must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            want = int(os.environ.get(var, nproc))
        except ValueError:
            want = nproc
        os.environ[var] = str(max(1, min(want, nproc)))
    return os.environ["OPENBLAS_NUM_THREADS"]


def import_kronmri() -> None:
    """Import kronmri from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "kronmri", "cli.py")):
        sys.exit(f"perfbench: no kronmri sources under {SRC}")
    sys.path.insert(0, SRC)
    import kronmri.cli
    where = os.path.dirname(os.path.dirname(os.path.abspath(kronmri.cli.__file__)))
    if where != SRC:
        sys.exit(f"perfbench: kronmri imported from {where}, not {SRC}")


def declared_metrics(trace: int):
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def time_setups(args) -> list[float]:
    """Set the workload up SETUP_REPS times, each in a fresh process, and
    time each from the process's start until it is ready for its first
    operation."""
    import harness
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            rc = proc.wait(timeout=60)
        if rc != 0 or line.strip() != "ready":
            raise harness.CheckFailed(f"set-up process exited {rc}, said {line.strip()!r}")
    return times


def setup_probe(args) -> int:
    """What a run does from its start to its first operation, apart from
    generating and storing its inputs."""
    blas_threads = cap_blas_threads()
    import_kronmri()
    import harness
    import workloads
    harness.environment(args.seed, blas_threads)
    workloads.WORKLOADS[args.workload](args.seed, None).build()
    print("ready", flush=True)
    return 0


def run_one(args) -> int:
    blas_threads = cap_blas_threads()
    import_kronmri()
    import harness
    import workloads
    from kronmri.tensor import mac_count
    import_s = time.perf_counter() - T_START
    deadline = T_START + DEADLINE_S

    env = harness.environment(args.seed, blas_threads)
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    ops = harness.op_count(args.seconds * wl.seconds_factor, wl.nominal_op_s, wl.min_ops)
    problems, gates, attempted, failed = [], [], 0, 0
    metrics, detail = {}, {}
    try:
        arrays = wl.generate()
        digest = harness.array_digest(arrays)
        if harness.array_digest(wl.generate()) != digest:
            raise harness.CheckFailed("inputs differ between two generations from one seed")
        wl.prepare(arrays)
        t0 = time.perf_counter()
        wl.build()
        detail.update(input_sha256=digest, import_s=import_s,
                      build_s=time.perf_counter() - t0, ops=ops)

        if args.trace:
            import replay
            plain, failed = harness.measure(wl, harness.NullTracer(), ops - ops // 2,
                                            mac_count, deadline)
            tr = harness.Tracer()
            with workloads.instrumented(tr):
                traced, failed_t = harness.measure(wl, tr, ops // 2, mac_count, deadline)
            attempted = len(plain) + len(traced) + failed + failed_t
            failed += failed_t
            detail.update(quality=wl.quality(), untraced_ops=len(plain), traced_ops=len(traced))
            metrics = replay.layer_metrics(wl, tr, plain, traced, args.seed)
            # A gate on the measurement, not a check of kronmri's outputs:
            # it fails --all, and leaves "correct" to the output checks.
            if metrics["trace.coverage"] < COVERAGE_GATE:
                gates.append(f"trace coverage {metrics['trace.coverage']:.3f} "
                             f"is below {COVERAGE_GATE}")
            out_dir = os.path.join(ROOT, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            with open(os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json"),
                      "w") as fh:
                json.dump({"env": env, "metrics": metrics,
                           "self_ms": harness.self_times_ms(tr), **tr.dump()}, fh)
        else:
            times, failed = harness.measure(wl, harness.NullTracer(), ops, mac_count, deadline)
            attempted = len(times) + failed
            quality = wl.quality()
            pct, block, tail = harness.run_tail(times)
            setups = time_setups(args)
            metrics = {
                "setup_s": harness.median(setups),
                "latency_ms.p50": harness.median(times) * 1e3,
                "latency_ms.tail": tail * 1e3,
                "items_per_s": wl.items_per_op * len(times) / sum(times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "loss_end_rel": quality["loss_end_rel"],
                "psnr_db": quality["psnr_db"],
            }
            detail.update(quality=quality, samples=len(times), tail_percentile=pct,
                          tail_block=block,
                          setup_probes_s=setups, failed_frac=failed / max(attempted, 1))
    except harness.CheckFailed as err:
        problems.append(str(err))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = declared_metrics(args.trace)
    if metrics and set(metrics) != set(units):
        problems.append(f"metric names differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(units))}")
    print(json.dumps({"workload": args.workload, "trace": args.trace, "env": env,
                      "detail": detail, "problems": problems, "gates": gates}))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": max(attempted, 1), "failed": failed,
        "metrics": {name: {"value": value, "unit": units.get(name, "")}
                    for name, value in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; print every metric with its unit.
    Fails if any run fails, any check or gate fails or any operation fails."""
    ok = True
    report = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "workloads": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
        report["workloads"][name] = {**info, **result}
        report["env"] = info["env"]
        good = result["correct"] and result["failed"] == 0 and not info["gates"]
        ok = ok and good
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}"
              + ("" if good else f" problems={info['problems']} gates={info['gates']}"))
        for metric, m in result["metrics"].items():
            print(f"   {metric:<34} {m['value']:>16.6g} {m['unit']}")
        d = info["detail"]
        if "tail_percentile" in d:
            tail = f"p{d['tail_percentile']} of {d['samples']} operations"
            if d["tail_block"] < d["samples"]:
                tail = (f"median of the p{d['tail_percentile']} of each block of "
                        f"{d['tail_block']}, over {d['samples']} operations")
            print(f"   (tail = {tail}; failed_frac {d['failed_frac']:.3g})")
    print(json.dumps({"env": report.get("env")}))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true", help="run every workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="with --all: write the results here as JSON")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    if args.all:
        return run_all(args)
    if args.workload is None:
        p.error("give --workload or --all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
