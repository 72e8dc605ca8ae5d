#!/usr/bin/env python3
"""Benchmark of simplespectrum: four workloads, end-to-end and per layer.

    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 0

`--trace 0` prints the end-to-end metrics of BENCHMARK.json; `--trace 1`
runs the traced pass and prints the per-layer metrics.  Human-readable
lines come first; the last line of standard output is one JSON object
with keys correct, attempted, failed and metrics.  Each run also writes
bench/out/<workload>-s<seed>-t<trace>.json with the environment, and a
traced run writes its spans to bench/out/trace-<workload>-s<seed>.json.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 7
# An interpreter that imports only what the package itself needs, and the
# time it takes on the machine the benchmark was built on (Intel Xeon,
# 2 vCPU, Python 3.11, numpy 2.4).
BARE_CMD = [sys.executable, "-c", "import numpy, fractions"]
BARE_S = 0.15
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads():
    """Cap BLAS and OpenMP pools at nproc before numpy is imported."""
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        n = nproc()
        os.environ[var] = str(min(int(current), n) if current.isdigit() else n)


def load_package():
    """Import simplespectrum from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "simplespectrum" / "__init__.py").is_file():
        sys.exit(f"run.py: no package source under {src}")
    sys.path.insert(0, str(src))
    import simplespectrum

    if Path(simplespectrum.__file__).resolve().parent != src / "simplespectrum":
        sys.exit(f"run.py: imported simplespectrum from {simplespectrum.__file__}")


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc(), "cpu": cpu,
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARS}, "git_commit": commit,
    }


def run_child(cmd, timeout=120):
    """Run cmd to its end.  The wait blocks rather than polls, so its time
    is not rounded up to a polling step (up to 50 ms with a timeout)."""
    with subprocess.Popen(cmd, stdout=subprocess.DEVNULL) as proc:
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
    if code:
        raise subprocess.CalledProcessError(code, cmd)


def setup_seconds(args) -> list[float]:
    """Fresh interpreters that import the package, build the workload's
    inputs and finish one warm-up item, each timed against a bare
    interpreter run right after it: its time over the bare one's, times
    BARE_S.  On a shared VM process start and imports drift with the
    host's load in a way the reference kernel (speed.py) does not follow;
    over 150 s the ratio varied by 4% (coefficient of variation), the
    time in reference seconds by 13%."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        run_child(cmd)
        t1 = time.perf_counter()
        run_child(BARE_CMD)
        times.append((t1 - t0) / (time.perf_counter() - t1) * BARE_S)
    return times


def percentile(xs, q):
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1] if len(xs) > 1 else xs[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up and finish one warm-up item (times setup_s)")
    args = parser.parse_args(argv)

    cap_threads()
    load_package()
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    make = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        make(args.seed).warmup()
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment(args)
    print("env", json.dumps(env), flush=True)
    setup = setup_seconds(args) if args.trace == 0 else []

    w = make(args.seed)
    w.warmup()
    OUT.mkdir(exist_ok=True)
    if args.trace == 0:
        m = w.run(args.seconds)
        values = {
            "items_per_s": (m.items - m.failed) / m.seconds,
            "item_ms_p50": percentile(m.latencies, 50) * 1e3,
            "item_ms_p90": percentile(m.latencies, 90) * 1e3,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        declared = spec["end_to_end"]
        extra = {}
    else:
        tracer = Tracer()
        m, values = w.trace(args.seconds, tracer)
        values = {**{"harness.w1_s": 0.0, "harness.w2_s": 0.0, "harness.speedup_w2": 0.0},
                  **values, **tracer.layer_metrics()}
        declared = spec["per_layer"]
        extra = {"layer_self_share": tracer.layer_shares(),
                 "spans": len(tracer.spans)}
        tracer.write(OUT / f"trace-{args.workload}-s{args.seed}.json")

    units = {d["name"]: d["unit"] for d in declared}
    if set(values) != set(units):
        sys.exit(f"run.py: metrics {sorted(set(values) ^ set(units))} "
                 "do not match BENCHMARK.json")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    correct = not m.mismatches
    result = {"correct": correct, "attempted": m.items, "failed": m.failed, "metrics": metrics}

    record = {**result, "env": env, "items": m.items, "seconds": m.seconds,
              "raw_seconds": m.raw_seconds, "failed_frac": m.failed / m.items,
              "setup_runs_s": setup,
              "errors": m.errors, "mismatches": m.mismatches, **extra}
    (OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))

    for problem in m.mismatches + m.errors:
        print("FAIL", problem, file=sys.stderr)
    print(f"{args.workload}: {m.items} items in {m.seconds:.2f} reference s "
          f"({m.raw_seconds:.2f} s raw), failed_frac {m.failed / m.items:.6g} ratio")
    for k, v in metrics.items():
        print(f"  {k:40s} {v['value']:.6g} {v['unit']}")
    for k, v in extra.get("layer_self_share", {}).items():
        print(f"  self share {k:29s} {v:.4f} ratio")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
