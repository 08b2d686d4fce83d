#!/usr/bin/env python3
"""dimred's benchmark: end-to-end metrics per workload, per-layer metrics from
a traced run, and oracle checks of every output.

    python3 perfbench/run.py --workload sweep_default --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all          # the four workloads, traced and timed

Run it from the repository root or anywhere else; it finds the root from its
own location and imports dimred from ``src/``.  One invocation runs, each in a
fresh child process (perfbench/child.py) with BLAS and OpenMP pinned to one
thread:

  1. verify    harness.verify_all(seed), untimed;
  2. traced    one traced run: per-layer metrics, plus the oracle checks of
               perfbench/oracles.py for sweeps.  Skipped for the two-body
               workload under --trace 0, whose timed runs check themselves
               against the grid oracle;
  3. timed     untraced repetitions until --seconds have been measured (at
               least one); end-to-end metrics are their medians;
  4. setup     extra runs that stop when the first point begins, so setup_s
               is a median over 7 set-ups.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  metrics holds the end_to_end metrics of
BENCHMARK.json under --trace 0 and its per_layer metrics under --trace 1;
the lines before it print every metric with its unit, and the full record
(all metrics, checks, points, environment) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from workloads import TWO_BODY_TOL, WORKLOADS  # noqa: E402

ALL = ("sweep_default", "sweep_well", "sweep_driven", "oracle_two_body")
SETUP_SAMPLES = 7                 # set-ups per invocation, timed runs included
CHILD_TIMEOUT_S = 170
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "point_max_s": "s",
                    "failed_frac": "ratio", "peak_rss_mb": "MB"}


class BenchmarkError(Exception):
    pass


def child(mode: str, workload: str, seed: int, tag: str) -> dict:
    """Run perfbench/child.py once and return its result record."""
    out_dir = os.path.join(OUT, f"tmp-{os.getpid()}", tag)
    os.makedirs(out_dir, exist_ok=True)
    result = os.path.join(out_dir, "result.json")
    env = dict(os.environ, **THREAD_PIN)
    spec = {"mode": mode, "workload": workload, "seed": seed, "root": ROOT,
            "out_dir": out_dir, "result": result}
    spec["t_spawn"] = time.monotonic()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
                          env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not os.path.exists(result):
        raise BenchmarkError(f"{mode} run of {workload} exited {proc.returncode}:\n"
                             f"{proc.stderr[-4000:]}")
    with open(result) as fh:
        record = json.load(fh)
    if "csv" in record:
        with open(record["csv"], "rb") as fh:
            record["csv_bytes"] = fh.read()
    return record


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "thread_pin": THREAD_PIN,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    run_checks = child("verify", name, seed, "verify")["checks"]
    point_checks = {}                                    # N -> [check, ...]
    traced = None
    if trace or wl.kind == "sweep":
        traced = child("traced", name, seed, "traced")
        if wl.kind == "sweep":
            point_checks = {int(n): c for n, c in traced["checks"].items()}
    reps, measured = [], 0.0
    while not reps or measured < seconds:
        rep = child("timed", name, seed, f"timed{len(reps)}")
        reps.append(rep)
        measured += rep["setup_s"] + rep["wall_s"]
    setups = [r["setup_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(child("setup", name, seed, f"setup{len(setups)}")["setup_s"])

    if wl.kind == "sweep":
        # config in, CSV bytes out: each timed run must reproduce the checked run
        same = all(r["csv_bytes"] == traced["csv_bytes"] for r in reps)
        run_checks.append({"name": "csv_reproducible", "measured": float(not same),
                           "bound": 0.0, "passed": same})
        attempted = len(traced["points"])
    else:
        outcomes = reps + ([traced] if traced else [])
        point_checks[2] = [
            {"name": "grid_oracle" if o["error"] is None else "point_error: " + o["error"],
             "measured": o["trace_distance"] if o["error"] is None else 1.0,
             "bound": TWO_BODY_TOL,
             "passed": o["error"] is None and o["trace_distance"] < TWO_BODY_TOL}
            for o in outcomes]
        attempted = 1
    failed = sum(1 for checks in point_checks.values()
                 if not all(c["passed"] for c in checks))
    correct = failed == 0 and all(c["passed"] for c in run_checks)

    median = statistics.median
    wall = median(r["wall_s"] for r in reps)
    end_to_end = {
        "setup_s": median(setups),
        "wall_s": wall,
        "point_max_s": max(median(ts) for ts in zip(*(r["point_s"] for r in reps))),
        "failed_frac": failed / attempted,
        "peak_rss_mb": median(r["peak_rss_mb"] for r in reps),
    }
    per_layer = None
    if traced is not None:
        per_layer = dict(traced["layers"])
        per_layer["trace.overhead_s"] = [traced["wall_s"] - wall, "s"]
    return {
        "workload": name, "seed": seed, "seconds": seconds,
        "correct": correct, "attempted": attempted, "failed": failed,
        "end_to_end": {k: [v, END_TO_END_UNITS[k]] for k, v in end_to_end.items()},
        "per_layer": per_layer,
        "samples": {"setup_s": setups, "wall_s": [r["wall_s"] for r in reps],
                    "point_s": [r["point_s"] for r in reps],
                    "peak_rss_mb": [r["peak_rss_mb"] for r in reps]},
        "points": traced["points"] if traced else None,
        "point_checks": {str(n): c for n, c in sorted(point_checks.items())},
        "run_checks": run_checks,
    }


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for key, (value, unit) in metrics.items():
        print(f"  {key:<40} {value:>16.6g} {unit}")


def print_report(report: dict) -> None:
    print(f"{report['workload']} seed={report['seed']}: attempted {report['attempted']} "
          f"points, failed {report['failed']}, correct={report['correct']}")
    for n, checks in report["point_checks"].items():
        bad = [c["name"] for c in checks if not c["passed"]]
        print(f"  N={n}: " + ("ok" if not bad else "FAILED " + ", ".join(bad)))
    bad = [c["name"] for c in report["run_checks"] if not c["passed"]]
    print("  run checks: " + ("ok" if not bad else "FAILED " + ", ".join(bad)))
    print_metrics("end to end (untraced runs):", report["end_to_end"])
    if report["per_layer"] is not None:
        print_metrics("per layer (traced run):", report["per_layer"])


def write_report(record: dict, filename: str) -> str:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, filename)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true", help="run the four workloads")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")
    if not os.path.isfile(os.path.join(ROOT, "src", "dimred", "__init__.py")):
        print(f"no dimred sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    env = environment()
    try:
        if args.all:
            return run_all(args, env)
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(OUT, f"tmp-{os.getpid()}"), ignore_errors=True)
    report["environment"] = env
    path = write_report(report, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    print_report(report)
    print(f"full record: {os.path.relpath(path, ROOT)}")
    if args.trace:
        source, names = report["per_layer"], [m["name"] for m in spec["per_layer"]]
    else:
        source, names = report["end_to_end"], [m["name"] for m in spec["end_to_end"]]
    metrics = {k: {"value": source[k][0], "unit": source[k][1]} for k in names}
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


def run_all(args, env) -> int:
    reports = []
    for name in ALL:
        print(f"running {name} ...", flush=True)
        reports.append(run_workload(name, args.seed, args.seconds, trace=True))
    path = write_report({"environment": env, "reports": reports}, f"all-seed{args.seed}.json")
    print(f"environment: {json.dumps(env)}")
    for rep in reports:
        print()
        print_report(rep)
    print(f"\nfull record: {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
