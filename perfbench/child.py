"""One run of one workload in a fresh process, so set-up is paid as users pay it.

    python3 perfbench/child.py '<json spec>'

The spec names the mode, the workload, the seed, the repository root, the
output directory, the result file and the parent's monotonic clock reading
just before the spawn.  Modes:

  timed   untraced; only harness.run_point is wrapped, to time each point
  setup   stops when the first sweep point (or the two-body solve) begins
  traced  every layer wrapped (perfbench/tracer.py); also runs the oracle checks
  verify  harness.verify_all(seed)
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


class _SetupDone(Exception):
    pass


class PointTimer:
    """Wall time of each harness.run_point call; nothing else is touched."""

    def __init__(self, stop_at_first: bool = False):
        self.starts, self.ends = [], []
        self.stop_at_first = stop_at_first

    def wrap(self, run_point):
        def timed(*args, **kwargs):
            self.starts.append(time.monotonic())
            if self.stop_at_first:
                raise _SetupDone
            try:
                return run_point(*args, **kwargs)
            finally:
                self.ends.append(time.monotonic())
        return timed


def _import_dimred(root: str, kind: str):
    sys.path.insert(0, os.path.join(root, "src"))
    if kind == "sweep":
        from dimred import cli, harness  # what the `dimred` console script loads
        mods = (cli, harness)
    else:
        from dimred import manybody, potentials, projectors, scaling
        mods = (manybody, potentials, projectors, scaling)
    src = os.path.join(os.path.realpath(root), "src") + os.sep
    if not os.path.realpath(mods[0].__file__).startswith(src):
        raise RuntimeError(f"dimred imported from {mods[0].__file__}, not from {src}")


def _sweep_argv(root: str, workload, out_dir: str) -> list:
    return ["sweep", "--config", os.path.join(root, workload.config), "--out", out_dir]


def _two_body(workload, seed: int) -> dict:
    from dimred.errors import DimredError
    from workloads import run_two_body

    try:
        return {"trace_distance": run_two_body(workload, seed), "error": None}
    except DimredError as exc:
        return {"trace_distance": None, "error": f"{type(exc).__name__}: {exc}"}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_timed(spec, workload) -> dict:
    t_spawn = spec["t_spawn"]
    _import_dimred(spec["root"], workload.kind)
    if workload.kind == "sweep":
        from dimred import cli, harness

        timer = PointTimer()
        harness.run_point = timer.wrap(harness.run_point)
        cli.main(_sweep_argv(spec["root"], workload, spec["out_dir"]))
        t_end = time.monotonic()
        return {"setup_s": timer.starts[0] - t_spawn, "wall_s": t_end - timer.starts[0],
                "point_s": [e - s for s, e in zip(timer.starts, timer.ends)],
                "peak_rss_mb": _peak_rss_mb(),
                "csv": os.path.join(spec["out_dir"], "sweep.csv")}
    t_begin = time.monotonic()
    out = _two_body(workload, spec["seed"])
    t_end = time.monotonic()
    return dict(out, setup_s=t_begin - t_spawn, wall_s=t_end - t_begin,
                point_s=[t_end - t_begin], peak_rss_mb=_peak_rss_mb())


def run_setup(spec, workload) -> dict:
    t_spawn = spec["t_spawn"]
    _import_dimred(spec["root"], workload.kind)
    if workload.kind == "two_body":
        return {"setup_s": time.monotonic() - t_spawn}
    from dimred import cli, harness

    timer = PointTimer(stop_at_first=True)
    harness.run_point = timer.wrap(harness.run_point)
    try:
        cli.main(_sweep_argv(spec["root"], workload, spec["out_dir"]))
    except _SetupDone:
        pass
    return {"setup_s": timer.starts[0] - t_spawn}


def run_traced(spec, workload) -> dict:
    from tracer import Tracer

    t_spawn = spec["t_spawn"]
    _import_dimred(spec["root"], workload.kind)
    tracer = Tracer()
    tracer.install()
    if workload.kind == "sweep":
        from dimred import cli

        cli.main(_sweep_argv(spec["root"], workload, spec["out_dir"]))
        out = {"csv": os.path.join(spec["out_dir"], "sweep.csv")}
    else:
        tracer.open_point(2)
        out = _two_body(workload, spec["seed"])
        tracer.close_point()
    t_end = time.perf_counter()
    tracer.uninstall()
    wall = t_end - tracer.work_start
    out.update(
        setup_s=tracer.work_start_monotonic - t_spawn,
        wall_s=wall,
        layers=tracer.metrics(wall),
        points=[{k: p.get(k) for k in ("n", "modes", "fock_dim", "nnz", "traced_s")}
                for p in tracer.points],
    )
    if workload.kind == "sweep":
        import oracles

        with open(out["csv"]) as fh:
            out["checks"] = oracles.sweep_checks(tracer.points, fh.read())
    return out


def run_verify(spec, workload) -> dict:
    _import_dimred(spec["root"], "sweep")
    from dimred import harness

    report = harness.verify_all(spec["seed"])
    return {"checks": [{"name": f"verify_all.{c.module}.{c.name}", "measured": c.measured,
                        "bound": c.bound, "passed": c.passed} for c in report.checks]}


MODES = {"timed": run_timed, "setup": run_setup, "traced": run_traced, "verify": run_verify}


def main() -> int:
    spec = json.loads(sys.argv[1])
    from workloads import WORKLOADS

    result = MODES[spec["mode"]](spec, WORKLOADS[spec["workload"]])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
