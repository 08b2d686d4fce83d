"""Self-test of the benchmark: python3 -m pytest perfbench

Runs the tiny smoke workloads through the same run.py as the real ones.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import END_TO_END_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# every per-layer metric perfbench/README.md names, with its unit
LAYER_UNITS = {
    **{f"manybody.{n}.s": "s" for n in (
        "hamiltonian", "one_body_operator", "lanczos_expm", "pair_blocks", "FockBasis",
        "build_basis", "build_grid_matched_basis", "reduced_density", "GridOracle.evolve",
        "assembly", "basis")},
    **{f"projectors.{n}.s": "s" for n in ("alpha", "alpha_n2_expectation", "trace_distance")},
    "nls.evolve.s": "s", "auxiliary.discrepancy_gamma.s": "s",
    "transverse.solve_modes.s": "s", "harness.write_csv.s": "s",
    "manybody.evolve.self_s": "s", "harness.run_point.self_s": "s",
    "manybody.hamiltonian.calls": "count", "manybody.hamiltonian.nnz": "count",
    "manybody.hamiltonian.calls_per_point": "calls/point",
    "manybody.one_body_operator.calls": "count",
    "manybody.lanczos_expm.matvecs": "count", "manybody.lanczos_expm.useful_frac": "ratio",
    "manybody.fock_dim.max": "count", "harness.csv_bytes": "B",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.unaccounted_s": "s",
}


def bench(workload: str, trace: int, cwd: str = ROOT, root: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record(workload: str, trace: int) -> dict:
    with open(os.path.join(HERE, "out", f"{workload}-seed3-trace{trace}.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_smoke_sweep_counts_failed_point_and_reports_every_metric(spec):
    out = last_json(bench("smoke_sweep", 1))
    # N = 4 exceeds the config's dim cap: counted as failed, the run goes on
    assert (out["attempted"], out["failed"], out["correct"]) == (3, 1, False)
    rec = record("smoke_sweep", 1)
    assert rec["point_checks"]["4"][0]["name"].startswith("point_error: SizeError")
    assert all(c["passed"] for n in ("2", "3") for c in rec["point_checks"][n])
    assert {k: u for k, (v, u) in rec["end_to_end"].items()} == END_TO_END_UNITS
    assert rec["end_to_end"]["failed_frac"][0] == pytest.approx(1 / 3)
    assert {k: u for k, (v, u) in rec["per_layer"].items()} == LAYER_UNITS
    assert rec["per_layer"]["manybody.hamiltonian.calls"][0] > 0
    assert rec["per_layer"]["manybody.lanczos_expm.matvecs"][0] > 0
    assert [p["n"] for p in rec["points"]] == [2, 3, 4]
    assert out["metrics"] == {m["name"]: {"value": rec["per_layer"][m["name"]][0],
                                          "unit": m["unit"]} for m in spec["per_layer"]}


def test_smoke_sweep_untraced_prints_end_to_end_metrics(spec):
    out = last_json(bench("smoke_sweep", 0))
    assert (out["attempted"], out["failed"]) == (3, 1)
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_smoke_two_body_passes_grid_oracle():
    out = last_json(bench("smoke_two_body", 1))
    assert (out["attempted"], out["failed"], out["correct"]) == (1, 0, True)
    layers = record("smoke_two_body", 1)["per_layer"]
    assert layers["manybody.GridOracle.evolve.s"][0] > 0
    assert layers["manybody.hamiltonian.calls"][0] == 0


def test_directory_without_sources_fails_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("sweep_default", 0, cwd=str(tmp_path), root=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def read_cfg(path: str) -> dict:
    with open(os.path.join(ROOT, path)) as fh:
        pairs = (line.split("#")[0].split("=", 1) for line in fh if "=" in line.split("#")[0])
        return {k.strip(): v.strip() for k, v in pairs}


@pytest.mark.parametrize("workload, changed", [
    ("sweep_well", {"external.name"}),
    ("sweep_driven", {"external.name", "manybody.m_x", "manybody.m_y",
                      "sequence.n_values", "time.final"}),
])
def test_sweep_configs_differ_from_default_only_in_named_keys(workload, changed):
    base = read_cfg("configs/default.cfg")
    cfg = read_cfg(WORKLOADS[workload].config)
    assert cfg.keys() == base.keys()
    assert {k for k in base if cfg[k] != base[k]} == changed


def test_benchmark_json_names_known_workloads(spec):
    assert spec["paths"] == ["perfbench"]
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} <= set(END_TO_END_UNITS)
    assert {m["name"] for m in spec["per_layer"]} <= set(LAYER_UNITS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"]) <= 0.25
