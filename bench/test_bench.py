"""Tests of the benchmark itself (not collected by the package's test suite).

    python3 -m pytest -q bench/test_bench.py

Each workload runs briefly, untraced once and traced twice on one seed.
"""

import functools
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: counts that must repeat exactly for a seed, so later changes can cite them
EXACT = (
    "equilibrium.dc_dp_calls_per_solve",
    "curves.solves_per_inversion",
    "oracle.grid_cells",
    "oracle.refine_dc_dp_calls",
    "montecarlo.bytes_computed",
)
#: the exact counts each workload must exercise
USED = {
    "frontier": ("equilibrium.dc_dp_calls_per_solve", "curves.solves_per_inversion"),
    "verify": ("equilibrium.dc_dp_calls_per_solve", "oracle.grid_cells",
               "oracle.refine_dc_dp_calls", "montecarlo.bytes_computed"),
    "cli": EXACT[:1] + EXACT[2:],
}


@functools.lru_cache(maxsize=None)
def result(workload, trace, attempt=0):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().split("\n")[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_follows_benchmark_json(workload, trace):
    res = result(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_for_a_seed(workload):
    first = result(workload, 1)["metrics"]
    second = result(workload, 1, attempt=1)["metrics"]
    calls = [name for name in first if name.endswith("_calls")]
    for name in EXACT + tuple(calls):
        assert first[name]["value"] == second[name]["value"], name
    for name in USED[workload]:
        assert first[name]["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_add_up_to_traced_wall(workload):
    m = {k: v["value"] for k, v in result(workload, 1)["metrics"].items()}
    layers = [k for k in m if k.endswith(".self_ms")]
    assert "harness.self_ms" in layers and len(layers) == 8
    assert sum(m[k] for k in layers) == pytest.approx(m["trace.wall_ms"], rel=1e-9)
    assert m["harness.self_ms"] >= 0.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / BENCH.name / "run.py"),
                           "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
