"""Smoke tests for the benchmark itself, at the smallest sizes.

    python3 -m pytest bench/smoke.py -q

They check that every workload runs, that the result line has exactly
the metric names and units of BENCHMARK.json, that a changed seed
changes the generated inputs but not the metric set, and that the
benchmark refuses to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]


def run_bench(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
           "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def expected_units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_and_reports_every_metric(workload, trace):
    result = result_of(run_bench(workload, 1, trace))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = expected_units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
        if not trace:
            assert metric["value"] > 0, name


def _inputs(workload, seed):
    """The first generated input of a workload, without running it."""
    import workloads
    wl = workloads.make(workload, seed, tiny=True)
    if workload == "abel_kernels":
        return wl._pair(wl.curves[0])
    if workload == "klein_probe":
        return int(wl.rng.integers(2 ** 31))
    if workload == "jet_opers":
        return repr(wl._inputs(8)["q"])
    return wl.argv


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_inputs(workload):
    assert _inputs(workload, 1) == _inputs(workload, 1)
    assert _inputs(workload, 1) != _inputs(workload, 2)


def test_seed_keeps_metric_set():
    a = result_of(run_bench("klein_probe", 1, 0))
    b = result_of(run_bench("klein_probe", 2, 0))
    assert a["metrics"].keys() == b["metrics"].keys()


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
