"""Smoke check of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload, those of BENCHMARK.json and mem-n6, runs two n=3 inputs for
one second, untraced and traced. Each run must print every metric of
BENCHMARK.json and of its report with its unit, in the result line that
BENCHMARK.json describes. A directory holding only the benchmark must make
it fail without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import WORKLOADS as ALL_WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = sorted(ALL_WORKLOADS)

REPORT_UNITS = {
    "setup_s": "s",
    "instance_ref_ratio": "ratio",
    "instance_ms_p50": "ms",
    "instance_best_ms": "ms",
    "reference_ms_p50": "ms",
    "solve_ms_p50": "ms",
    "solves_per_s": "1/s",
    "peak_rss_mb": "MB",
    "fail_rate": "ratio",
    "silent_wrong": "count",
}
CLI_REPORT_UNITS = {
    "cli_solve_ms_p50": "ms",
    "cli_enumerate_ms_p50": "ms",
    "cli_census_ms_p50": "ms",
    "cli_solve_ref_ratio": "ratio",
    "cli_enumerate_ref_ratio": "ratio",
    "cli_census_ref_ratio": "ratio",
    "cli_solve_child_ms": "ms",
    "cli_enumerate_child_ms": "ms",
    "cli_census_child_ms": "ms",
}
# p90s need 100 samples; a one-second tiny run reports them or says why not.
TAIL_METRICS = {"small-n34": ["solve_ms_p90"], "mem-n6": ["solve_ms_p90"],
                "cli-n4": ["solve_ms_p90", "cli_solve_ms_p90"]}


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def result_lines(proc) -> tuple:
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    assert len(lines) == 3
    header, record, result = lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    for key in ("nproc", "cpu", "python", "numpy", "blas", "blas_threads_env",
                "malloc_mmap_threshold", "seed", "inputs", "operations"):
        assert key in header["header"]
    return record, result


def assert_units(metrics: dict, expected: dict) -> None:
    for name, unit in expected.items():
        assert name in metrics, name
        assert metrics[name]["unit"] == unit, name
        assert isinstance(metrics[name]["value"], (int, float)), name


def test_contract_workloads_exist():
    assert {w["name"] for w in CONTRACT["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    record, result = result_lines(run(workload, 0))
    contract = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert set(result["metrics"]) == set(contract)
    assert_units(result["metrics"], contract)
    assert_units(record["report"], REPORT_UNITS)
    if ALL_WORKLOADS[workload].cli:
        assert_units(record["report"], CLI_REPORT_UNITS)
    for name in TAIL_METRICS[workload]:
        assert name in record["report"] or name in record["omitted"]
    assert record["report"]["silent_wrong"]["value"] == 0
    assert sum(record["u_histogram"].values()) == record["samples"]["inputs"]
    assert sum(record["candidates_histogram"].values()) == record["samples"]["inputs"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    record, result = result_lines(run(workload, 1))
    contract = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    assert set(result["metrics"]) == set(contract)
    assert_units(result["metrics"], contract)
    assert "overhead_ms" in record["tracing"]
    trace = ROOT / ".perfbench_out" / f"{workload}-seed7-trace1-tiny.json"
    spans = json.loads(trace.read_text(encoding="utf-8"))["spans"]
    names = {span["name"] for span in spans}
    assert {"stages", "core.measurements_to_autocorr_2d", "solver.enumerate_candidates",
            "jsonio.dumps"} <= names
    assert all(span["end_ns"] >= span["start_ns"] for span in spans)


def test_fails_without_the_package():
    bare = ROOT / ".perfbench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(WORKLOADS[0], 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
