"""Smoke test: the benchmark runs end to end on a seconds-long spec and keeps its output contract.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    args = ["--workload", "smoke", "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_reports_every_metric(trace, section):
    proc = run_bench(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


def test_benchmark_json_names_the_measured_workloads():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
