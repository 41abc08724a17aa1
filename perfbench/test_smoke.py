"""Smoke test: every workload runs at a tiny size and prints every metric
that BENCHMARK.json names, with its unit."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, trace: int) -> tuple[subprocess.CompletedProcess, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--scale", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
# loocv-parallel stays runnable although BENCHMARK.json leaves it out.
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]] + ["loocv-parallel"])
def test_workload_prints_every_metric_with_its_unit(workload, trace):
    proc, result = run(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    printed = proc.stdout.splitlines()
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(
            line.startswith(metric["name"] + " ") and line.split()[2] == metric["unit"]
            for line in printed
        ), metric["name"]


def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "tracing.py"):
        (tmp_path / "perfbench" / name).write_bytes((ROOT / "perfbench" / name).read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "loocv-serial", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
