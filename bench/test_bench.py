"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_bench.py

Each workload runs once untraced and once traced; the result line must
follow the schema that BENCHMARK.json declares.  A copy of the benchmark
without the package beside it must fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int, seed: int = 3):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_schema(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    detail_line, result_line = proc.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)
    detail = json.loads(detail_line)["detail"]
    assert detail["error_rate"] == 0.0 and len(detail["digest"]) == 64


def test_same_seed_same_digest():
    digests = {json.loads(_run(ROOT, "model_sweep", 0, seed=5).stdout.splitlines()[-2])
               ["detail"]["digest"] for _ in range(2)}
    assert len(digests) == 1


def test_fails_without_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "model_sweep", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
