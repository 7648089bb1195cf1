"""Smoke test of the benchmark harness at toy size.

    python3 -m pytest bench/test_smoke.py

Runs every workload shrunk by ``--toy``, untraced and traced, and checks
that the last line of output is the result object and names every metric
of ``BENCHMARK.json``. Output correctness is not asserted: toy sizes are
too small for the statistical checks.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_printed(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--toy")
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert [m["name"] for m in expected] == list(result["metrics"])
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)), m["name"]
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    summary = json.loads(proc.stdout.splitlines()[-2].removeprefix("# summary: "))
    assert summary["workload"] == workload


def test_worker_spans_reach_the_parent():
    """sweep_po4 farms instances to 2 worker processes; their layer spans
    must be counted, not lost as zeros."""
    result = result_of(bench(ROOT, "--workload", "sweep_po4", "--seconds", "1", "--trace", "1", "--toy"))
    metrics = {name: v["value"] for name, v in result["metrics"].items()}
    instances = 2 * 2  # two theta points, two toy instances each
    assert metrics["spectral.analyze_instance.calls"] == instances
    assert metrics["graphgen.configuration_model.calls"] == instances
    assert metrics["spectral.matvecs_per_instance"] > 0
    assert metrics["spectral.analyze_instance.self_s"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    """With only BENCHMARK.json and bench/ present it fails without a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", WORKLOADS[0], "--seconds", "1")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
