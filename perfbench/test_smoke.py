"""Smoke test of the benchmark at tiny sizes: output schema and checks, not timings.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# calls per step at the smoke sizes (n = 4 exact training, n = 6 VMC, n = 5, 6 scan)
SMOKE_CALLS = {
    "train-exact": {"graph.validate": 2, "exact.compile": 2, "exact.forward": 2,
                    "hamiltonian.apply": 2, "exact.gradient": 1, "exact.energy": 1,
                    "optimize.adam": 1, "optimize.flatten": 1, "optimize.materialize": 1,
                    "vmc.amplitudes": 0},
    "train-vmc": {"exact.compile": 2, "vmc.sample": 1, "vmc.local_values": 1,
                  "vmc.log_derivs": 1, "vmc.gradient": 1, "vmc.amplitudes": 11,
                  "hamiltonian.apply": 0, "exact.forward": 0},
    "scan-exact": {"graph.validate": 1, "exact.compile": 1, "exact.forward": 1,
                   "hamiltonian.apply": 1, "exact.gradient": 1, "ansatz.init": 1,
                   "optimize.adam": 0},
}


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(trace):
    proc = run_bench("--workload", "all", "--smoke", "--seed", "0", "--seconds", "0",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    results = [json.loads(line) for line in lines if line.startswith('{"correct"')]
    assert len(results) == len(WORKLOADS) + 1  # one per workload, then the combined one
    expected = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    for name, result in zip(WORKLOADS, results):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in expected}
        for m in expected:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
            if trace == 0:
                assert got["value"] > 0, (name, m["name"])
        if trace == 1:
            for layer, calls in SMOKE_CALLS[name].items():
                assert result["metrics"][f"{layer}.calls_per_step"]["value"] == calls, (name, layer)
            assert 0.5 < result["metrics"]["trace.coverage"]["value"] <= 1.0
    combined = results[-1]
    assert combined["correct"] is True
    assert len(combined["metrics"]) == len(WORKLOADS) * len(expected)


def test_facts_line_precedes_result():
    proc = run_bench("--workload", "scan-exact", "--smoke", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    facts = json.loads(proc.stdout.strip().splitlines()[-2])["facts"]
    for key in ("nproc", "python", "numpy", "scipy", "blas_env", "git_commit", "seed",
                "setup_samples", "operations"):
        assert key in facts


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "train-exact", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
