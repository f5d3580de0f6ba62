"""The benchmark's correctness gates pass on the current program.

`perfbench/run.py` checks the exact gradient against finite differences,
and every operation it times: for train-exact the variational bound and
half-way progress toward the optimum, plus the share of operations that
converge; for train-vmc the variational bound, progress toward the
optimum and a fresh-sample z-check of the trained graph; for scan-exact
finite positive variances, plus a match with the stored reference scan.  A smoke run in a copy of the checkout keeps those gates
in the default test run, so a program change that breaks them fails here
and not first in a full benchmark run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["train-exact", "train-vmc", "scan-exact"])
def test_smoke_run_passes_its_checks(tmp_path, workload):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=ignore)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--smoke",
         "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=600, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
