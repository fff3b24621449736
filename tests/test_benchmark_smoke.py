"""Smoke runs of the benchmark's workloads at tiny sizes, in both trace modes.

The benchmark's traced run rebuilds every toy operator from its fields to
count evaluations and rebinds ``kalman.GaussianEstimate`` to time it, and
every run checks its outputs against the oracles (for ``enks-rate``, the
N^(-1/2) slope of the coupled EnKS pass).  An ``Operator`` change
that breaks the rebuild, a missing name the tracer rebinds, a broken oracle
check, or an output that drifts from the untraced run fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["enks-rate", "tau-rate", "exact-smoother"])
def test_smoke_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--smoke", "--workload", workload],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout
