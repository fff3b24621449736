"""Smoke run of the benchmark's tau-rate workload at tiny sizes.

The benchmark's traced run rebuilds every toy operator from its fields to
count evaluations, so an ``Operator`` change that breaks that rebuild, or
an output that drifts from the untraced run, fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tau_rate_smoke_run_is_correct():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--smoke", "--workload", "tau-rate"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout
