"""Tests of the benchmark itself, at tiny sizes.

    python -m pytest benchmarks
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_smoke_runs_every_workload_with_checks_in_both_modes():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=600, cwd=HERE.parent,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    metrics = result["metrics"]
    for workload in SPEC["workloads"]:
        for mode, group in (("trace0", "end_to_end"), ("trace1", "per_layer")):
            for metric in SPEC[group]:
                reported = metrics[f"{workload['name']}.{mode}.{metric['name']}"]
                assert reported["unit"] == metric["unit"]
    assert len(metrics) == len(SPEC["workloads"]) * (len(SPEC["end_to_end"]) + len(SPEC["per_layer"]))


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        SPEC["command"] + ["--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
