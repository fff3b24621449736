"""Every script in ``demos/`` runs to completion on this checkout's sources.

The demos read result fields that no other test reads, so a field removed
from a result type breaks them first.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    # An empty parametrization would skip test_demo_runs, not fail it.
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(script, tmp_path):
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    # TMPDIR keeps the files a demo writes under pytest's temporary
    # directory; a demo removes its temporary files before it exits.
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    env = {**os.environ, "PYTHONPATH": pythonpath, "TMPDIR": str(scratch)}
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=120, cwd=tmp_path, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert not list(scratch.iterdir())
