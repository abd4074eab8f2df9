"""Smoke runs of the fast demos the README points to.

retrain_recovery.py (about 10 s) and retrieval_grid.py (about 7 s on 2
vCPUs) are too slow for this suite and are left out; CI runs them in a
step of their own.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["cli_walkthrough.py", "compression_accounting.py"])
def test_demo_runs(demo, tmp_path, monkeypatch):
    # the walkthrough writes ./cli_demo_output and runs the CLI as `python -m qnip.cli`
    monkeypatch.chdir(tmp_path)
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    monkeypatch.setenv("PYTHONPATH", path.rstrip(os.pathsep))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
