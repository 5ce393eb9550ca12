"""The scripts under scripts/ run as fresh processes and print their tables."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import superharm

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("argv", [
    ["fundsol_table.py"],
    ["mehler_convergence.py"],
    ["spectrum_sweep.py", "--numeric"],
])
def test_script_runs(argv):
    src = str(Path(superharm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0])] + argv[1:],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip(), argv
