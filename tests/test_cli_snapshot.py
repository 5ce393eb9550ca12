"""Exact CLI outputs stay byte-identical: the behaviour snapshot of the CLI
corpus (exit codes of every entry, stdout of the exact commands) passes."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_cli_snapshot_has_no_differences():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "snapshot.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-2000:]
