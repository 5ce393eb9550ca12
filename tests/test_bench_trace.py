"""The traced benchmark still runs: the tracer wraps library names by hand
(``harmonics._rref_nullspace`` among them), so a refactor that drops a name
it reaches, or calls around a timed one, shows here rather than only in a
traced benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_exact_small_run_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "exact-small",
         "--seed", "5", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-2000:]
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["correct"] is True
    # the per-layer medians of the two L2 operators the workload times: a
    # rewrite that moves them out of the wrapped names would read 0 here
    for name in ("harmonics.fischer_decompose_p50_ms", "integrate.pizzetti_p50_ms"):
        assert report["metrics"][name]["value"] > 0, name
