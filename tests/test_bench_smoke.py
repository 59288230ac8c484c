"""The benchmark's short run, so its independent output checks run with the tests.

``bench/run.py --short`` runs every workload on a few instances and checks
each output with the benchmark's own checkers: two-hop certificates, Menger
LP values, balls and anchored paths among them.  It takes about a second.
With ``--trace 1`` the benchmark's tracer wraps the package's layers, the
oracle's binding in ``switching`` among them, and the same checks must hold.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.skipif(not (ROOT / "bench" / "run.py").exists(), reason="no bench/ directory")
@pytest.mark.parametrize("trace", ["0", "1"])
def test_bench_short_run_is_correct(trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--short", "--trace", trace],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0, proc.stdout
