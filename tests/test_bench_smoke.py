"""The benchmark's short run, so its independent output checks run with the tests.

``bench/run.py --short`` runs every workload on a few instances and checks
each output with the benchmark's own checkers: two-hop certificates, Menger
LP values, balls and anchored paths among them.  It takes about a second.
With ``--trace 1`` the benchmark's tracer wraps the package's layers, the
oracle's binding in ``switching`` among them, and the same checks must hold.
A traced run's work counters must also repeat under another hash seed:
a counter that moved with set or dict order would not measure the code.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.skipif(
    not (ROOT / "bench" / "run.py").exists(), reason="no bench/ directory"
)


def _short_run(trace: str, env=None) -> str:
    """The stdout of ``bench/run.py --short --trace TRACE``, checked to exit 0."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--short", "--trace", trace],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _checked_result(stdout: str) -> dict:
    result = json.loads(stdout.splitlines()[-1])
    assert result["correct"] is True, stdout
    assert result["failed"] == 0, stdout
    return result


@pytest.mark.parametrize("trace", ["0", "1"])
def test_bench_short_run_is_correct(trace):
    _checked_result(_short_run(trace))


def test_bench_traced_counters_repeat_across_hash_seeds():
    first, second = (
        _checked_result(_short_run("1", dict(os.environ, PYTHONHASHSEED=seed)))["metrics"]
        for seed in ("1", "2")
    )
    counts = {name for name, metric in first.items() if metric["unit"] == "count"}
    assert counts
    assert {name for name, metric in second.items() if metric["unit"] == "count"} == counts
    assert {name: first[name]["value"] for name in counts} == {
        name: second[name]["value"] for name in counts
    }
