"""The benchmark's own unit tests, and a short run of its ``verify``
workload, as part of this suite.

``bench/test_bench.py`` checks that every output check of the benchmark
accepts the program's real output.  Running it here means a source change
that breaks one of those checks fails this suite, not only a later
benchmark run.  The ``verify`` run, traced and untraced, catches a
verification that writes into the benchmark's captured stdout or upsets
its tracer.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_bench_unit_tests_pass():
    proc = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s", "bench"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("trace", ["0", "1"])
def test_verify_workload_runs_clean(trace):
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "verify",
                           "--seconds", "1", "--seed", "0", "--trace", trace],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # one result, from the benchmark's own process
    results = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == 1, proc.stdout
    result = json.loads(results[0])
    assert result["correct"] is True
    assert result["failed"] == 0
