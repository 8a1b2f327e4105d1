"""The benchmark's own unit tests, run as part of this suite.

``bench/test_bench.py`` checks that every output check of the benchmark
accepts the program's real output.  Running it here means a source change
that breaks one of those checks fails this suite, not only a later
benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_unit_tests_pass():
    proc = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s", "bench"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
