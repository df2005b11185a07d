"""The benchmark's self-test passes on the real CLI output.

bench/selftest.py runs each workload on a short window, checks the CSVs
against the benchmark's independent scipy-``expm`` reference and its other
gates, and confirms that each check rejects a corrupted copy.  It runs in a
fresh interpreter, as the benchmark runs it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    pytest.importorskip("scipy.linalg")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
