"""dlesim pins OpenBLAS to one thread unless the user chose a count.

A count is chosen by any of the three variables OpenBLAS reads.

OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads, and pytest may
have loaded numpy already: each check runs in a fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def run_python(code, **env_overrides):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env.update(env_overrides, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_import_sets_one_thread_by_default():
    code = "import os, dlesim; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert run_python(code) == "1"


def test_user_thread_count_kept():
    code = "import os, dlesim; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert run_python(code, OPENBLAS_NUM_THREADS="2") == "2"


@pytest.mark.parametrize("name", ["OMP_NUM_THREADS", "GOTO_NUM_THREADS"])
def test_other_thread_variables_honoured(name):
    code = "import os, dlesim; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert run_python(code, **{name: "2"}) == "None"


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task"
)
def test_cli_process_runs_one_thread():
    code = (
        "import os, dlesim.cli, numpy as np\n"
        "np.ones((2000, 16)) @ np.ones((16, 16))\n"
        "print(len(os.listdir('/proc/self/task')))"
    )
    assert run_python(code) == "1"
