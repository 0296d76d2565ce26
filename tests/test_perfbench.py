"""The benchmark's own checks (``perfbench/test_checks.py``) pass.

They pin solver entry points (``init_state(inst, Hyperparameters())``,
``map_estimate`` and the state it reads), so they run with the suite. A
subprocess keeps them out of this session: they import numpy, and
``tests/conftest.py`` must pin BLAS threads before anything does.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_checks_pass():
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "perfbench", "-q",
         "-p", "no:cacheprovider"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
