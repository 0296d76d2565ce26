"""Test-session setup: one BLAS/OpenMP thread, as in the benchmark.

OpenBLAS reads its thread count once, when numpy loads it, so the
variables are set here, before any test module imports numpy. Two threads
oversubscribe the accelerated solver's many small block solves (about
1.6x slower on a 2-core machine) and make the timing test noisy.
"""

import os
import sys
import warnings

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

if "numpy" in sys.modules:
    warnings.warn("numpy was imported before tests/conftest.py, so its BLAS "
                  "thread count is not pinned to one", RuntimeWarning)
