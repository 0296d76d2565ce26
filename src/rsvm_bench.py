"""The ``rsvm-bench`` command: one BLAS/OpenMP thread unless already set.

The solvers make many small eigendecompositions and Cholesky
factorizations, which extra BLAS threads slow down. BLAS libraries read
their thread count once, when numpy loads them, so the variables are set
here, before ``rsvm`` imports numpy; a value already in the environment
wins. Run as ``rsvm-bench`` or ``python -m rsvm_bench``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from rsvm.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
