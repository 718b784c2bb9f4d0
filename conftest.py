"""Run the test suite on one BLAS/OpenMP thread, as the benchmark does.

The solver's hot path is many small matrix products, where extra BLAS
threads cost more than they give, and the iteration counts of the
chaotic chain solves change with the thread count.  The thread pools
are sized when numpy loads, so these settings only take effect if this
file is imported first.
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError(
        "numpy was imported before the root conftest.py could pin BLAS to one "
        "thread; run the tests with `python -m pytest` from the repository root"
    )

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
