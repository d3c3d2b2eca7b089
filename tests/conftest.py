"""One BLAS thread per test process, set before anything imports NumPy.

The suite's matmuls are small, and a second BLAS thread mostly spins,
which slows the run on a busy host.  A value already in the environment
wins.  Tests that run under other thread counts set their own in the
subprocess they start.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
