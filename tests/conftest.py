"""Test-session set-up: one BLAS thread.

The suite's matrices are small, and a second OpenBLAS thread spends CPU
without saving wall time: on a 2-core VM the suite took about 43 s of CPU
unpinned against 27-30 s pinned, in about the same wall time.  Every time
the package documents is taken on one thread too.  OpenBLAS reads these
variables once, when numpy is first imported, so they are set here, before
any test module imports it; a value already in the environment is kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
