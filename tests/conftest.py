"""One BLAS thread for the whole test session, as dgaebench/run.py uses.

The timing tests fit lines to wall-clock times of numpy work; with
OpenBLAS's default of one thread per core they also time the threads'
hand-offs on a shared machine. The variables only take effect before
numpy's first import, and pytest imports this file before any test
module.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
