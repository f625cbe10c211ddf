"""Session setup: numpy's BLAS runs one thread in every test.

With a thread per core, OpenBLAS thrashes in the n = 128 ring ``eigvals``
tests whenever another process holds a core.  The thread count is read when
numpy is first imported, so it is pinned here, before any test module
imports numpy, as ``perfbench/run.py`` pins it.
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py pinned one BLAS thread")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
