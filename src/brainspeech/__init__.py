"""Contrastive decoding of speech segments from multichannel brain recordings."""

import os

# The ops split their passes over the calling thread and one pool thread
# (``twoway``). On a 2-core box OpenBLAS's default of one thread per core
# then shares the cores three ways: the README quick-start took 134-136 s
# against 90-95 s with one BLAS thread. So default to one, unless the user
# chose a count. This must run before numpy is first imported.
if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"
