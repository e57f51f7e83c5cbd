"""Pin BLAS and OpenMP to one thread before any test module imports numpy.

The matrices here are small, so extra BLAS threads cost time instead of
saving it, and the ``--jobs`` process pools of the figure tests would
oversubscribe the cores.  A value already set in the environment wins.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
