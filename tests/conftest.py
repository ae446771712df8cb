"""Pin BLAS to one thread before numpy is first imported.

On a small shared machine OpenBLAS's default thread count makes the many
small dense products in the oracle tests contend for cores; pinned, the suite
runs several times faster.  ``setdefault`` keeps any explicit setting.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
