"""Pin BLAS to one thread before numpy is first imported, and share the
closed-route displacement-invariance errors between the tests that use them.

On a small shared machine OpenBLAS's default thread count makes the many
small dense products in the oracle tests contend for cores; pinned, the suite
runs several times faster.  ``setdefault`` keeps any explicit setting.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402

from sagnac_qfi import (  # noqa: E402
    correlations_generic,
    make_partially_entangled,
    qfi_general,
    qfi_partial_closed,
)


def _displacement_invariance_errors(n, alpha, constants, coeffs):
    """F of the partial state must not depend on the displacement alpha.

    The closed form is alpha-free by inspection, so alpha is varied in the
    general correlation form on explicitly displaced branches, at alpha and
    at 0.  Returns (|F(alpha) - F(0)|, |F(alpha) - closed|), both relative to
    max(1, |closed|).
    """
    closed = qfi_partial_closed(n, 1, constants, coeffs)
    general_a, general_0 = (
        qfi_general(
            correlations_generic(make_partially_entangled(a, n), coeffs.c1),
            1, constants, coeffs,
        ).qfi
        for a in (alpha, 0.0)
    )
    scale = max(1.0, abs(closed))
    return abs(general_a - general_0) / scale, abs(general_a - closed) / scale


@pytest.fixture
def displacement_invariance_errors():
    return _displacement_invariance_errors
