"""Sketched rank-k bases for matvec-only approximation, and the table of
basis methods.

The top-k left singular subspace of a Gaussian sketch of B is itself a
near-optimal subspace for B, so no transposed products with individual
blocks are ever needed.  The one-level step in :mod:`hsskit.blr2` applies it
to nullified sketches, whose implicit test matrices are Gaussian, a whole
stack of blocks per call.  :data:`BASIS_METHODS` names every basis method of
that step with the sketch columns it needs beyond k and its stacked kernel.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .kernels import pivoted_qr_basis, truncated_svd_left

__all__ = ["BASIS_METHODS", "BasisMethod", "pcps_basis"]


class BasisMethod(NamedTuple):
    """A basis method of the one-level step."""

    excess: int  # sketch columns beyond k that it needs
    kernel: Callable  # (stack of sketches, k) -> stack of rank-k bases


def pcps_basis(sketch, k: int) -> np.ndarray:
    """Rank-k orthonormal basis from a Gaussian sketch of the target matrix.

    The sketch must have at least k + 2 columns (k plus the "svd-pcps"
    excess); the expected excess Frobenius error of the returned projector
    over the optimal rank-k error is bounded by
    (1 + 2eq / sqrt((q-k)^2 - 1))^2 with q the sketch width.  A stack of
    sketches (b, rows, q) gives a (b, rows, k) stack of bases.
    """
    sketch = np.asarray(sketch, dtype=np.float64)
    excess = BASIS_METHODS["svd-pcps"].excess
    if sketch.ndim not in (2, 3) or sketch.shape[-1] < k + excess:
        raise ValueError(
            f"sketch must have at least k + {excess} = {k + excess} columns, got shape {sketch.shape}"
        )
    return truncated_svd_left(sketch, k)


# "svd-pcps": sketched SVD; "pivoted-qr": leading columns of a column-pivoted
# QR.  Each kernel is called through its module-level name, as every other
# call between hsskit modules is, so a wrapper installed on that name (a
# tracer or profiler) sees the step's calls.
BASIS_METHODS = {
    "svd-pcps": BasisMethod(2, lambda sketches, k: pcps_basis(sketches, k)),
    "pivoted-qr": BasisMethod(0, lambda sketches, k: pivoted_qr_basis(sketches, k)),
}
