"""Sketched rank-k bases for matvec-only approximation.

The top-k left singular subspace of a Gaussian sketch of B is itself a
near-optimal subspace for B, so no transposed products with individual
blocks are ever needed.  The one-level step in :mod:`hsskit.blr2` applies it
to nullified sketches, whose implicit test matrices are Gaussian, a whole
stack of blocks per call.
"""

from __future__ import annotations

import numpy as np

from .kernels import truncated_svd_left

__all__ = ["pcps_basis"]


def pcps_basis(sketch, k: int) -> np.ndarray:
    """Rank-k orthonormal basis from a Gaussian sketch of the target matrix.

    The sketch must have at least k + 2 columns; the expected excess Frobenius
    error of the returned projector over the optimal rank-k error is bounded
    by (1 + 2eq / sqrt((q-k)^2 - 1))^2 with q the sketch width.  A stack of
    sketches (b, rows, q) gives a (b, rows, k) stack of bases.
    """
    sketch = np.asarray(sketch, dtype=np.float64)
    if sketch.ndim not in (2, 3) or sketch.shape[-1] < k + 2:
        raise ValueError(
            f"sketch must have at least k + 2 = {k + 2} columns, got shape {sketch.shape}"
        )
    return truncated_svd_left(sketch, k)
