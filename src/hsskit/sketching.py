"""The table of basis methods of the one-level step.

The top-k left singular subspace of a Gaussian sketch of B is itself a
near-optimal subspace for B, so no transposed products with individual
blocks are ever needed.  The one-level step in :mod:`hsskit.blr2` takes its
bases from nullified sketches, whose implicit test matrices are Gaussian, a
whole stack of blocks per call, through one of :data:`BASIS_METHODS`.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .kernels import pivoted_qr_basis, truncated_svd_left

__all__ = ["BASIS_METHODS", "BasisMethod"]


class BasisMethod(NamedTuple):
    """A basis method of the one-level step."""

    excess: int  # sketch columns beyond k that it needs
    kernel: Callable  # (stack of sketches, k) -> stack of rank-k bases
    # The kernel reads a sketch B only through B B^T: the Gram route forms
    # it, and the SVD route takes its eigenvectors and values as B's left
    # singular vectors and values.  So any F with F F^T = B B^T, such as
    # F = B W with W orthonormal rows, gives the same bases to rounding:
    # the step then nullifies every block row through nullified_factor,
    # which forms no nullspace basis.
    rotation_free: bool


# "svd-pcps": sketched SVD; "pivoted-qr": leading columns of a column-pivoted
# QR, whose pivots depend on the sketch's own columns.  The step's width
# rule, BLR2Pattern.check_step, reads the excess.  Each kernel is called
# through its module-level name, as every other call between hsskit modules
# is, so a wrapper installed on that name (a tracer or profiler) sees the
# step's calls.
BASIS_METHODS = {
    "svd-pcps": BasisMethod(2, lambda sketches, k: truncated_svd_left(sketches, k), True),
    "pivoted-qr": BasisMethod(0, lambda sketches, k: pivoted_qr_basis(sketches, k), False),
}
