"""Greedy construction of a telescoping factorization from explicit entries.

One level at a time, each off-diagonal block row / column gets the optimal
rank-k subspace (exact truncated SVD), the remainder block is the diagonal
block itself, and the matrix is compressed through the new bases before the
next level.  A level's block rows and block columns are two views of
A - blockdiag(D), so each side is one stacked SVD.  Total arithmetic is
O(N^2 k).
"""

from __future__ import annotations

import numpy as np

from .kernels import truncated_svd_left
from .structures import (
    LevelFactors,
    TelescopingFactorization,
    _conforming,
    _diagonal_blocks,
    _off_diagonal_slabs,
    block_apply_t,
    tree_levels,
)

__all__ = ["greedy_hss_explicit", "sss_step_explicit"]


def sss_step_explicit(A, k: int):
    """One explicit compression step at the finest level L of A, n = 2**(L+1) * k.

    Returns ``(factors, A_next)`` where factors holds, per block i, the top-k
    left singular vectors of block row i, the top-k right singular vectors of
    block column i, and the diagonal block of A; A_next = U^T (A - D) V is the
    half-size matrix handed to the next level.
    """
    A, _ = _conforming(A, k)
    w = 2 * k
    remainder = np.array(A, order="C")
    diagonal = _diagonal_blocks(remainder, w)
    D = diagonal.copy()
    diagonal[...] = 0.0
    rows, cols = _off_diagonal_slabs(remainder, w)
    U = truncated_svd_left(rows, k)
    V = truncated_svd_left(cols, k)
    factors = LevelFactors(U, V, D)
    core = block_apply_t(U, remainder)
    A_next = block_apply_t(V, core.T).T
    return factors, A_next


def greedy_hss_explicit(A, L: int, k: int) -> TelescopingFactorization:
    """Greedy rank-k factorization of a dense matrix of side n = 2**(L+1) * k.

    The first step checks A, shape and entries, so A is scanned once."""
    shape = np.shape(A)
    depth = tree_levels(shape[0], k) if len(shape) == 2 and shape[0] == shape[1] else None
    if depth is None:
        _conforming(A, k)  # raises the error that names A's shape
    if L != depth:
        raise ValueError(f"matrix of shape {shape} has L={depth} levels for k={k}, not L={L}")
    levels, current = [], A
    for _ in range(L):
        factors, current = sss_step_explicit(current, k)
        levels.append(factors)
    return TelescopingFactorization(tuple(reversed(levels)), current)
