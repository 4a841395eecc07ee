"""Rank-structured matrix containers and the operations on them.

Conventions used throughout the package:

  - A dense matrix is a 2-D C-contiguous float64 ``numpy.ndarray``.
  - A block-diagonal factor with b blocks of shape (r, c) is stored as a 3-D
    array of shape (b, r, c); block index first, entries row-major.
  - Block indices are 0-based everywhere in the Python API.

A telescoping factorization with L levels and rank parameter k represents an
N x N matrix with N = 2**(L+1) * k built by the recursion

    B_next = U B V^T + D

applied from a (2k, 2k) root core outward, where U and V are block-diagonal
with orthonormal (2k, k) blocks and D is block-diagonal with (2k, 2k) blocks.

Transposition is data: ``LevelFactors.T`` and ``TelescopingFactorization.T``
represent the transpose, so each operation has one body and runs on ``T.T``.

Wide products run in column panels: each column of a product depends on
its operand column alone, so :func:`_in_panels` applies a product to a few
columns at a time, each panel's temporaries within about ``PANEL_BYTES``,
and writes the panels into one output.  The arithmetic per column is
unchanged; only a BLAS call on a narrow last panel may round differently
than it would inside a wider one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kernels import _as_real, _read_only, as_matrix

__all__ = [
    "LevelFactors",
    "TelescopingFactorization",
    "block_apply",
    "block_apply_t",
    "hss_apply",
    "hss_apply_transpose",
    "reconstruct_dense",
    "tree_levels",
    "validate_hss_ranks",
]

ORTHO_TOL = 1e-12
# Bytes that the largest temporary of one panel of a wide product may take,
# unless the product's floor on the panel width needs more; see _in_panels.
# It bounds the member stacks of the one-level step too; see blr2._chunks.
PANEL_BYTES = 2 << 20


# ---------------------------------------------------------------------------
# block-diagonal helpers


def _on_columns(x, dim: int, product) -> np.ndarray:
    """``product`` of x, a vector or a (dim, w) block, in x's shape: the one
    operand rule.  ``product`` receives (dim, w) float64 blocks only, a vector
    as one column; any other shape, and a complex x, raise a ValueError."""
    x = _as_real(x, "operand")
    if x.ndim not in (1, 2) or x.shape[0] != dim:
        raise ValueError(f"operand shape {x.shape} does not match dim {dim}")
    return product(x[:, None])[:, 0] if x.ndim == 1 else product(x)


def _in_panels(product, rows: int, width: int, column_bytes: int, floor: int = 1) -> np.ndarray:
    """The (rows, width) result whose columns [a, z) are ``product(a, z)``,
    computed one panel of columns at a time.

    A panel is max(floor, PANEL_BYTES // column_bytes) columns wide, where
    ``column_bytes`` is what the product's largest temporary takes per
    column.  A result no wider than one panel is the product's own reply;
    a wider one is written panel by panel into one preallocated output.
    """
    panel = max(floor, PANEL_BYTES // column_bytes)
    if width <= panel:
        return product(0, width)
    out = np.empty((rows, width))
    for a in range(0, width, panel):
        z = min(a + panel, width)
        out[:, a:z] = product(a, z)
    return out


def block_apply(blocks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Multiply blockdiag(blocks) @ x, with x of shape (b*cols, :)."""
    b, r, c = blocks.shape
    return np.matmul(blocks, x.reshape(b, c, -1)).reshape(b * r, -1)


def block_apply_t(blocks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Multiply blockdiag(blocks).T @ x, with x of shape (b*rows, :)."""
    b, r, c = blocks.shape
    return np.matmul(blocks.transpose(0, 2, 1), x.reshape(b, r, -1)).reshape(b * c, -1)


def _diagonal_blocks(M: np.ndarray, w: int) -> np.ndarray:
    """Writable (b, w, w) view of the diagonal w x w blocks of a square M:
    adding D to the view adds blockdiag(D) to M in place, with no N x N
    temporary."""
    s0, s1 = M.strides
    return np.lib.stride_tricks.as_strided(
        M, shape=(M.shape[0] // w, w, w), strides=(w * (s0 + s1), s0, s1), writeable=True
    )


def _off_diagonal_slabs(R: np.ndarray, w: int):
    """Block rows and block columns of a square R whose diagonal w x w
    blocks are zero, as two (b, w, n) views of R with no copy.

    ``rows[i]`` is block row i and ``cols[i]`` is block column i transposed;
    each is the off-diagonal slab of its block with zero columns where the
    diagonal block was, so it has the same singular values and left singular
    vectors as the slab itself.
    """
    n = R.shape[0]
    return R.reshape(n // w, w, n), R.reshape(n, n // w, w).transpose(1, 2, 0)


def _orthonormal_defect(blocks: np.ndarray) -> float:
    """Max-norm deviation of block columns from orthonormality."""
    k = blocks.shape[2]
    grams = np.matmul(blocks.transpose(0, 2, 1), blocks)
    return float(np.max(np.abs(grams - np.eye(k))))


def tree_levels(n: int, k: int) -> int | None:
    """The L >= 1 with n = 2**(L+1) * k, or None when there is none: the one
    rule for whether a size conforms to a rank-k hierarchy."""
    ratio, rest = divmod(n, k) if k >= 1 else (0, 1)
    if rest or ratio < 4 or ratio & (ratio - 1):
        return None
    return ratio.bit_length() - 2


def _conforming(A, k: int):
    """(A checked, L) for a square A of side 2**(L+1) * k; else a ValueError naming the shape."""
    A = as_matrix(A, "A")
    L = tree_levels(A.shape[0], k)
    if A.shape[0] != A.shape[1] or L is None:
        raise ValueError(f"matrix of shape {A.shape} is not square of side 2**(L+1) * k, L >= 1, for k={k}")
    return A, L


# ---------------------------------------------------------------------------
# factorization containers


@dataclass(frozen=True)
class LevelFactors:
    """One level of a telescoping factorization.

    U, V: (b, 2k, k) blocks with orthonormal columns; D: (b, 2k, 2k) blocks.
    Each is stored as a read-only view; the arrays passed in stay writable.
    """

    U: np.ndarray
    V: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        U, V, D = (_read_only(_as_real(getattr(self, name), name)) for name in ("U", "V", "D"))
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "D", D)
        if U.ndim != 3 or V.shape != U.shape:
            raise ValueError("U and V must be (b, 2k, k) block arrays of equal shape")
        b, w, k = U.shape
        if w != 2 * k:
            raise ValueError(f"basis blocks must be (2k, k), got ({w}, {k})")
        if D.shape != (b, w, w):
            raise ValueError(f"D must have shape {(b, w, w)}, got {D.shape}")

    @property
    def block_count(self) -> int:
        return self.U.shape[0]

    @property
    def rank_param(self) -> int:
        return self.U.shape[2]

    @property
    def T(self) -> "LevelFactors":
        """The level of the transposed operator: U and V swap, D blocks transpose."""
        return LevelFactors(self.V, self.U, self.D.transpose(0, 2, 1))


@dataclass(frozen=True)
class TelescopingFactorization:
    """Telescoping factorization: ``levels[j]`` holds level j+1 (levels[-1] is
    the finest level L) and ``root`` is the (2k, 2k) core, stored as a
    read-only view like the levels' arrays."""

    levels: tuple
    root: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        object.__setattr__(self, "root", _read_only(as_matrix(self.root, "root")))
        if len(self.levels) < 1:
            raise ValueError("a telescoping factorization needs at least one level")
        k = self.rank_param
        if self.root.shape != (2 * k, 2 * k):
            raise ValueError(f"root must be (2k, 2k) = {(2*k, 2*k)}, got {self.root.shape}")
        for j, lf in enumerate(self.levels):
            if lf.rank_param != k:
                raise ValueError("all levels must share one rank parameter")
            if lf.block_count != 1 << (j + 1):
                raise ValueError(
                    f"level {j + 1} must hold {1 << (j + 1)} blocks, got {lf.block_count}"
                )

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def rank_param(self) -> int:
        return self.levels[0].rank_param

    @property
    def dim(self) -> int:
        return (1 << (self.depth + 1)) * self.rank_param

    @cached_property
    def T(self) -> "TelescopingFactorization":
        """The factorization of the transposed matrix (views, built once)."""
        return TelescopingFactorization(tuple(lf.T for lf in self.levels), self.root.T)

    def validate(self):
        """Raise unless all entries are finite and all basis blocks are
        orthonormal within ``ORTHO_TOL``."""
        for j, lf in enumerate(self.levels):
            for name, blocks in (("U", lf.U), ("V", lf.V), ("D", lf.D)):
                if not np.isfinite(blocks).all():
                    raise ValueError(f"level {j + 1} {name} blocks hold a non-finite entry")
            for name, blocks in (("U", lf.U), ("V", lf.V)):
                defect = _orthonormal_defect(blocks)
                if not defect <= ORTHO_TOL:
                    raise ValueError(
                        f"level {j + 1} {name} blocks deviate from orthonormality "
                        f"by {defect:.3e} (tol {ORTHO_TOL:.1e})"
                    )


# ---------------------------------------------------------------------------
# telescoping operations


def reconstruct_dense(T: TelescopingFactorization) -> np.ndarray:
    """Expand the telescoping recursion into the dense represented matrix."""
    B = T.root
    for lf in T.levels:
        B = block_apply(lf.V, block_apply(lf.U, B).T).T
        _diagonal_blocks(B, lf.D.shape[1])[...] += lf.D
    return np.ascontiguousarray(B)


def _hss_apply_panel(T: TelescopingFactorization, x: np.ndarray) -> np.ndarray:
    """The product of the represented matrix with a 2-D panel x."""
    # Descend: project the operand through the (right) bases level by level.
    down = []
    cur = x
    for lf in reversed(T.levels):
        down.append(cur)
        cur = block_apply_t(lf.V, cur)
    y = T.root @ cur
    # Ascend: expand through the (left) bases and add the remainders.
    for lf, xs in zip(T.levels, reversed(down)):
        y = block_apply(lf.U, y)
        y += block_apply(lf.D, xs)
    return y


def hss_apply(T: TelescopingFactorization, x) -> np.ndarray:
    """Multiply the represented matrix by x without materializing it.

    Costs O(N k) arithmetic per vector.  A wide x is applied in panels of
    max(32, PANEL_BYTES // (8 N)) columns, so the temporaries take a few
    ``PANEL_BYTES`` at any width, beside the N x width result; narrower
    panels would slow the small batched matmuls.
    """
    return _on_columns(x, T.dim, lambda xm: _in_panels(
        lambda a, z: _hss_apply_panel(T, xm[:, a:z]), T.dim, xm.shape[1], 8 * T.dim, floor=32
    ))


def hss_apply_transpose(T: TelescopingFactorization, x) -> np.ndarray:
    """Multiply the transpose of the represented matrix by x: ``hss_apply(T.T,
    x)``, in the same column panels.  Kept only because the benchmark in
    ``perfbench/`` calls it."""
    return hss_apply(T.T, x)


def validate_hss_ranks(A, k: int, tol: float) -> bool:
    """Check the rank structure of A against the rank-k hierarchy of its size.

    True iff at every level l = 1..L every off-diagonal block row and block
    column of the level-l repartitioning of A has (k+1)-th singular value at
    most ``tol`` times the largest singular value of A.
    """
    if not tol >= 0:
        raise ValueError(f"tol must be non-negative, got {tol}")
    A, L = _conforming(A, k)
    smax = float(np.linalg.norm(A, 2))
    if smax == 0.0:
        return True
    # Finest level first: each level's diagonal blocks contain the finer
    # levels', so one copy with the diagonal zeroed serves every level.
    R = np.array(A, order="C")
    for level in range(L, 0, -1):
        w = A.shape[0] >> level
        _diagonal_blocks(R, w)[...] = 0.0
        for slabs in _off_diagonal_slabs(R, w):
            if np.any(np.linalg.svd(slabs, compute_uv=False)[:, k] > tol * smax):
                return False
    return True
