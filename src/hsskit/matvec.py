"""Telescoping factorizations from black-box matvec queries.

Two drivers share one loop.  At every level it compresses one block row and
column per block with the one-level step
:func:`~hsskit.blr2.blr2_factors_from_sketches` (a BLR2 build with the
diagonal pattern and block size m = 2k); the drivers differ only in where
each level's sketches come from:

  - ``hss_from_matvecs_fresh`` draws four independent Gaussian test matrices
    at every level and queries the compressed operator, which
    :func:`~hsskit.oracle.compress_oracle` nests after each level into one
    flat view over the user's oracle, for 4sL sketch queries plus 2k probes
    for the root core.  Its expected error is quasi-optimal with the
    constants in :func:`theorem_bounds`.
  - ``hss_from_matvecs_reused`` draws the four test matrices once, then
    compresses sketches and images through the recovered factors instead of
    re-querying, for 4s + 2k queries total.  The compressed test matrices are
    no longer Gaussian; that is the defining behavior of this baseline, which
    trades guarantees for queries.  Bases come from either the sketched SVD
    or a column-pivoted QR.

Randomness is keyed by (seed, level, role) paths: each of a level's four
test matrices is one draw, and block i is rows [i m, (i + 1) m) of it.  Both
drivers therefore draw identical level-L sketches for the same seed.  A
level's sketches are one (4, 2, dim, s) array, the step's four arguments,
each with its side axis (side 0 sketches the operator, side 1 its
transpose), and the reused driver compresses both sides of it at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blr2 import BLR2Pattern, _query_sketches, blr2_factors_from_sketches
from .kernels import RngStream
from .oracle import MatvecOracle, compress_oracle
from .structures import LevelFactors, TelescopingFactorization
from .structures import tree_levels

__all__ = [
    "MatvecConfig",
    "TheoremBounds",
    "hss_from_matvecs_fresh",
    "hss_from_matvecs_reused",
    "theorem_bounds",
]


@dataclass(frozen=True)
class MatvecConfig:
    """Parameters of a matvec-driven factorization run.

    ``s`` is the number of sketch columns.  It must meet the floor of the
    one-level step on a diagonal pattern with block size 2k
    (:meth:`~hsskit.blr2.BLR2Pattern.check_step`): s >= 3k + 2 for the SVD
    basis, which the fresh policy needs, and s >= 3k for pivoted QR.
    """

    L: int
    k: int
    s: int
    seed: int
    basis_method: str = "svd-pcps"
    sketch_policy: str = "fresh"

    def __post_init__(self):
        if self.L < 1 or self.k < 1:
            raise ValueError(f"need L >= 1 and k >= 1, got L={self.L}, k={self.k}")
        if self.sketch_policy not in ("fresh", "reused"):
            raise ValueError(f"sketch_policy must be 'fresh' or 'reused', got {self.sketch_policy!r}")
        BLR2Pattern.diagonal(1, 2 * self.k).check_step(self.k, self.s, self.basis_method)
        if self.sketch_policy == "fresh" and self.basis_method != "svd-pcps":
            raise ValueError("the fresh policy always extracts bases via the SVD")


@dataclass(frozen=True)
class TheoremBounds:
    """Quasi-optimality constants of the fresh driver at a given (s, k, L)."""

    gamma_row: float
    gamma_col: float
    gamma_diag: float
    factor: float


def theorem_bounds(s: int, k: int, L: int) -> TheoremBounds:
    """Evaluate the expected-error constants for sketch width s, rank k, L
    levels.

    gamma_row = gamma_col = (1 + 2e(s-2k) / sqrt((s-3k)^2 - 1))^2 and
    gamma_diag = 2k / (s - 2k - 1); the overall multiplicative factor against
    the best achievable squared error is (gamma_row + gamma_col) *
    (1 + gamma_diag) * L.  Requires s >= 3k + 2, L >= 1 and k >= 1.
    """
    if L < 1 or k < 1:
        raise ValueError(f"need L >= 1 and k >= 1, got L={L}, k={k}")
    BLR2Pattern.diagonal(1, 2 * k).check_step(k, s)
    gamma = (1.0 + 2.0 * math.e * (s - 2 * k) / math.sqrt((s - 3 * k) ** 2 - 1)) ** 2
    gamma_diag = 2.0 * k / (s - 2 * k - 1)
    factor = 2.0 * gamma * (1.0 + gamma_diag) * L
    return TheoremBounds(gamma, gamma, gamma_diag, factor)


def _compress_sketches(lf: LevelFactors, sketches: np.ndarray) -> np.ndarray:
    """Compress a level's (4, 2, dim, s) sketches through its recovered
    factors (no queries): each (test matrix, image) pair of a side becomes
    the pair that sketches U^T (M - D) V when the image sketched M, side 0
    through ``lf`` and side 1, whose images sketched M^T, through ``lf.T``.
    Both sides are written straight into one (4, 2, dim / 2, s) array, with
    one (dim, s) temporary for all four pairs: a new one per pair would
    hold two at once."""
    b, w, k = lf.U.shape
    s = sketches.shape[-1]
    out, residual = np.empty((4, 2, b * k, s)), np.empty((b, w, s))
    blocks, compressed = sketches.reshape(4, 2, b, w, s), out.reshape(4, 2, b, k, s)
    for side, f in enumerate((lf, lf.T)):
        for test in (0, 2):
            x = blocks[test, side]
            np.matmul(f.V.transpose(0, 2, 1), x, out=compressed[test, side])
            np.matmul(f.D, x, out=residual)
            np.subtract(blocks[test + 1, side], residual, out=residual)
            np.matmul(f.U.transpose(0, 2, 1), residual, out=compressed[test + 1, side])
    return out


def _build(oracle: MatvecOracle, config: MatvecConfig) -> TelescopingFactorization:
    """Compress level L down to level 1, then probe the root core (2k queries).

    ``op`` is the oracle of the operator still to compress: A at level L,
    then each level's compressed operator, one flat view over A.  Level L
    always queries fresh sketches; later levels query ``op`` again under the
    fresh policy and compress the previous level's sketches under the reused
    one.  The fresh policy drops a level's sketches before the next level
    queries, so only one level's sketches are held at a time.
    """
    if tree_levels(oracle.dim, config.k) != config.L:
        raise ValueError(f"oracle dim {oracle.dim} is not 2**(L+1) * k for L={config.L}, k={config.k}")
    k = config.k
    stream = RngStream(config.seed)
    op, levels, sketches = oracle, [], None
    for level in range(config.L, 0, -1):
        pattern = BLR2Pattern.diagonal(1 << level, 2 * k)
        if sketches is None:
            sketches = _query_sketches(stream.child(level), pattern, config.s, op)
        else:
            sketches = _compress_sketches(levels[-1], sketches)
        U, V, D = blr2_factors_from_sketches(pattern, k, *sketches, basis_method=config.basis_method)
        levels.append(LevelFactors(U, V, D))
        op = compress_oracle(op, levels[-1])
        if config.sketch_policy == "fresh":
            sketches = None
    root = op.apply(np.eye(2 * k))
    return TelescopingFactorization(tuple(reversed(levels)), root)


def hss_from_matvecs_fresh(oracle: MatvecOracle, config: MatvecConfig) -> TelescopingFactorization:
    """Build a factorization with fresh sketches per level (4sL + 2k queries)."""
    if config.sketch_policy != "fresh":
        raise ValueError("config.sketch_policy must be 'fresh'")
    return _build(oracle, config)


def hss_from_matvecs_reused(oracle: MatvecOracle, config: MatvecConfig) -> TelescopingFactorization:
    """Build a factorization reusing one set of sketches (4s + 2k queries)."""
    if config.sketch_policy != "reused":
        raise ValueError("config.sketch_policy must be 'reused'")
    return _build(oracle, config)
