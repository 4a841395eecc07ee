"""Uniform block low-rank (BLR2) approximation from matvec queries.

One b x b partition with block size m, shared rank-k bases per block
row/column, and a block-sparse remainder supported on an inadmissible
pattern S.  With a diagonal pattern and m = 2k this is the one-level
factorization, and :func:`blr2_factors_from_sketches` is the one-level step:
the hierarchical drivers in :mod:`hsskit.matvec` call it once per level with
``BLR2Pattern.diagonal(2**level, 2k)``.  The step nullifies the pattern
blocks of each test-matrix line, extracts rank-k bases from the nullified
sketches (sketched SVD or pivoted QR), and un-sketches the pattern blocks
from an independent pair of sketches with the bases held fixed.  The SVD
basis reads only a sketch's left singular vectors and values, so for it
each row's nullified sketch is Y - (Y Q1) Q1^T, Q1 from the factorization
of the stacked pattern blocks that the remainder's pseudo-inverse uses
(:func:`~hsskit.kernels.nullified_factor`); the pivoted QR, whose pivots
depend on the sketch's own columns, gets the image blocks times an explicit
nullspace basis.  The basis-method table entry chooses the route; a row
with no pattern blocks hands either kernel its image blocks as they are.

Transposition is data: the column side of every rule is the row side run on
``pattern.T``, the pattern of A^T.  Every array of the step therefore has a
leading side axis: side 0 sketches A and holds U, side 1 sketches A^T and
holds V.  Each (2, dim, s) sketch array is read as one (2b, m, s) stack of
block rows, those of the pattern followed by those of ``pattern.T``, and
the step works on stacks, not on one block at a time: the rows of both
sides are grouped together by how many pattern blocks they hold, and each
group goes through the stacked kernels of :mod:`hsskit.kernels`, the basis
kernel included, in the chunks of :func:`_chunks`: one call per group at
small b, bounded temporaries at large b.
The diagonal pattern of the hierarchical drivers is one group of 2b
members, whose kernel inputs are views of the sketch arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import structures
from .kernels import (
    RngStream,
    _as_real,
    _read_only,
    gaussian,
    nullified_factor,
    nullspace_basis,
    right_pinv_apply,
)
from .oracle import MatvecOracle
from .sketching import BASIS_METHODS
from .structures import _in_panels, _on_columns, block_apply, block_apply_t

__all__ = [
    "BLR2Factorization",
    "BLR2Pattern",
    "blr2_apply",
    "blr2_factors_from_sketches",
    "blr2_from_matvecs",
    "blr2_reconstruct",
    "blr2_remainder",
]

def _group_rows(rows: tuple) -> tuple:
    """Group the block rows of a pattern by their number h of pattern blocks,
    so that each group is one stack for the kernels.

    Returns one ``(members, hits, positions)`` per h, in increasing h:
    ``members`` (g,) are the row indices, ``hits`` (g, h) their pattern
    blocks and ``positions`` (g, h) those blocks' places in ``sorted_pairs``,
    where the pairs of each row are consecutive.
    """
    starts = np.cumsum([0] + [len(hit) for hit in rows])
    by_count = {}
    for i, hit in enumerate(rows):
        by_count.setdefault(len(hit), []).append(i)
    groups = []
    for h, members in sorted(by_count.items()):
        members = np.array(members, dtype=np.intp)
        hits = np.array([rows[i] for i in members], dtype=np.intp).reshape(len(members), h)
        groups.append((members, hits, starts[members, None] + np.arange(h)))
    return tuple(groups)


@dataclass(frozen=True)
class BLR2Pattern:
    """Inadmissible-block pattern of a b x b partition with block size m.

    ``pairs`` lists the (row, col) positions, 0-based, whose blocks live in
    the dense remainder; every other block must be low-rank through the
    shared bases.  ``sorted_pairs`` is the order in which a factorization
    stacks its remainder blocks.  Transposition is data: ``pattern.T`` is
    the pattern of A^T, so the block columns of a pattern are the block rows
    of its transpose.
    """

    block_count: int
    block_size: int
    pairs: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        for name in ("block_count", "block_size"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.block_count < 1 or self.block_size < 1:
            raise ValueError("block_count and block_size must be positive")
        pairs = frozenset((int(i), int(j)) for i, j in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        for i, j in pairs:
            if not (0 <= i < self.block_count and 0 <= j < self.block_count):
                raise ValueError(f"pattern pair {(i, j)} out of range")
        # Per-row index tuples and arrays, built once: the build step and
        # the operations on a factorization walk the pattern through them.
        ordered = tuple(sorted(pairs))
        rows = [[] for _ in range(self.block_count)]
        for i, j in ordered:
            rows[i].append(j)
        object.__setattr__(self, "sorted_pairs", ordered)
        object.__setattr__(self, "_rows", tuple(map(tuple, rows)))
        object.__setattr__(self, "_row_groups", _group_rows(self._rows))
        # (2, nnz): the row and the column index of each pair, in order.
        object.__setattr__(self, "_pair_index", np.array(ordered, dtype=np.intp).reshape(-1, 2).T)
        object.__setattr__(self, "_symmetric", pairs == frozenset((j, i) for i, j in pairs))

    @property
    def T(self) -> "BLR2Pattern":
        """The pattern of the transposed matrix: pairs (j, i).  A pattern
        whose pairs are symmetric is its own transpose; any other builds
        its transpose once, and that transpose holds no reference back, so
        a dropped pattern is freed by reference counting."""
        return self if self._symmetric else self._transpose

    @cached_property
    def _transpose(self) -> "BLR2Pattern":
        return BLR2Pattern(self.block_count, self.block_size, frozenset((j, i) for i, j in self.pairs))

    @cached_property
    def _step_groups(self) -> tuple:
        """The row groups of both sides of the one-level step, built once:
        the block rows of the pattern, numbered 0..b-1, and those of
        ``pattern.T``, numbered b..2b-1 with their pattern blocks numbered
        the same way, so that they index a (2, b, ...) array with a side
        axis read as a (2b, ...) stack.  Positions index the pattern's
        sorted pairs followed by those of ``pattern.T``."""
        b = self.block_count
        return _group_rows(self._rows + tuple(tuple(j + b for j in row) for row in self.T._rows))

    @classmethod
    @lru_cache(maxsize=64)
    def diagonal(cls, block_count: int, block_size: int) -> "BLR2Pattern":
        """The b x b diagonal pattern, built once per (b, m) while it is among
        the 64 last asked for: the hierarchical drivers ask for one per level
        on every build.  Gain over building it and its step groups on each
        ask: 1.3-1.9 ms at b = 512, 0.55-1.1 ms at b = 256, 0.14-0.34 ms at
        b = 64; 2.7-3.1 ms of a banded-8192 build, 1-2% of a reused-svd
        one."""
        return cls(block_count, block_size, frozenset((i, i) for i in range(block_count)))

    @classmethod
    def tridiagonal(cls, block_count: int, block_size: int) -> "BLR2Pattern":
        pairs = {(i, j) for i in range(block_count) for j in (i - 1, i, i + 1) if 0 <= j < block_count}
        return cls(block_count, block_size, frozenset(pairs))

    @property
    def dim(self) -> int:
        return self.block_count * self.block_size

    @property
    def max_blocks_per_line(self) -> int:
        """Largest number of pattern blocks in any row or column."""
        return max(map(len, self._rows + self.T._rows))

    @property
    def line_columns(self) -> int:
        """Test-matrix rows under the pattern blocks of the fullest row or
        column: nullifying that line leaves s - line_columns columns of a
        width-s sketch, and un-sketching its remainder needs s >
        line_columns.  Both sketch-width floors are read from it."""
        return self.max_blocks_per_line * self.block_size

    def width_floor(self, k: int, basis_method: str = "svd-pcps") -> int:
        """Smallest sketch width whose fullest line keeps k plus the method's excess columns."""
        if basis_method not in BASIS_METHODS:
            raise ValueError(f"basis_method must be one of {tuple(BASIS_METHODS)}")
        return self.line_columns + k + BASIS_METHODS[basis_method].excess

    def check_step(self, k: int, s: int, basis_method: str = "svd-pcps") -> None:
        """Raise ValueError, naming the cause, unless a one-level step of rank
        k from width-s sketches is admissible on this pattern: 1 <= k <= m
        and s >= :meth:`width_floor`.  With the diagonal pattern and m = 2k
        the floor is the paper's s >= 3k + 2 (3k for pivoted QR)."""
        if not 1 <= k <= self.block_size:
            raise ValueError(f"rank k={k} must lie in [1, m={self.block_size}], the block size")
        floor = self.width_floor(k, basis_method)
        if s < floor:
            raise ValueError(f"sketch width s={s} is below the floor {floor} for k={k}, "
                             f"m={self.block_size} and the {basis_method} basis")


@dataclass(frozen=True)
class BLR2Factorization:
    """B = U X V^T + D with D supported on the pattern.

    U, V: (b, m, k) orthonormal-column blocks; X: (bk, bk) dense core;
    D: (nnz, m, m) remainder blocks, one per pair of ``pattern.sorted_pairs``
    in that order.  With a diagonal pattern and m = 2k, D[i] is diagonal
    block i, as in :class:`~hsskit.structures.LevelFactors`.  Each array is
    stored as a read-only view; the arrays passed in stay writable.
    """

    pattern: BLR2Pattern
    U: np.ndarray
    V: np.ndarray
    X: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        for name in ("U", "V", "X", "D"):
            object.__setattr__(self, name, _read_only(_as_real(getattr(self, name), name)))
        b, m, k = self.pattern.block_count, self.pattern.block_size, self.rank_param
        if self.U.shape != (b, m, k) or self.V.shape != (b, m, k):
            raise ValueError(f"bases U {self.U.shape}, V {self.V.shape} must both be ({b}, {m}, k), one k")
        if self.X.shape != (b * k, b * k):
            raise ValueError(f"X must have shape {(b*k, b*k)}, got {self.X.shape}")
        nnz = len(self.pattern.sorted_pairs)
        if self.D.shape != (nnz, m, m):
            raise ValueError(
                f"D must stack one ({m}, {m}) block per pattern pair, "
                f"shape {(nnz, m, m)}, got {self.D.shape}"
            )

    @property
    def rank_param(self) -> int:
        return self.U.shape[-1]

    @property
    def dim(self) -> int:
        return self.pattern.dim


def _as_sketches(pattern: BLR2Pattern, names, arrays) -> list:
    """Coerce sketch arrays to float64 and check that all share one (2,
    dim, s) shape, side 0 sketching A and side 1 A^T; a complex one raises
    a ValueError naming it."""
    arrays = [_as_real(a, name) for name, a in zip(names, arrays)]
    expected = (2, pattern.dim, *arrays[0].shape[-1:])
    for name, arr in zip(names, arrays):
        if arr.shape != expected:
            raise ValueError(f"{name} has shape {arr.shape}, expected {expected}")
    return arrays


def _selector(index: np.ndarray):
    """The index of the blocks that an array of block indices lists: a
    slice, which reads them as a view, when they are consecutive and in
    order, as the diagonal pattern's are; else the array itself, which
    gathers a copy.  Gain over gathering always: peak memory, not time.
    With gathers, three rounds of fresh, reused-svd and reused-qr builds
    raised ``ru_maxrss`` from 80.5 to 88.7 MB on banded-8192 and from 44.2
    to 45.4 MB on grid-1024 (4 fresh processes per tree); tracemalloc's
    fresh-build peak moved only from 24.2 to 25.4 MB, and in-process build
    times stayed at 0.999-1.011x."""
    flat = index.ravel()
    if flat.size and np.array_equal(flat, np.arange(flat[0], flat[0] + flat.size)):
        return slice(int(flat[0]), int(flat[0]) + flat.size)
    return index


def _blocks(pattern: BLR2Pattern, arr: np.ndarray) -> np.ndarray:
    """View an array with a side axis, (2, dim, c) or (2, b, m, c), as its
    (2b, m, c) stack of block rows, numbered as ``pattern._step_groups``
    numbers them."""
    return arr.reshape(-1, pattern.block_size, arr.shape[-1])


def _chunks(pattern: BLR2Pattern, s: int) -> tuple:
    """The stacks of the one-level step on width-s sketches: each group of
    ``pattern._step_groups`` cut into chunks of at most max(1, PANEL_BYTES
    // (8 s^2)) rows, so that a chunk's largest temporaries, of order 8 s^2
    bytes a row each, take about PANEL_BYTES: the pivoted-QR basis's
    complete s x s nullspace Q, the SVD basis's s x h m factor Q1 and m x s
    product in ``nullified_factor``, and the remainder's h m x h m
    triangular inverse.

    Each chunk is ``(rows, hits, positions)``: g block rows with h pattern
    blocks each, from both sides.  ``rows`` and ``hits`` are the
    :func:`_selector` of those rows and of their pattern blocks in a (2b,
    ...) stack of :func:`_blocks`; ``positions`` (g, h) are the places of
    the pattern blocks in the pattern's sorted pairs followed by those of
    ``pattern.T``.  Built on each step, so no plan keeps a pattern alive."""
    size = max(1, structures.PANEL_BYTES // (8 * s * s))
    return tuple(
        (_selector(members[a : a + size]), _selector(hits[a : a + size]), positions[a : a + size])
        for members, hits, positions in pattern._step_groups
        for a in range(0, len(members), size)
    )


def blr2_remainder(pattern: BLR2Pattern, bases, tests, images) -> np.ndarray:
    """Recover the pattern blocks from the diagonal-recovery sketches.

    ``bases`` (2, b, m, k) holds fixed orthonormal bases, U on side 0 and V
    on side 1; ``tests`` and ``images`` are (2, dim, s), side 0 holding
    omega_diag and Y_diag = A omega_diag, side 1 psi_diag and Z_diag = A^T
    psi_diag.  Block (i, j) of the result is

        R_i[:, j] + U_i U_i^T C_j[:, i]^T,
        R_i = (I - U_i U_i^T) Y_i pinv(Omega_i),
        C_j = (I - V_j V_j^T) Z_j pinv(Psi_j),

    where Omega_i (Psi_j) stacks the omega_diag (psi_diag) blocks of pattern
    row i (column j) and the slices pick the columns of block j (i).  Blocks
    are stacked in ``pattern.sorted_pairs`` order.  The sketches must be
    independent of the bases and have at least ``pattern.line_columns`` + 1
    columns; for a one-pair pattern {(i, i)} this is the classic diagonal
    recovery with at least 2k + 1 columns (2k + 2 for the error bound).
    R and C are un-sketched together, the block columns j being the block
    rows of ``pattern.T``: one stack per chunk of :func:`_chunks`.
    """
    bases = _as_real(bases, "bases")
    b, m = pattern.block_count, pattern.block_size
    if bases.ndim != 4 or bases.shape[:3] != (2, b, m):
        raise ValueError(f"bases has shape {bases.shape}, expected (2, {b}, {m}, k)")
    tests, images = _as_sketches(pattern, ("tests", "images"), (tests, images))
    s, floor = tests.shape[-1], pattern.line_columns + 1
    if s < floor:
        raise ValueError(f"diagonal-recovery sketches need at least {floor} columns, got {s}")
    tests, images, stack = _blocks(pattern, tests), _blocks(pattern, images), _blocks(pattern, bases)
    nnz = len(pattern.sorted_pairs)
    out = np.empty((2 * nnz, m, m))
    for rows, hits, positions in _chunks(pattern, s):
        g, h = positions.shape
        if h == 0:
            continue
        block, basis = images[rows], stack[rows]
        residual = np.matmul(basis, basis.transpose(0, 2, 1) @ block)
        np.subtract(block, residual, out=residual)
        del block, basis
        slabs = right_pinv_apply(residual, tests[hits].reshape(g, h * m, s))
        out[positions] = slabs.reshape(g, m, h, m).transpose(0, 2, 1, 3)
    # C comes in the pair order of pattern.T; sorting the transpose's pairs
    # (j, i) by (i, j) puts it in the pair order of the pattern.
    R, C = out[:nnz], out[nnz:][np.lexsort(pattern.T._pair_index)]
    Ur = bases[0][pattern._pair_index[0]]
    return R + Ur @ (Ur.transpose(0, 2, 1) @ C.transpose(0, 2, 1))


def blr2_factors_from_sketches(
    pattern, k, tests, images, tests_diag, images_diag, basis_method="svd-pcps"
):
    """Recover (U, V, D) from one set of sketches and their images.

    All four arrays are (2, pattern.dim, s) with a side axis: side 0 holds
    the test matrices omega and omega_diag and their images Y = A omega and
    Y_diag = A omega_diag, side 1 psi and psi_diag and Z = A^T psi and Z_diag
    = A^T psi_diag.  Bases come from the nullified sketches through
    ``basis_method``, one of :data:`BASIS_METHODS` ("svd-pcps": sketched SVD;
    "pivoted-qr": leading columns of a column-pivoted QR), U from side 0 and
    V from side 1.  D is stacked in ``pattern.sorted_pairs`` order, see
    :func:`blr2_remainder`.  Each array is read as one (2b, m, s) stack of
    block rows, those of the pattern followed by those of ``pattern.T``, and
    the rows of both sides with the same number of pattern blocks form one
    stack, so the nullifications, the bases and the remainder's
    pseudo-inverses take one kernel call per group and chunk of
    :func:`_chunks`: one each for the diagonal pattern at small b, whose
    kernel inputs are views of the arrays.  A rank or sketch width that
    :meth:`BLR2Pattern.check_step` rejects fails at entry.
    """
    names = ("tests", "images", "tests_diag", "images_diag")
    tests, images, tests_diag, images_diag = _as_sketches(
        pattern, names, (tests, images, tests_diag, images_diag)
    )
    s = tests.shape[-1]
    pattern.check_step(k, s, basis_method)
    method, m = BASIS_METHODS[basis_method], pattern.block_size
    bases = np.empty((2, pattern.block_count, m, k))
    stack, tests, images = _blocks(pattern, bases), _blocks(pattern, tests), _blocks(pattern, images)
    for rows, hits, positions in _chunks(pattern, s):
        # Sketch i is rho_i(A) G_i P_i, times a rotation on the right for
        # the SVD basis: rho_i(A) is block row i's admissible part, G_i the
        # blocks of tests outside row i's pattern blocks and P_i a
        # nullspace basis of those pattern blocks.
        g, h = positions.shape
        block, omega = images[rows], tests[hits].reshape(g, h * m, s)
        if h == 0:
            sketches = block
        elif method.rotation_free:
            sketches = nullified_factor(block, omega)
        else:
            sketches = block @ nullspace_basis(omega)
        stack[rows] = method.kernel(sketches, k)
    return bases[0], bases[1], blr2_remainder(pattern, bases, tests_diag, images_diag)


def _query_sketches(stream: RngStream, pattern: BLR2Pattern, s: int, op: MatvecOracle) -> np.ndarray:
    """Draw the four Gaussian test matrices of a one-level step, each one
    (dim, s) draw from ``stream.child(role)`` whose block i is rows
    [i m, (i + 1) m), and query their images through ``op`` (4s queries:
    Y = A omega, Z = A^T psi, Y_diag = A omega_diag, Z_diag = A^T psi_diag,
    in that order).  Returns one (4, 2, dim, s) array whose entries are the
    four arguments of :func:`blr2_factors_from_sketches`, each with its side
    axis; the draws are made straight into it."""
    sketches = np.empty((4, 2, pattern.dim, s))
    for test, suffix in ((0, ""), (2, "-diag")):
        for side, role in enumerate(("omega", "psi")):
            gaussian(pattern.dim, s, stream.child(role + suffix), out=sketches[test, side])
    for test in (0, 2):
        sketches[test + 1, 0] = op.apply(sketches[test, 0])
        sketches[test + 1, 1] = op.apply_transpose(sketches[test, 1])
    return sketches


def _remainder_matmul(pattern: BLR2Pattern, D: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The block-sparse product D x: per row group, one batched matmul of
    each row's pattern blocks, side by side, with their blocks of x."""
    b, m = pattern.block_count, pattern.block_size
    w = x.shape[1]
    xb = x.reshape(b, m, w)
    out = np.zeros((b, m, w))
    for members, hits, positions in pattern._row_groups:
        g, h = hits.shape
        slab = D[positions].transpose(0, 2, 1, 3).reshape(g, m, h * m)
        out[members] = slab @ xb[hits].reshape(g, h * m, w)
    return out.reshape(pattern.dim, w)


def blr2_from_matvecs(
    oracle: MatvecOracle, pattern: BLR2Pattern, k: int, s: int, seed: int
) -> BLR2Factorization:
    """Build a BLR2 approximation from 4s sketch queries plus b*k core probes.

    The core X = U^T (A - D) V needs access beyond the sketches; it is
    realized by probing A with the b*k columns of the block-diagonal V and
    subtracting U_i^T D_ij V_j from block (i, j) for every pattern pair.
    Each probe call takes one panel of max(1, PANEL_BYTES // (8 N)) columns
    of blockdiag(V), so the dense N x b*k probe is never formed.
    """
    if oracle.dim != pattern.dim:
        raise ValueError(f"oracle dim {oracle.dim} does not match pattern dim {pattern.dim}")
    pattern.check_step(k, s)
    b = pattern.block_count
    sketches = _query_sketches(RngStream(seed), pattern, s, oracle)
    U, V, D = blr2_factors_from_sketches(pattern, k, *sketches)
    del sketches  # before the core probe, so its panels do not add to them
    X = _in_panels(
        lambda a, z: block_apply_t(U, oracle.apply(block_apply(V, np.eye(b * k, z - a, -a)))),
        b * k, b * k, 8 * pattern.dim,
    ).reshape(b, k, b, k)
    rows, cols = pattern._pair_index
    X[rows, :, cols] -= U[rows].transpose(0, 2, 1) @ D @ V[cols]
    return BLR2Factorization(pattern, U, V, X.reshape(b * k, b * k), D)


def blr2_reconstruct(F: BLR2Factorization) -> np.ndarray:
    """Dense matrix represented by a BLR2 factorization."""
    b, m = F.pattern.block_count, F.pattern.block_size
    dense = block_apply(F.V, block_apply(F.U, F.X).T).T.reshape(b, m, b, m)
    rows, cols = F.pattern._pair_index
    dense[rows, :, cols] += F.D
    return dense.reshape(F.dim, F.dim)


def blr2_apply(F: BLR2Factorization, x) -> np.ndarray:
    """Apply a BLR2 factorization to a vector or block of vectors.  A wide
    operand is applied in panels of max(32, PANEL_BYTES // (8 N)) columns,
    as in :func:`~hsskit.structures.hss_apply`."""

    def panel(xp):
        y = block_apply(F.U, F.X @ block_apply_t(F.V, xp))
        y += _remainder_matmul(F.pattern, F.D, xp)
        return y

    return _on_columns(x, F.dim, lambda xm: _in_panels(
        lambda a, z: panel(xm[:, a:z]), F.dim, xm.shape[1], 8 * F.dim, floor=32
    ))
