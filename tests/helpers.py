"""Shared construction helpers for the test suite.

Oracles used to freeze expected values (brute-force slicers, full-SVD tails)
are deliberately written here, independently of the library code paths they
check.
"""

import tracemalloc
from functools import lru_cache

import numpy as np
import scipy.linalg

from hsskit import BLR2Factorization, BLR2Pattern, MatvecOracle, RngStream, blr2, gaussian
from hsskit.kernels import nullified_factor, nullspace_basis, right_pinv_apply
from hsskit.sketching import BASIS_METHODS
from hsskit.structures import block_apply, block_apply_t
from hsskit.testbed import _banded_arrays


def peak_bytes(fn):
    """(fn(), bytes fn allocated at its peak beyond what was held before)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def rand_orthonormal(rows, cols, rng):
    """Orthonormal columns via QR of a Gaussian draw."""
    q, _ = np.linalg.qr(rng.standard_normal((rows, cols)))
    return q


def random_sss(level, k, seed):
    """Random one-level factorization at the given level: BLR2 with the
    diagonal pattern and block size 2k."""
    rng = np.random.default_rng(seed)
    b, w = 2**level, 2 * k
    U = np.stack([rand_orthonormal(w, k, rng) for _ in range(b)])
    V = np.stack([rand_orthonormal(w, k, rng) for _ in range(b)])
    X = rng.standard_normal((b * k, b * k))
    D = np.stack([rng.standard_normal((w, w)) for _ in range(b)])
    return BLR2Factorization(BLR2Pattern.diagonal(b, w), U, V, X, D)


def pattern_row(pattern, i):
    """Columns j with (i, j) in the pattern, read from its sorted pairs."""
    return tuple(j for r, j in pattern.sorted_pairs if r == i)


def svd_tail_energy(B, k):
    """Optimal rank-k squared Frobenius error, from a full SVD."""
    svals = np.linalg.svd(B, compute_uv=False)
    return float(np.sum(svals[k:] ** 2))


def brute_block_row(A, block_size, i):
    """Index-arithmetic slicer: concatenate blocks (i, j) for j != i."""
    b = A.shape[0] // block_size
    pieces = []
    for j in range(b):
        if j == i:
            continue
        pieces.append(A[i * block_size : (i + 1) * block_size, j * block_size : (j + 1) * block_size])
    return np.hstack(pieces)


def brute_block_col(A, block_size, j):
    b = A.shape[0] // block_size
    pieces = []
    for i in range(b):
        if i == j:
            continue
        pieces.append(A[i * block_size : (i + 1) * block_size, j * block_size : (j + 1) * block_size])
    return np.vstack(pieces)


def brute_blr2_parts(F):
    """Dense blockdiag(U), blockdiag(V) and remainder of a BLR2
    factorization, the remainder placed pair by pair."""
    b, m, k = F.pattern.block_count, F.pattern.block_size, F.rank_param
    Ud = np.zeros((b * m, b * k))
    Vd = np.zeros((b * m, b * k))
    for i in range(b):
        Ud[i * m : (i + 1) * m, i * k : (i + 1) * k] = F.U[i]
        Vd[i * m : (i + 1) * m, i * k : (i + 1) * k] = F.V[i]
    Dd = np.zeros((b * m, b * m))
    for (i, j), blk in zip(F.pattern.sorted_pairs, F.D):
        Dd[i * m : (i + 1) * m, j * m : (j + 1) * m] = blk
    return Ud, Vd, Dd


def rank_deficient_free_gaussian(rows, cols, seed):
    return gaussian(rows, cols, RngStream(seed).child("test"))


def side_stacks(omega, psi, omega_diag, psi_diag, Y, Z, Y_diag, Z_diag):
    """The eight (dim, s) sketch arrays of a one-level step as its four
    (2, dim, s) arguments tests, images, tests_diag and images_diag: side 0
    the test matrices of A and their images, side 1 those of A^T."""
    return (np.stack((omega, psi)), np.stack((Y, Z)),
            np.stack((omega_diag, psi_diag)), np.stack((Y_diag, Z_diag)))


def nullify_rows(pattern, tests, images):
    """Nullify every block row of ``pattern`` as the one-level step does for
    the pivoted-QR basis: one ``nullspace_basis`` call per chunk of
    ``blr2._chunks`` on the chunk's stacked pattern blocks of ``tests``,
    and the chunk's image blocks times its bases, with ``tests`` and
    ``images`` on both sides; the rows of the second side, ``pattern.T``'s,
    are dropped.  Returns {i: (P_i, sketch_i)}, P_i the nullspace basis of
    row i; a row with no pattern blocks has the identity.  For block column
    j, pass ``pattern.T``, psi and Z = A^T psi."""
    b, m, s = pattern.block_count, pattern.block_size, tests.shape[-1]
    tests, images = (blr2._blocks(pattern, np.stack((arr, arr))) for arr in (tests, images))
    rows = {}
    for chunk_rows, hits, positions in blr2._chunks(pattern, s):
        g, h = positions.shape
        P = nullspace_basis(tests[hits].reshape(g, h * m, s))
        sketches = images[chunk_rows] @ P
        for t, i in enumerate(np.arange(2 * b)[chunk_rows]):
            if i < b:
                rows[int(i)] = (P[t], sketches[t])
    return rows


def per_side_step(pattern, k, omega, psi, omega_diag, psi_diag, Y, Z, Y_diag, Z_diag,
                  basis_method="svd-pcps"):
    """The one-level step run one side at a time: the U side on ``pattern``,
    omega and Y, then the V side on ``pattern.T``, psi and Z, each kernel
    called once per row group of the side's ``_row_groups``, whole, and the
    nullification of the basis method's route (``nullified_factor`` for a
    rotation-free kernel, the image blocks times ``nullspace_basis``
    otherwise) on every row, a row with no pattern blocks included: its
    image blocks, which ``nullified_factor`` of an omega with no rows
    returns, or its image blocks times the identity, where the step hands
    the kernel its image blocks as they are.  The reference that the
    two-sided step in chunks must match byte for byte."""
    b, m = pattern.block_count, pattern.block_size
    method = BASIS_METHODS[basis_method]

    def blocks(arr):
        return arr.reshape(b, m, -1)

    def bases(side, tests, images):
        out = np.empty((b, m, k))
        for members, hits, _ in side._row_groups:
            g, h = hits.shape
            sketches, stacked = blocks(images)[members], blocks(tests)[hits].reshape(g, h * m, tests.shape[1])
            if method.rotation_free:
                sketches = nullified_factor(sketches, stacked)
            else:
                sketches = sketches @ nullspace_basis(stacked)
            out[members] = method.kernel(sketches, k)
        return out

    def unsketch(side, Q, images, tests):
        out = np.empty((len(side.sorted_pairs), m, m))
        for members, hits, positions in side._row_groups:
            g, h = hits.shape
            if h == 0:
                continue
            block, basis = blocks(images)[members], Q[members]
            residual = block - basis @ (basis.transpose(0, 2, 1) @ block)
            slabs = right_pinv_apply(residual, blocks(tests)[hits].reshape(g, h * m, -1))
            out[positions] = slabs.reshape(g, m, h, m).transpose(0, 2, 1, 3)
        return out

    U, V = bases(pattern, omega, Y), bases(pattern.T, psi, Z)
    R = unsketch(pattern, U, Y_diag, omega_diag)
    C = unsketch(pattern.T, V, Z_diag, psi_diag)[np.lexsort(pattern.T._pair_index)]
    Ur = U[pattern._pair_index[0]]
    return U, V, R + Ur @ (Ur.transpose(0, 2, 1) @ C.transpose(0, 2, 1))


def random_banded_matrix(n, bandwidth, seed):
    """Dense form of the random symmetric banded matrix whose inverse
    :func:`~hsskit.testbed.banded_inverse_oracle` applies (same seed gives
    the same matrix)."""
    diag, offs = _banded_arrays(n, bandwidth, seed)
    M = np.diag(diag)
    for d, off in enumerate(offs, start=1):
        M += np.diag(off, d) + np.diag(off, -d)
    return M


def direct_svd_left(B, k):
    """Top-k left singular vectors from the SVD of the 2-D matrix B itself,
    with the documented sign rule (largest-magnitude entry of each column
    positive) and tie rule (singular values within 1e-14 of the k-th,
    relative to the largest, are ordered by their sign-normalized vectors,
    lexicographically)."""
    U, svals, _ = np.linalg.svd(B, full_matrices=False)
    lead = U[np.argmax(np.abs(U), axis=0), np.arange(U.shape[1])]
    U = U * np.where(lead < 0, -1.0, 1.0)
    tied = np.flatnonzero(np.abs(svals - svals[k - 1]) <= 1e-14 * svals[0])
    if svals[0] > 0 and tied[-1] >= k:
        U[:, tied] = U[:, sorted(tied, key=lambda j: tuple(U[:, j]))]
    return U[:, :k]


def reference_config_accepts(L, k, s, basis_method, sketch_policy):
    """The parameter rule of a matvec run as its own hand-written floors
    stated it: L, k >= 1, s >= 2k + 1, the fresh policy with the SVD basis
    and s >= 3k + 2, the reused one with s >= 3k + 2 (SVD) or 3k (QR)."""
    if L < 1 or k < 1 or s < 2 * k + 1:
        return False
    if sketch_policy == "fresh":
        return basis_method == "svd-pcps" and s >= 3 * k + 2
    return s >= (3 * k + 2 if basis_method == "svd-pcps" else 3 * k)


# The matvec algorithms of the experiment harness, each with its sketch-width
# floor at rank k as the paper states it: 3k + 2 with the SVD basis, 3k with
# pivoted QR.
MATVEC_FLOORS = {"fresh": lambda k: 3 * k + 2, "reused-svd": lambda k: 3 * k + 2,
                 "reused-qr": lambda k: 3 * k}


def reference_width_floor(pattern, k):
    """Sketch-width floor of a BLR2 build with the SVD basis: the fullest
    row or column's pattern blocks times m, plus k + 2."""
    rows = [sum(1 for i, _ in pattern.pairs if i == r) for r in range(pattern.block_count)]
    cols = [sum(1 for _, j in pattern.pairs if j == c) for c in range(pattern.block_count)]
    return max(rows + cols) * pattern.block_size + k + 2


def direct_pivoted_qr_basis(B, k):
    """First k columns of scipy's economic column-pivoted QR of the 2-D
    matrix B, with the documented sign rule (largest-magnitude entry of
    each column positive)."""
    Q = scipy.linalg.qr(B, mode="economic", pivoting=True)[0][:, :k]
    lead = Q[np.argmax(np.abs(Q), axis=0), np.arange(k)]
    return np.where(lead < 0, -Q, Q)


def stacked_direct_pivoted_qr_basis(B, k):
    """:func:`direct_pivoted_qr_basis` of each member of a (b, rows, cols)
    stack, or of one 2-D matrix: a stand-in for ``pivoted_qr_basis`` that
    calls LAPACK per member."""
    B = np.asarray(B)
    if B.ndim == 2:
        return direct_pivoted_qr_basis(B, k)
    return np.stack([direct_pivoted_qr_basis(member, k) for member in B]).reshape(len(B), B.shape[1], k)


def lapack_pivots(B, k):
    """The first k pivots of LAPACK ``geqp3`` on the 2-D matrix B and how
    many of them lead while the pivot's residual norm |R_jj| exceeds
    sqrt(eps) times the largest column norm of B."""
    _, R, piv = scipy.linalg.qr(B, mode="economic", pivoting=True)
    scale = np.abs(B).max() or 1.0  # keeps the column norms finite at any scale
    largest = scale * np.linalg.norm(B / scale, axis=0).max()
    above = np.abs(np.diag(R)[:k]) > np.sqrt(np.finfo(float).eps) * largest
    return piv[:k], k if above.all() else int(np.argmin(above))


def svd_rank_deficient_index(R):
    """First member of a stack of square R factors whose smallest singular
    value is at or below 1e-12 times its largest, from the singular values
    of the whole stack; None when every member has full rank."""
    svals = np.linalg.svd(R, compute_uv=False)
    deficient = np.flatnonzero(svals[:, -1] <= 1e-12 * svals[:, 0])
    return int(deficient[0]) if deficient.size else None


def chained_compress(oracle, lf):
    """The compressed operator U^T (A - D) V as one closure wrapped around
    ``oracle``: a chain of them walks every finer level's V, D and U on each
    query.  The transpose is the same body on ``(oracle.T, lf.T)``."""

    def product(op, f):
        def apply(x):
            hat = block_apply(f.V, x)
            return block_apply_t(f.U, op.apply(hat) - block_apply(f.D, hat))

        return apply

    dim = lf.block_count * lf.rank_param
    return MatvecOracle(dim, product(oracle, lf), product(oracle.T, lf.T))


@lru_cache(maxsize=None)
def grid_schur_dense(n_rows):
    """Schur complement of the n_rows x 51 grid-graph Laplacian onto its
    middle column 25, from the Laplacian assembled edge by edge.  Cached:
    treat the result as read-only."""
    cols = 51
    size = n_rows * cols
    lap = np.zeros((size, size))
    edges = [(r * cols + c, r * cols + c + 1) for r in range(n_rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(n_rows - 1) for c in range(cols)]
    for i, j in edges:
        lap[[i, j], [i, j]] += 1.0
        lap[[i, j], [j, i]] -= 1.0
    sep = np.arange(n_rows) * cols + 25
    rest = np.setdiff1d(np.arange(size), sep)
    coupling = lap[np.ix_(rest, sep)]
    S = lap[np.ix_(sep, sep)] - coupling.T @ np.linalg.solve(lap[np.ix_(rest, rest)], coupling)
    S.flags.writeable = False
    return S


def grid_schur_band(n_rows):
    """Product x -> S x with the Schur complement of the n_rows x 51 grid
    Laplacian onto its middle column, for a 2-D x, by band solves.

    One 25-column side is factored with a banded Cholesky (row-major,
    half-bandwidth 25, outer edge in column 0, separator next to column 24)
    and its Schur term E^T L_side^{-1} E counted twice: the two sides are
    mirror images.  The separator edges have weight -1, so the two signs of
    E cancel.
    """
    w = 25
    size = n_rows * w
    degree = np.full((n_rows, w), 4.0)
    degree[0] -= 1.0
    degree[-1] -= 1.0
    degree[:, 0] -= 1.0
    ab = np.zeros((w + 1, size))
    ab[w] = degree.reshape(size)
    ab[w - 1, 1:] = -1.0
    ab[w - 1, w::w] = 0.0  # no edge across row boundaries
    ab[0, w:] = -1.0
    factor = scipy.linalg.cholesky_banded(ab)
    coupling = np.arange(n_rows) * w + (w - 1)  # side vertices next to the separator
    sep_degree = np.full(n_rows, 4.0)
    sep_degree[0] -= 1.0
    sep_degree[-1] -= 1.0

    def apply(x):
        y = sep_degree[:, None] * x
        y[:-1] -= x[1:]
        y[1:] -= x[:-1]
        rhs = np.zeros((size, x.shape[1]))
        rhs[coupling] = x
        return y - 2.0 * scipy.linalg.cho_solve_banded((factor, False), rhs)[coupling]

    return apply
