"""Deterministic dense linear-algebra kernels and seeded Gaussian sampling.

This module contains the small set of dense primitives everything else is
built on:

  - ``RngStream``: splittable, path-keyed random streams (counter-based
    Philox underneath).  The sketch path keys one stream per (seed, level,
    role) and draws the whole test matrix from it; block i of a level is a
    row slice of that draw, so no block's sample depends on a schedule.
  - ``gaussian``: reproducible i.i.d. standard-normal test matrices.
  - ``truncated_svd_left``: top-k left singular subspace with deterministic
    sign / tie handling, from one batched eigendecomposition of B B^T for
    the members that a guard on their own eigenvalues or a check of their
    own residual proves accurate, and from the SVD for the rest.
  - ``nullspace_basis``: orthonormal nullspace basis of a wide matrix, from
    a complete QR of its transpose.
  - ``nullified_factor``: a factor with the left singular vectors and
    values of Y @ nullspace_basis(Omega), from the factorization of Omega
    that ``right_pinv_apply`` uses.
  - ``pivoted_qr_basis``: leading columns of a column-pivoted QR.
  - ``right_pinv_apply``: Y @ pinv(Omega) for wide Omega via a Cholesky
    factorization of Omega Omega^T, batched over the stack, with the
    members off that route taken from one batched thin QR of Omega^T.

All five factorization kernels take one matrix or a stack (b, r, c) of
equal-shape matrices and return the matching leading shape; one call serves
a whole level of blocks, and the input checks run once per stack.  A 2-D
argument is a stack of one, and every member's result is the same bytes
alone as in any stack.  The module needs numpy only; numpy has no pivoted
QR, so ``pivoted_qr_basis`` reads LAPACK ``geqp3``'s pivots off each
member's Gram matrix (:func:`_pivots`), or off its explicit residual where
the Gram matrix no longer orders the columns (:func:`_residual_pivots`).
The Gram pivots come from a left-looking pivoted Cholesky factorization:
each step forms only the pivot's row of the Schur complement, one batched
(b, 1, j) @ (b, j, c) product, so the k steps cost O(k^2 c) per member
past the O(r c^2) Gram product: 0.41x the time of a rank-one update of the
whole Schur complement per pivot, on the stacks of a banded-8192 reused-qr
build.

``truncated_svd_left`` forms no right singular vectors.  Every member of
a stack takes the top k eigenvectors U of B B^T from one batched
``np.linalg.eigh``, and keeps them by a three-way rule: where a guard on
its eigenvalues bounds the residual U adds at eps ||B||_2^2 (banded-8192
reused-svd builds: 0.84x of the SVD alone, ``BENCH_26.json``); else where
its own residual ||B - U U^T B||_F^2, computed from B, is at most eps / 4
times B's largest squared column norm, a lower bound on ||B||_2^2, so the
residual itself stays within eps ||B||_2^2 (explicit builds: 0.75x,
``BENCH_32.json``); and the SVD takes the rest, ties above that floor and
zero members.

``nullspace_basis``, ``nullified_factor`` and ``right_pinv_apply`` decide
rank from the square upper-triangular factor R of omega^T.  Each member is
scaled by the power of two that brings max|R| into [0.5, 1), and the whole
stack is inverted by one batched triangular inverse (``_invert_upper``)
at its own size, with no padding.
Most members are settled by the proven bound sigma_min / sigma_max >= 1 /
(||R||_F ||R^{-1}||_F), two norms; only members whose bound does not clear
``RANK_CUTOFF`` with a factor ``RANK_BOUND_MARGIN`` to spare (or whose R
has an exact zero pivot) go to the singular values.  ``nullified_factor``
and ``right_pinv_apply`` share ``_row_factor``: R is the Cholesky factor of
omega omega^T wherever the same bound, below 2 (m + n), proves the member
well conditioned, and comes from one thin Householder QR of the others.
No kernel is left with an LU factorization or a general solve.

Where a kernel has more than one route, each kept route's docstring gives
its gain over the simplest correct form without it: a committed BENCH file
where one is named, else the median of 15-40 in-process alternating A/B
pairs (2-vCPU Xeon VM, one pinned CPU, 1 BLAS thread, numpy 2.4).

All functions are pure; streams are value types.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RngStream",
    "as_matrix",
    "gaussian",
    "nullified_factor",
    "nullspace_basis",
    "pivoted_qr_basis",
    "right_pinv_apply",
    "truncated_svd_left",
]

# Relative singular-value cutoff used for rank decisions throughout.
RANK_CUTOFF = 1e-12
# How far a member's proven bound on sigma_min / sigma_max must clear
# RANK_CUTOFF for the rank check to skip its singular values.
RANK_BOUND_MARGIN = 2.0
# The bound test on squared norms: ||R||_F^2 ||R^{-1}||_F^2 below this.
_BOUND_LIMIT = (RANK_BOUND_MARGIN * RANK_CUTOFF) ** -2
# Relative gap below which singular values are treated as tied.
TIE_CUTOFF = 1e-14
_EPS = float(np.finfo(np.float64).eps)
# A pivoted-QR pivot is read off the Gram matrix only while its squared
# residual norm exceeds this fraction of the member's largest squared column
# norm (LAPACK's tol3z), and only when that norm exceeds _GRAM_FLOOR.
_GRAM_TRUST = float(np.sqrt(_EPS))
# The Cholesky route of right_pinv_apply is taken only where the largest
# diagonal entry of omega omega^T lies in [_GRAM_FLOOR, 1 / _GRAM_FLOOR].
_GRAM_FLOOR = 2.0**-900
_FLOAT64 = np.dtype(np.float64)


def _as_real(a, name: str) -> np.ndarray:
    """Coerce to float64; a complex array raises a ValueError naming ``name``.
    A float64 array is returned as it is, with no further check: factors
    and replies pass here on every build and product."""
    arr = np.asarray(a)
    if arr.dtype is _FLOAT64:
        return arr
    if arr.dtype.kind == "c":
        raise ValueError(f"{name} has complex dtype {arr.dtype}; hsskit works in real float64")
    return arr.astype(np.float64, copy=False)


def _read_only(arr: np.ndarray) -> np.ndarray:
    """``arr`` if it is read-only, else a read-only view of it; ``arr``
    itself stays writable.  Factor containers store their arrays this way,
    and user products receive their operands this way."""
    if arr.flags.writeable:
        arr = arr.view()
        arr.flags.writeable = False
    return arr


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array and reject complex or non-finite entries."""
    arr = _as_real(a, name)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _encode_label(label) -> int:
    """Map a stream-path label (small int or short string) to a stable int."""
    if isinstance(label, (bool, float)):
        raise TypeError(f"unsupported stream label type: {type(label)!r}")
    if isinstance(label, (int, np.integer)):
        value = int(label)
        if value < 0:
            raise ValueError("integer stream labels must be non-negative")
        return value
    if isinstance(label, str):
        # Offset by 2**64 so string labels can never collide with int labels.
        return (1 << 64) + int.from_bytes(label.encode("utf-8"), "big")
    raise TypeError(f"unsupported stream label type: {type(label)!r}")


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream identified by (seed, derivation path).

    Identical (seed, path) pairs always produce identical samples; distinct
    paths behave as independent streams.  ``child`` derives a substream and
    never mutates the parent, so streams can be handed to parallel workers
    without coordination.  Each generator set-up costs a SeedSequence and a
    Philox, so callers key one stream per draw they need (per level and
    role for sketches), not one per block, and slice blocks out of it.
    """

    seed: int
    path: tuple = ()

    def child(self, *labels) -> "RngStream":
        """Derive the substream identified by appending ``labels`` to the path."""
        return RngStream(self.seed, self.path + tuple(_encode_label(l) for l in labels))

    def generator(self) -> np.random.Generator:
        """Fresh generator for this stream; repeated calls restart the sequence."""
        entropy = [int(self.seed) & 0xFFFFFFFFFFFFFFFF, *self.path]
        return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def gaussian(rows: int, cols: int, stream: RngStream, out: np.ndarray | None = None) -> np.ndarray:
    """Sample a rows-by-cols matrix of i.i.d. standard normals from ``stream``.

    With ``out``, a C-contiguous float64 (rows, cols) array, the sample is
    drawn straight into it and ``out`` is returned; the values are the same.
    """
    if rows <= 0 or cols <= 0:
        raise ValueError(f"matrix dimensions must be positive, got {rows}x{cols}")
    if out is None:
        return stream.generator().standard_normal((rows, cols))
    if out.shape != (rows, cols):
        raise ValueError(f"out has shape {out.shape}, expected {(rows, cols)}")
    return stream.generator().standard_normal(out=out)


def _as_stack(a, name: str):
    """Coerce a 2-D matrix or a (b, r, c) stack to a 3-D float64 stack and
    reject complex or non-finite entries.  Returns ``(stack, single)``;
    ``single`` says the input was 2-D, i.e. a stack of one."""
    arr = _as_real(a, name)
    if arr.ndim not in (2, 3):
        raise ValueError(f"{name} must be a 2-D matrix or a 3-D stack, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return (arr[None], True) if arr.ndim == 2 else (arr, False)


def _fix_signs(U: np.ndarray) -> np.ndarray:
    """Flip in place the column signs of a (b, r, c) stack so the
    largest-magnitude entry of each column is positive (the first of equal
    magnitudes decides); returns U."""
    b, r, c = U.shape
    lead = U.reshape(b, r * c)[np.arange(b)[:, None], np.abs(U).argmax(axis=1) * c + np.arange(c)]
    U *= np.where(lead < 0, -1.0, 1.0)[:, None, :]
    return U


def _invert_upper(work: np.ndarray) -> None:
    """Invert in place each member of a C-ordered (b, n, n) stack of upper
    triangular matrices; entries below the diagonal must be zero.

    The inverses of the 1 x 1 diagonal blocks are reciprocals.  Each level
    then pairs neighbouring diagonal blocks of size M, from the first row
    on and while a pair fits, into blocks of size 2M, [[A, B], [0, C]]^{-1}
    = [[A^{-1}, -A^{-1} B C^{-1}], [0, C^{-1}]], with the off-diagonal block
    of every pair of every member in one batched product.  The blocks left
    have the sizes of the binary digits of n, largest first (32 and 16 for
    n = 48), and the same formula joins them from the last: two products
    per level and per join.  The stack is negated first, so
    A^{-1} (-B) C^{-1} is a plain product.  A zero pivot gives its member
    non-finite entries, and numpy's floating-point warnings, which a caller
    that expects one silences; other members are unaffected.
    """
    b, n = work.shape[:2]
    size = work.itemsize
    np.negative(work, out=work)
    diagonal = np.ndarray((b, n), work.dtype, work, 0, (work.strides[0], (n + 1) * size))
    np.divide(-1.0, diagonal, out=diagonal)
    M = 1
    while 2 * M <= n:
        # The (b, n // 2M) stack of diagonal blocks of size 2M, as a view.
        pairs = np.ndarray(
            (b, n // (2 * M), 2 * M, 2 * M), work.dtype, work, 0,
            (work.strides[0], 2 * M * (n + 1) * size, n * size, size),
        )
        upper = pairs[:, :, :M, M:]
        np.matmul(pairs[:, :, :M, :M], np.matmul(upper, pairs[:, :, M:, M:]), out=upper)
        M *= 2
    # Block [a, c) is joined with the inverted trailing block [c, n).
    c = n - (n & -n)
    while c:
        a = c & (c - 1)
        upper = work[:, a:c, c:]
        np.matmul(work[:, a:c, a:c], np.matmul(upper, work[:, c:, c:]), out=upper)
        c = a


def _scaled_inverse(R: np.ndarray):
    """``(inverse, exponent, bound)`` of a (b, n, n) stack of upper
    triangular factors: R[t] = 2**exponent[t] * R'[t] with max|R'[t]| in
    [0.5, 1), inverse[t] = R'[t]^{-1} (a new C-ordered stack, inverted
    in place by :func:`_invert_upper` at any n, with no padding), and
    bound[t] = ||R'[t]||_F^2 ||R'[t]^{-1}||_F^2, which is inf or NaN where
    R[t] has an exact zero pivot or its norms overflow.  Scaling by a power
    of two is exact and keeps the inverse finite at any scale of R."""
    exponent = np.frexp(np.abs(R).max(axis=(1, 2), initial=0.0))[1]
    # R may be a transposed view; _invert_upper needs a C-ordered stack.
    inverse = np.ldexp(R, -exponent[:, None, None], out=np.empty(R.shape))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        squares = np.einsum("tij,tij->t", inverse, inverse)
        _invert_upper(inverse)
        bound = squares * np.einsum("tij,tij->t", inverse, inverse)
    return inverse, exponent, bound


def _check_full_rank(R: np.ndarray, single: bool, index: np.ndarray | None = None):
    """Raise ``LinAlgError`` naming the first stack member whose square
    upper-triangular factor R of omega^T has its smallest singular value at
    or below ``RANK_CUTOFF`` relative to its largest (a zero R counts as
    rank-deficient; an empty R has full rank); member t is named as stack
    index ``index[t]``, or t without ``index``.  Otherwise return
    ``(inverse, exponent)`` of :func:`_scaled_inverse`.

    The whole stack is inverted once.  The singular values are computed only
    for members that the bound sigma_min / sigma_max >= 1 / (||R||_F
    ||R^{-1}||_F) does not already prove full rank with
    ``RANK_BOUND_MARGIN`` to spare; a member with an exact zero pivot has an
    infinite inverse, fails the bound and is left to them, as does one whose
    norms overflow.  Gain over the singular values of every member: 0.08x
    at (226, 16, 16), 0.37x at (4, 16, 16).
    """
    inverse, exponent, bound = _scaled_inverse(R)
    certain = bound < _BOUND_LIMIT
    if not certain.all():
        uncertain = np.flatnonzero(~certain)
        svals = np.linalg.svd(R[uncertain], compute_uv=False)
        deficient = uncertain[svals[:, -1] <= RANK_CUTOFF * svals[:, 0]]
        if deficient.size:
            t = int(deficient[0] if index is None else index[deficient[0]])
            where = "" if single else f" (stack index {t})"
            raise np.linalg.LinAlgError(f"omega is numerically rank-deficient{where}")
    return inverse, exponent


def truncated_svd_left(B, k: int) -> np.ndarray:
    """Top-k left singular vectors of B, as an orthonormal (rows, k) matrix.

    B is one matrix or a stack (b, rows, cols); a stack gives a (b, rows, k)
    stack, member by member, and each member's result is the same bytes
    alone as in any stack.  U U^T B is a best rank-k approximation of B in
    the Frobenius norm, to the rounding stated below.  Columns are
    sign-normalized (the largest-magnitude entry of each is positive).

    Every member takes the Gram route; it keeps that U where its guard
    holds, or else where its residual certificate holds, and takes the SVD
    route otherwise (ties above the certificate's floor, zero members).

    Gram route.  The member is scaled by the power of two that brings
    max|B| into [0.5, 1), which is exact, and U is the top k eigenvectors of
    G = B B^T from one batched ``np.linalg.eigh``; no QR, SVD or right
    factor is formed.  Forming G (gamma_cols ||B||_F^2) and eigh (backward
    error taken as rows eps ||G||_F) make the computed eigenpairs exact for
    G + E with ||E||_F <= nu = (rows + cols) eps ||B||_F^2.  With the
    computed eigenvalues l_1 >= l_2 >= ... and the gap g = l_k - l_k+1
    (l_k+1 = 0 when k = rows), the guard is

        g > nu  and  nu^2 (l_k + nu) <= eps (l_1 - nu) (g - nu)^2.

    The first left of it (Weyl) keeps the exact top-k and computed tail
    eigenvalues g - nu apart; the rotation between the two subspaces then
    solves a Sylvester equation, which bounds the energy that U misses
    beyond the optimum by nu^2 (l_k + nu) / (g - nu)^2.  So where the guard
    holds, ||B - U U^T B||_F^2 exceeds its optimum by at most eps
    ||B||_2^2.  A zero member fails the guard, and so does every tie within
    ``TIE_CUTOFF`` (it forces sigma_k / sigma_1 below sqrt(eps), where
    l_k is within nu of zero).  Gain: banded-8192 reused-svd builds at
    0.84x of the SVD route alone (``BENCH_26.json``).

    Residual certificate, for a member whose guard fails.  With S the
    scaled member, c = max_j ||S e_j||^2 and r = ||S - U (U^T S)||_F^2,
    formed from S itself (two batched products and one norm, not the
    cancelling ||S||_F^2 - ||U^T S||_F^2), the member keeps U where c > 0
    and r <= eps c / 4.  Since sigma_1^2 >= c and the optimum is >= 0, an
    exact residual of at most eps c meets the guard's own target outright.
    The check's rounding: the computed residual matrix is off by at most
    (gamma_rows + gamma_k) sqrt(k) ||S||_F <= (rows + k) eps sqrt(k cols c)
    in the Frobenius norm (|U| has 2-norm at most sqrt(k), and ||S||_F^2 <=
    cols c), and the two sums of squares by a relative rows cols eps, so
    the exact residual norm is at most sqrt(eps c) (1/2 + 1/32 + (rows + k)
    sqrt(eps k cols)), below sqrt(eps c) while (rows + k)^2 k cols eps <=
    1/16 (rows = 2k = 16: any cols below 6e10); a larger stack certifies
    nothing.  The members kept are mostly numerically rank-deficient
    blocks, whose l_k falls below nu: coarse levels, grid edge rows and the
    explicit build's slabs.
    Gain: the n = 256 explicit builds at 0.75x (grid-1024 runs) and 0.77x
    (banded-8192 runs), grid-1024 fresh builds at 0.94x and BLR2 builds at
    0.96x, lower in 10 of 10 pairs each (``BENCH_32.json``).

    SVD route, for every other member.  A wide member is first reduced to
    R^T from the QR factorization B^T = Q R, which has the same left
    singular vectors and singular values (0.45x of the SVD of B at
    (16, 16, 240), 0.73x at the explicit build's (2, 16, 128)).  When
    retained and discarded singular values tie to within ``TIE_CUTOFF``
    relative, the lexicographically earlier sign-normalized singular
    vectors are kept, so results are deterministic.

    A tall stack (rows > cols) takes the same routes.  No build makes one:
    every step sketch and every explicit block row and column is wide.
    """
    B, single = _as_stack(B, "B")
    rows, cols = B.shape[1:]
    if not 1 <= k <= min(rows, cols):
        raise ValueError(f"k={k} out of range for shape {B.shape[1:]}")
    U, off = _gram_left(B, k)
    if off.size:
        off = off[~_certified(B[off], U[off])]
        if off.size:
            U[off] = _svd_left(B[off], k)
    return U[0] if single else U


def _scaled(B: np.ndarray) -> np.ndarray:
    """Each member of a (b, rows, cols) stack times the power of two that
    brings its max|B| into [0.5, 1), which is exact; a zero member stays.
    Members stored column by column (the explicit step's block columns, a
    transposed view) take max|B| per column first, in 0.22x the time of
    the joint reduction at n = 256: explicit builds at 0.96x (banded n =
    256) and 0.91x (grid n = 1024).  On C order the joint reduction is
    2.6-6.6x faster."""
    top = np.abs(B)
    top = top.max(axis=2).max(axis=1) if B.strides[1] < B.strides[2] else top.max(axis=(1, 2))
    return np.ldexp(B, -np.frexp(top)[1][:, None, None])


def _gram_left(B: np.ndarray, k: int):
    """``(U, off)``: the Gram route of :func:`truncated_svd_left` for every
    member of a (b, rows, cols) stack, and the indices of the members whose
    guard fails."""
    rows, cols = B.shape[1:]
    scaled = _scaled(B)
    gram = scaled @ scaled.transpose(0, 2, 1)
    values, vectors = np.linalg.eigh(gram)
    nu = (rows + cols) * _EPS * np.einsum("tii->t", gram)
    top, kth = values[:, -1], values[:, -k]
    gap = kth - (values[:, -k - 1] if k < rows else 0.0) - nu
    fine = (gap > 0) & (nu * nu * (kth + nu) <= _EPS * (top - nu) * gap * gap)
    U = _fix_signs(np.ascontiguousarray(vectors[:, :, : -k - 1 : -1]))
    return U, np.flatnonzero(~fine)


def _certified(B: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Which members of a (b, rows, cols) stack the residual certificate of
    :func:`truncated_svd_left` lets keep their Gram basis U (b, rows, k):
    S, the scaled member, is nonzero and ||S - U (U^T S)||_F^2 is at most
    eps / 4 times S's largest squared column norm."""
    rows, cols = B.shape[1:]
    k = U.shape[2]
    S = _scaled(B)
    R = U @ (U.transpose(0, 2, 1) @ S)
    np.subtract(S, R, out=R)
    top = np.einsum("tij,tij->tj", S, S).max(axis=1)
    small = (rows + k) ** 2 * k * cols * _EPS <= 1 / 16
    return small & (top > 0) & (np.einsum("tij,tij->t", R, R) <= 0.25 * _EPS * top)


def _svd_left(B: np.ndarray, k: int) -> np.ndarray:
    """The SVD route of :func:`truncated_svd_left` for a (b, rows, cols)
    stack, with the ``TIE_CUTOFF`` rule."""
    if B.shape[2] > B.shape[1]:
        B = np.linalg.qr(B.transpose(0, 2, 1), mode="r").transpose(0, 2, 1)
    U, svals, _ = np.linalg.svd(B, full_matrices=False)
    U = _fix_signs(U)
    if k < svals.shape[1]:
        tied = np.abs(svals - svals[:, k - 1 : k]) <= TIE_CUTOFF * svals[:, :1]
        # Reorder only the members whose kept and dropped values tie.
        for t in np.flatnonzero(tied[:, k:].any(axis=1) & (svals[:, 0] > 0)):
            group = np.flatnonzero(tied[t])
            order = sorted(group, key=lambda j: tuple(U[t, :, j]))
            columns = np.arange(U.shape[2])
            columns[group] = order
            U[t] = U[t][:, columns]
    return np.ascontiguousarray(U[:, :, :k])


def nullspace_basis(omega) -> np.ndarray:
    """Orthonormal basis P of the nullspace of a wide matrix, so omega @ P = 0.

    omega is one (m, n) matrix with m < n or a stack (b, m, n); the result is
    (n, n - m), or (b, n, n - m) for a stack.  P is the trailing n - m columns
    of a complete QR of omega^T; an omega with no rows gives the identity.
    Raises ``LinAlgError``, naming the stack index, when a
    member's singular values (those of its R factor) fall to
    ``RANK_CUTOFF`` relative to the largest; a Gaussian input is full rank
    almost surely.
    """
    omega, single = _as_stack(omega, "omega")
    m, n = omega.shape[1:]
    if m >= n:
        raise ValueError(f"expected a wide matrix (rows < cols), got {m}x{n}")
    Q, R = np.linalg.qr(omega.transpose(0, 2, 1), mode="complete")
    _check_full_rank(R[:, :m], single)
    P = np.ascontiguousarray(Q[:, :, m:])
    return P[0] if single else P


def pivoted_qr_basis(B, k: int) -> np.ndarray:
    """First k orthonormal columns of a column-pivoted QR of B.

    B is one matrix or a stack (b, rows, cols); a stack gives a (b, rows, k)
    stack, member by member, and each member's result is the same bytes
    alone as in any stack.  The pivots are LAPACK ``geqp3``'s greedy order,
    each the remaining column of largest residual norm (exact ties go to
    the lowest column index), taken by :func:`_pivots`; the columns are
    then those of one batched Householder QR (``np.linalg.qr``) of the k
    pivot columns, which are the first k columns of ``geqp3`` and
    ``orgqr``'s Q to rounding.  Columns are sign-normalized like
    ``truncated_svd_left``'s; a zero member gives e_1 ... e_k.
    """
    B, single = _as_stack(B, "B")
    if not 1 <= k <= min(B.shape[1:]):
        raise ValueError(f"k={k} out of range for shape {B.shape[1:]}")
    Q = _fix_signs(np.linalg.qr(_columns(B, _pivots(B, k)))[0])
    return Q[0] if single else Q


def _columns(B: np.ndarray, piv: np.ndarray) -> np.ndarray:
    """The (b, rows, j) stack of the columns ``piv`` (b, j) of each member."""
    return B.transpose(0, 2, 1)[np.arange(len(B))[:, None], piv].transpose(0, 2, 1)


def _pivots(B: np.ndarray, k: int) -> np.ndarray:
    """The first k pivots (b, k) of a column-pivoted QR of each member.

    They come from a left-looking pivoted Cholesky factorization of each
    Gram matrix G = B^T B.  The residual diagonal d holds the squared
    residual column norms; its largest entry d_p (the lowest index on an
    exact tie) names the next pivot p.  Step j forms only the pivot's row of
    the Schur complement: G's row p minus the earlier L rows weighted by
    their entries at p, one batched (b, 1, j) @ (b, j, cols) product.  It
    scales that row by 1 / sqrt(d_p) into L row j, subtracts its square
    from d and sets d_p to exactly zero; later steps only subtract from it,
    so no pivot is taken twice while the pivots' entries stay positive.
    Past the Gram product (rows cols^2 per member), the k steps cost about
    k^2 cols / 2 per member, where rank-one updates of the whole Schur
    complement cost k cols^2.  A Gram entry carries an error of about eps
    times the largest squared column norm M, so d orders the columns as
    their residual norms do only while the pivot's entry stays above
    ``_GRAM_TRUST`` M, LAPACK's ``tol3z`` bound for its downdated norms.
    Members where one of the k pivots falls to that bound, or whose M is
    zero, subnormal or overflows, take all k pivots from
    :func:`_residual_pivots`.  Gain over :func:`_residual_pivots` alone:
    0.78x at (226, 16, 18) with rank-one updates.  The left-looking form
    then took 0.41x the rank-one form's time on the 16 stacks of one
    banded-8192 reused-qr build (13.4 -> 5.4 ms), 0.38x at (226, 16, 18)
    and 0.96x at (4, 16, 18), with the same pivots on every stack.
    """
    b, _, cols = B.shape
    piv, pivot_entries, L = np.empty((k, b), np.intp), np.empty((k, b)), np.empty((k, b, cols))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gram = B.transpose(0, 2, 1) @ B
        rows, d = gram.reshape(b * cols, cols), gram.diagonal(axis1=1, axis2=2).copy()
        flat_d, flat_L, stack_L = d.reshape(-1), L.reshape(k, b * cols), L.transpose(1, 0, 2)
        # base + p[t] is entry (t, p[t]) of a (b, cols) array, flattened.
        base = np.arange(0, b * cols, cols)
        for j in range(k):
            at = base + d.argmax(axis=1, out=piv[j])
            entry = pivot_entries[j] = flat_d[at]
            if j + 1 == k:
                break
            row = rows[at]
            if j:
                row -= (flat_L[:j, at].T[:, None] @ stack_L[:, :j])[:, 0]
            L[j] = row = row / np.sqrt(entry)[:, None]
            d -= row * row
            flat_d[at] = 0.0
    piv = piv.T
    trusted = pivot_entries > np.maximum(_GRAM_TRUST * pivot_entries[0], _GRAM_FLOOR)
    if not trusted.all():
        redo = np.flatnonzero(~trusted.all(axis=0))
        piv[redo] = _residual_pivots(B[redo], k)
    return piv


def _residual_pivots(B: np.ndarray, k: int) -> np.ndarray:
    """Pivots (b, k) of each member from its explicit residual.

    Each member is scaled by the power of two that brings max|B| into
    [0.5, 1), which is exact.  Each step recomputes the residual column
    norms, takes the largest among the columns not yet taken (the lowest
    index on a tie, so a zero residual takes the untaken columns in order),
    and projects the pivot column out of the residual (modified
    Gram-Schmidt).  The norms are as accurate as Householder QR's.
    """
    R = _scaled(B)
    members = np.arange(len(B))
    piv = np.empty((k, len(B)), np.intp)
    for j in range(k):
        norms = np.einsum("tic,tic->tc", R, R)
        norms[members, piv[:j]] = -1.0
        p = norms.argmax(axis=1, out=piv[j])
        q = R[members, :, p][:, :, None]
        w = q.transpose(0, 2, 1) @ R
        w /= np.maximum(norms[members, p], _GRAM_FLOOR)[:, None, None]
        R -= q * w
    return piv.T


def _pinv_operands(Y, omega) -> tuple:
    """Coerce and check the (Y, omega) pair of :func:`right_pinv_apply` and
    :func:`nullified_factor`: two stacks of equal length, or two matrices,
    with equal column counts.  Returns ``(Y, omega, single)``."""
    Y, single = _as_stack(Y, "Y")
    omega, single_omega = _as_stack(omega, "omega")
    if single != single_omega or Y.shape[0] != omega.shape[0]:
        raise ValueError(f"stack mismatch: Y is {Y.shape}, omega is {omega.shape}")
    if Y.shape[2] != omega.shape[2]:
        raise ValueError(f"column mismatch: Y is {Y.shape[1:]}, omega is {omega.shape[1:]}")
    return Y, omega, single


def _row_factor(omega: np.ndarray, single: bool):
    """``(inverse, exponent, off, Q)``: the factor R = 2**exponent R' of
    omega^T for each member of a wide (b, m, n) stack, as inverse = R'^{-1}
    (see :func:`_scaled_inverse`).  R is the Cholesky factor of omega
    omega^T = R^T R (one batched Gram product and ``np.linalg.cholesky``,
    member by member where the stack's fails) where the Gram matrix's
    largest diagonal entry lies in [2**-900, 2**900], so it neither
    overflows nor loses digits to subnormals, and the proven bound
    ||R||_F ||R^{-1}||_F on the condition number is below 2 (m + n), so
    omega^T R^{-1} is orthonormal to a small multiple of eps (m + n)^2.
    The other members, at the indices ``off``, take Q and R from one
    batched thin Householder QR and the rank check of
    :func:`_check_full_rank`.  Gain over that QR for every member, in both
    callers: banded-8192 builds at 0.90x (fresh), 0.85x (reused-svd) and
    0.88x (reused-qr), the banded-256 tridiagonal BLR2 build at 0.73x."""
    m, n = omega.shape[1:]
    with np.errstate(over="ignore"):
        gram = omega @ omega.transpose(0, 2, 1)
    # An overflowed Gram matrix reads inf and leaves the range.
    top = np.einsum("tii->ti", gram).max(axis=1, initial=0.0)
    gram_route = (top >= _GRAM_FLOOR) & (top <= 1 / _GRAM_FLOOR)
    gram[~gram_route] = np.eye(m)
    try:
        L = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        L = gram
        for t in range(len(gram)):
            try:
                L[t] = np.linalg.cholesky(gram[t])
            except np.linalg.LinAlgError:
                gram_route[t], L[t] = False, np.eye(m)
    inverse, exponent, bound = _scaled_inverse(L.transpose(0, 2, 1))
    off = np.flatnonzero(~(gram_route & (bound < (2.0 * (m + n)) ** 2)))
    if not off.size:
        return inverse, exponent, off, None
    Q, R = np.linalg.qr(omega[off].transpose(0, 2, 1))
    inverse[off], exponent[off] = _check_full_rank(R, single, off)
    return inverse, exponent, off, Q


def nullified_factor(Y, omega) -> np.ndarray:
    """A factor F of the nullified sketch Y @ nullspace_basis(omega): F =
    (Y P) W for a W with orthonormal rows, so F has the left singular
    vectors and the singular values of Y P.

    Y (r, n) and omega (m, n) with m < n, or stacks (b, r, n) and (b, m, n)
    of equal length; F is (r, n), or (b, r, n).  F = Y - (Y Q1) Q1^T = Y P
    P^T, so W = P^T, with Q1 = omega^T R^{-1} from :func:`_row_factor`'s
    Cholesky factor R, or the Householder Q off its route; no P is formed,
    and an omega with no rows gives Y.  The rank check and ``LinAlgError``
    are :func:`nullspace_basis`'s.  Gain over one R-only QR of [omega^T |
    Y^T]: banded-8192 reused-svd builds at 0.89x (``BENCH_28.json``).
    """
    Y, omega, single = _pinv_operands(Y, omega)
    m, n = omega.shape[1:]
    if m >= n:
        raise ValueError(f"expected a wide matrix (rows < cols), got {m}x{n}")
    inverse, exponent, off, Q = _row_factor(omega, single)
    Q1 = np.ldexp(omega.transpose(0, 2, 1) @ inverse, -exponent[:, None, None])
    if off.size:
        Q1[off] = Q
    F = (Y @ Q1) @ Q1.transpose(0, 2, 1)
    np.subtract(Y, F, out=F)
    return F[0] if single else F


def right_pinv_apply(Y, omega) -> np.ndarray:
    """Compute Y @ pinv(omega) for a wide, full-row-rank omega.

    Y (r, n) and omega (m, n), or stacks (b, r, n) and (b, m, n) of equal
    length.  With R from :func:`_row_factor` this is (Y omega^T) R^{-1}
    R^{-T} on its Cholesky route, with an error within a small multiple of
    eps cond (m + n), and (Y Q) R^{-T} off it.  The first formula runs in
    0.60x the time of (Y Q1) R^{-T} with :func:`nullified_factor`'s Q1 for
    every member at (226, 16, 34) and at BLR2's (28, 48, 58), 0.95-0.98x at
    32 members or fewer.  The route is a member's own, and each batched
    routine works member by member, so each member's result is the same
    bytes alone as in any stack.  Raises
    ``LinAlgError``, naming the stack index, when omega is numerically
    rank-deficient.
    """
    Y, omega, single = _pinv_operands(Y, omega)
    m, n = omega.shape[1:]
    if m > n:
        raise ValueError(f"omega must be wide (rows <= cols), got {m}x{n}")
    inverse, exponent, off, Q = _row_factor(omega, single)
    # Y omega^T may overflow for a member off the route; it is overwritten.
    with np.errstate(over="ignore", invalid="ignore"):
        X = np.matmul(Y @ omega.transpose(0, 2, 1), inverse) @ inverse.transpose(0, 2, 1)
    np.ldexp(X, -2 * exponent[:, None, None], out=X)
    if off.size:
        X[off] = np.ldexp((Y[off] @ Q) @ inverse[off].transpose(0, 2, 1), -exponent[off, None, None])
    return X[0] if single else X
