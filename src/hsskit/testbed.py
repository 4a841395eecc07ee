"""Test-matrix generators and error metrics for the experiment harness.

Generator families:

  - ``hard_instance``: the adversarial matrix of perturbed exchange blocks
    whose best rank-structured approximation is known in closed form.
  - ``banded_inverse_oracle``: the inverse of a random symmetric banded,
    strictly diagonally dominant matrix, applied through its Cholesky
    factor U, computed block by block in numpy: a product is one batched
    product with the diagonal blocks' inverses W_i = U_i^{-1} U_i^{-T},
    each widened by a rank-2h correction for the h rows on either side
    that couple neighbouring blocks.  With total bandwidth 2k + 1 the
    inverse has rank-2k structure.
  - ``grid_schur_oracle``: Schur complement of an N x 51 grid-graph Laplacian
    onto its middle separator column.  The grid is separable, so the
    operator is diagonal in the cosine basis: a product is two length-N
    DCTs (real FFTs) around a diagonal scale.
  - ``bie_star_matrix``: second-kind Nystrom discretization of a Laplace
    double-layer boundary integral operator on a star-shaped curve.
  - ``random_telescoping`` / ``random_hss_matrix`` / ``random_blr2_matrix``:
    random members of the structured classes, for exact-recovery testing.

``FAMILIES`` is the one registry of named test problems: parameters, defaults
and rule for n.  CLI ``gen``, ``--in`` specs and sweeps build through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .blr2 import BLR2Factorization, BLR2Pattern, blr2_reconstruct
from .kernels import RngStream, _invert_upper, as_matrix, gaussian
from .oracle import MatvecOracle, dense_from_oracle
from . import structures
from .structures import (
    LevelFactors,
    TelescopingFactorization,
    _in_panels,
    reconstruct_dense,
    tree_levels,
)

__all__ = [
    "FAMILIES",
    "Family",
    "PARAM_TYPES",
    "banded_inverse_oracle",
    "bie_star_matrix",
    "check_param",
    "frobenius_error",
    "grid_schur_oracle",
    "hard_instance",
    "make_problem",
    "random_blr2_matrix",
    "random_hss_matrix",
    "random_telescoping",
    "resolve_params",
]


# ---------------------------------------------------------------------------
# adversarial instance


def hard_instance(L: int, delta: float) -> np.ndarray:
    """Dense 2**(L+1) matrix of 2x2 blocks: identity everywhere except
    perturbed exchange blocks [[0, 1+delta], [1, 0]] on the block
    anti-diagonal."""
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    blocks = 1 << L
    A = np.tile(np.eye(2), (blocks, blocks))
    i = np.arange(blocks)
    A.reshape(blocks, 2, blocks, 2)[i, :, blocks - 1 - i] = [[0.0, 1.0 + delta], [1.0, 0.0]]
    return A


# ---------------------------------------------------------------------------
# random structured matrices


def _random_bases(stream: RngStream, count: int, rows: int, k: int, role: str) -> np.ndarray:
    """(count, rows, k) stack of orthonormal blocks: block i is the Q factor
    of a Gaussian draw from ``stream.child(i, role)``."""
    return np.stack([np.linalg.qr(gaussian(rows, k, stream.child(i, role)))[0] for i in range(count)])


def random_telescoping(L: int, k: int, stream: RngStream) -> TelescopingFactorization:
    """Random factorization: orthonormal bases from QR of Gaussian blocks,
    Gaussian remainders and root.  Each block is drawn from its own (level,
    block, role) stream, unlike the sketch draws; the matrices that ``hsskit
    gen`` writes are pinned to this keying."""
    levels = []
    for level in range(1, L + 1):
        b, w = 1 << level, 2 * k
        U, V = (_random_bases(stream.child(level), b, w, k, role) for role in "UV")
        D = np.stack([gaussian(w, w, stream.child(level, i, "D")) for i in range(b)])
        levels.append(LevelFactors(U, V, D))
    root = gaussian(2 * k, 2 * k, stream.child(0, 0, "root"))
    return TelescopingFactorization(tuple(levels), root)


def random_hss_matrix(L: int, k: int, seed: int) -> np.ndarray:
    """Dense matrix with exact (L, k) rank structure."""
    return reconstruct_dense(random_telescoping(L, k, RngStream(seed).child("hss")))


def random_blr2_matrix(pattern: BLR2Pattern, k: int, seed: int) -> np.ndarray:
    """Dense matrix that is exactly BLR2 for the given pattern and rank,
    drawn block by block like :func:`random_telescoping`."""
    stream = RngStream(seed).child("blr2")
    b, m = pattern.block_count, pattern.block_size
    U, V = (_random_bases(stream, b, m, k, role) for role in "UV")
    X = gaussian(b * k, b * k, stream.child(0, "X"))
    D = np.empty((len(pattern.sorted_pairs), m, m))
    for p, (i, j) in enumerate(pattern.sorted_pairs):
        D[p] = gaussian(m, m, stream.child(i, j, "D"))
    return blr2_reconstruct(BLR2Factorization(pattern, U, V, X, D))


# ---------------------------------------------------------------------------
# inverse of a banded matrix


def _banded_arrays(n: int, bandwidth: int, seed: int):
    """Diagonal and superdiagonal arrays of a random symmetric banded matrix.

    ``bandwidth`` counts the nonzero diagonals (odd), so entries satisfy
    M[i, j] = 0 for |i - j| > (bandwidth - 1) / 2.  Off-band entries are
    uniform on (-1, 1); the diagonal is the absolute row sum plus one, which
    makes M strictly diagonally dominant and hence positive definite.
    """
    if bandwidth < 1 or bandwidth % 2 == 0:
        raise ValueError(f"bandwidth must be odd and positive, got {bandwidth}")
    half = (bandwidth - 1) // 2
    if n <= half:
        raise ValueError(f"dimension {n} too small for bandwidth {bandwidth}")
    rng = RngStream(seed).child("banded").generator()
    offs = [rng.uniform(-1.0, 1.0, size=n - d) for d in range(1, half + 1)]
    diag = np.ones(n)
    for d, off in enumerate(offs, start=1):
        diag[: n - d] += np.abs(off)
        diag[d:] += np.abs(off)
    return diag, offs


# Rows of a diagonal block of the banded-inverse oracle (or h, if more) and
# the narrowest panel of a wide banded-inverse product; see
# banded_inverse_oracle.
_BAND_BLOCK = 32
_BAND_PANEL_FLOOR = 34


def _band_cholesky(diag: np.ndarray, offs: list, blocks: np.ndarray) -> np.ndarray:
    """Factor the banded matrix M of ``diag`` and ``offs`` (see
    :func:`_banded_arrays`), padded to N rows with identity rows, as M =
    U^T U by block Cholesky over the (count, nb, nb) stack ``blocks``, N =
    count nb, nb >= h = len(offs).  ``blocks``, zero on entry, receives U's
    diagonal blocks; returns the corners of L = U^T.

    Corner i, C_i, is the h x h upper triangle in the first h rows and
    last h columns of L's block (i + 1, i), the only entries that couple
    block i + 1 to block i: with Mc_i the same corner of M and T the
    trailing h x h block of L_ii, C_i = Mc_i T^{-T}.  So block i + 1's
    Schur update touches only its h x h head, by -C_i C_i^T.  Raises
    ``LinAlgError`` when M is not positive definite.
    """
    count, nb = blocks.shape[:2]
    h = len(offs)
    # lanes[d][i, a] = M[i nb + a, i nb + a + d]; the padding is identity.
    N = count * nb
    lanes = [np.concatenate((diag, np.ones(N - len(diag))))]
    lanes += [np.concatenate((off, np.zeros(N - len(off)))) for off in offs]
    lanes = [lane.reshape(count, nb) for lane in lanes]
    for d, lane in enumerate(lanes):
        a = np.arange(nb - d)
        blocks[:, a + d, a] = blocks[:, a, a + d] = lane[:, : nb - d]
    # corners[i, a, c] = M[(i + 1) nb + a, (i + 1) nb - h + c] for a <= c,
    # the entry on diagonal d = h + a - c; overwritten by L's corner below.
    corners = np.zeros((count - 1, h, h))
    for d in range(1, h + 1):
        a = np.arange(d)
        corners[:, a, a + h - d] = lanes[d][:-1, nb - d :]
    tail = slice(nb - h, nb)
    for i, block in enumerate(blocks):
        if i and h:
            block[:h, :h] -= corners[i - 1] @ corners[i - 1].T
        factor = np.linalg.cholesky(block)
        block[...] = factor.T
        if i + 1 < count and h:
            corners[i] = np.linalg.solve(factor[tail, tail], corners[i].T).T
    return corners


def _seam_levels(maps: np.ndarray) -> list:
    """The levels of cyclic reduction for a seam recurrence in which
    ``maps[i - 1]`` maps seam i - 1 into seam i (see :func:`_solve_seams`).
    Each level eliminates the even seams: it keeps the maps into the odd
    seams and into the even ones, and hands the next level the products that
    map odd seam 2m - 1 to odd seam 2m + 1."""
    levels = []
    while len(maps):
        odd, even = maps[0::2], maps[1::2]
        levels.append((odd, even))
        maps = np.matmul(maps[2::2], even[: len(maps[2::2])])
    return levels


def _solve_seams(seams: np.ndarray, levels: list, work: np.ndarray) -> None:
    """Solve in place the recurrence seam_i = r_i + maps[i - 1] seam_{i-1}
    on the (B, h, w) stack ``seams``, which holds the r_i on entry, by the
    cyclic reduction ``levels = _seam_levels(maps)``: 2 log2(B) batched
    products over B/2 + B/4 + ... seams.  Each product is written into the
    leading blocks and rows of ``work``, a (B', r, w) stack with B' >= B / 2
    and r >= h."""
    h = seams.shape[1]

    def product(a, b):
        return np.matmul(a, b, out=work[: len(a), :h])

    views = [seams]
    for odd, _ in levels:
        view = views[-1]
        view[1::2] += product(odd, view[0::2][: len(odd)])
        views.append(view[1::2])
    for (_, even), view in zip(reversed(levels), reversed(views[:-1])):
        view[2::2] += product(even, view[1::2][: len(even)])


def banded_inverse_oracle(n: int, bandwidth: int, seed: int) -> MatvecOracle:
    """Matvec oracle for the inverse of a random symmetric banded matrix.

    The banded matrix M, of half-bandwidth h = (bandwidth - 1) / 2, is cut
    into blocks of nb = max(32, h) rows, n padded to N, a multiple of nb,
    with identity rows that the reply drops, and factored once as M = U^T U
    by block Cholesky (:func:`_band_cholesky`).  U is block upper
    bidiagonal: its diagonal blocks U_i are inverted all at once by the
    batched triangular inverse of :mod:`hsskit.kernels`, and its
    superdiagonal block i is zero outside an h x h corner C_i^T in its last
    h rows (``tail``) and first h columns (``head``).

    So z = M^{-1} x = U^{-1} U^{-T} x is, block by block, W_i = U_i^{-1}
    U_i^{-T} times x_i plus a rank-2h correction.  With s_i the tail rows
    of block i of U^{-T} x and b_i the head rows of block i of z,

        s_i = R_i x_i + F_i s_{i-1},          R_i = (U_i^{-T})[tail, :],
                                              F_i = -(U_i^{-T})[tail, head] C_{i-1},
        b_i = (W_i x_i)[head] - P_i[head] s_{i-1} + G_i b_{i+1},
        z_i = W_i x_i - P_i s_{i-1} - Q_i b_{i+1},
                                              P_i = W_i[:, head] C_{i-1},
                                              Q_i = U_i^{-1}[:, tail] C_i^T,
                                              G_i = -Q_i[head],

    with no s_{-1} and no b_count.  A query forms the R_i x_i, solves the s
    recurrence by cyclic reduction over the blocks (:func:`_solve_seams`),
    forms b's right-hand sides [W_i[head] | -P_i[head]] [x_i; s_{i-1}],
    solves b's recurrence likewise, and ends with one batched (nb, nb + 2h)
    block product: block i of z is [W_i | -P_i | -Q_i] [x_i; s_{i-1};
    b_{i+1}].  Construction forms W, P and Q by one batched product each.
    The oracle holds [W | -P | -Q], R and the seam maps, 8 N (nb + 3h)
    bytes and about 24 N h^2 / nb for the maps, 3.9 MiB at n = 8192 (h =
    8), and keeps no U_i^{-1}.  Construction at n = 8192 takes 9.4 ms in a
    long-lived process and 12.2 ms as a fresh process's first, against 7.9
    and 8.9 ms for an oracle that held the U_i^{-1} and swept the blocks
    twice per query (medians, one pinned CPU, 1 BLAS thread); the rise is
    the three products and the first touch of the 3 MiB they fill.  Most
    of it is :func:`_band_cholesky`'s per-block loop.

    A query holds one scratch of S = N + 2 h N / nb rows, the stack of the
    [x_i; s_{i-1}; b_{i+1}], into which it copies its operand; until the
    last product writes the reply, the reply takes the reductions'
    products.  A wide operand runs in panels of max(34, PANEL_BYTES // (8
    S)) columns, one scratch for all, each written by its last product
    into its columns of the reply, so a product holds its reply and one
    panel's scratch and frees no array of a panel's size; panels written
    into a separate output, as ``structures._in_panels`` does, would free
    one per panel and raise the peak RSS.  A panel's fixed cost, mostly the
    cyclic reductions, is that of about ten columns, so the floor keeps a
    query of s = 34 columns, the sketch width of a k = 8 build, in one
    product.  The operator is symmetric, so forward and transpose products
    agree.
    """
    diag, offs = _banded_arrays(n, bandwidth, seed)
    h = len(offs)
    nb = max(_BAND_BLOCK, h)
    count = -(-n // nb)
    N = count * nb
    full = count - 1  # blocks 0 .. count - 2 lie wholly inside the n rows
    inv = np.zeros((count, nb, nb))  # U's diagonal blocks, then their inverses
    corners = _band_cholesky(diag, offs, inv)
    _invert_upper(inv)
    head, tail = slice(0, h), slice(nb - h, nb)
    block_rows = np.empty((count, nb, nb + 2 * h))  # [W_i | -P_i | -Q_i]
    W = np.matmul(inv, inv.transpose(0, 2, 1), out=block_rows[:, :, :nb])
    P, Q = block_rows[:, :, nb : nb + h], block_rows[:, :, nb + h :]
    np.matmul(W[1:, :, head], -corners, out=P[1:])
    np.matmul(inv[:-1, :, tail], -corners.transpose(0, 2, 1), out=Q[:-1])
    P[0] = Q[-1] = 0.0
    R = inv[:full, :, tail].transpose(0, 2, 1).copy()
    # The forward seams run s_0 .. s_{count-2}, the backward ones b_{count-1}
    # down to b_1.
    levels_fwd = _seam_levels(-np.matmul(R[1:, :, head], corners[:-1]))
    levels_bwd = _seam_levels(block_rows[1:-1, head, nb + h :][::-1])
    rhs_bwd = block_rows[1:, head, : nb + h]  # [W_i[head] | -P_i[head]]
    rows = nb + 2 * h
    scratch_rows = count * rows

    def apply(x):
        width = x.shape[1]
        y = np.empty((N, width))
        replies = y.reshape(count, nb, width)
        panel = max(_BAND_PANEL_FLOOR, structures.PANEL_BYTES // (8 * scratch_rows))
        work = np.empty(scratch_rows * min(panel, width))
        for a in range(0, width, panel):
            xp = x[:, a : a + panel]
            w = xp.shape[1]
            stack = work[: scratch_rows * w].reshape(count, rows, w)  # [x_i; s_{i-1}; b_{i+1}]
            s, b = stack[1:, nb : nb + h], stack[:-1, nb + h :]
            reply = replies[:, :, a : a + w]
            body = xp[: full * nb].reshape(full, nb, w)
            stack[:full, :nb] = body
            stack[full, : n - full * nb] = xp[full * nb :]
            stack[full, n - full * nb : nb] = 0.0
            np.matmul(R, body, out=s)
            _solve_seams(s, levels_fwd, reply)
            np.matmul(rhs_bwd, stack[1:, : nb + h], out=b)  # disjoint rows of one stack
            _solve_seams(b[::-1], levels_bwd, reply)
            stack[0, nb : nb + h] = stack[-1, nb + h :] = 0.0
            np.matmul(block_rows, stack, out=reply)
        return y[:n]

    return MatvecOracle(n, apply, apply)


# ---------------------------------------------------------------------------
# Schur complement of a grid-graph Laplacian


_SIDE_WIDTH = 25


def grid_schur_oracle(n_rows: int) -> MatvecOracle:
    """Matvec oracle for the Schur complement of the N x 51 grid Laplacian
    onto its middle column (a graph separator); the operator acts on the
    ``n_rows`` separator vertices.

    The grid is separable, so the cosine basis diagonalizes the operator,
    as in the fast Poisson solver of Buzbee, Golub and Nielson (1970).  Each
    25-column side has the Laplacian T_N (x) I + I (x) H: T_N is the path
    Laplacian along the separator with free ends, and H the 25-vertex path
    Laplacian plus the separator edge at vertex 24.  The separator block is
    T_N + 2I.  With T_N = C diag(mu) C^T, C the orthonormal DCT-II,
    mu_i = 2 - 2 cos(pi i / N) and (lam, Q) = eigh(H), the two sides, which
    are mirror images, give

        S = C diag(sigma) C^T,
        sigma_i = mu_i + 2 - 2 sum_j Q[24, j]**2 / (mu_i + lam_j).

    A product is a DCT-II, a diagonal scale and the inverse DCT.  Each DCT
    is one length-N real FFT of the operand reordered to its even entries
    followed by its odd entries reversed (Makhoul 1980): with V the rfft of
    that and w_f = exp(-1j pi f / 2N), the DCT-II is 2 Re(w_f V_f) at f and
    -2 Im(w_f V_f) at N - f.  Scaling it by sigma replaces w_f V_f by
    sigma_f Re(w_f V_f) + 1j sigma_{N-f} Im(w_f V_f), and conj(w_f) times
    that is the rfft of the reordered product.  A wide operand runs in
    panels of max(1, PANEL_BYTES // (16 N)) columns: a panel holds at most
    two arrays of its size at once, about 16 N bytes a column.  That is the
    width :func:`~hsskit.oracle.dense_from_oracle` probes, so each of its
    probes is one panel.
    """
    if n_rows < 2:
        raise ValueError(f"need at least two grid rows, got {n_rows}")
    H = 2.0 * np.eye(_SIDE_WIDTH) - np.eye(_SIDE_WIDTH, k=1) - np.eye(_SIDE_WIDTH, k=-1)
    H[0, 0] = 1.0  # the outer edge of the grid
    lam, Q = np.linalg.eigh(H)
    mu = 2.0 - 2.0 * np.cos(np.pi * np.arange(n_rows) / n_rows)
    sigma = mu + 2.0 - 2.0 * (Q[-1] ** 2 / (mu[:, None] + lam)).sum(axis=1)
    freq = np.arange(n_rows // 2 + 1)
    twiddle = np.exp(-0.5j * np.pi * freq / n_rows)[:, None]
    # sigma[-0] is sigma_0, which scales Im(w_0 V_0) = 0.
    scale_re, scale_im = sigma[freq, None], sigma[-freq, None]
    order = np.concatenate([np.arange(0, n_rows, 2), np.arange(1, n_rows, 2)[::-1]])
    unorder = np.argsort(order)

    def apply_panel(xm):
        spectrum = np.fft.rfft(xm[order], axis=0)
        spectrum *= twiddle
        spectrum.real *= scale_re
        spectrum.imag *= scale_im
        spectrum *= twiddle.conj()
        y = np.fft.irfft(spectrum, n_rows, axis=0)
        del spectrum  # before the gather: a panel holds at most two arrays of its size
        return y[unorder]

    def apply(x):
        return _in_panels(lambda a, z: apply_panel(x[:, a:z]), n_rows, x.shape[1], 16 * n_rows)

    return MatvecOracle(n_rows, apply, apply)


# ---------------------------------------------------------------------------
# boundary integral equation on a star curve


def bie_star_matrix(n_nodes: int, arm_amplitude: float, arm_count: int) -> np.ndarray:
    """Nystrom matrix of the exterior-normal double-layer Laplace operator on
    the curve r(t) = 1 + a cos(w t), with uniform nodes and trapezoid weights.

    Entries: A[i, j] = delta_ij / 2 - (w_j / 2 pi) n_i . (x_i - x_j) / |x_i - x_j|^2
    with w_j = (2 pi / N) |x'(t_j)|; the diagonal uses the smooth curvature
    limit of the kernel, kappa / 2.
    """
    if n_nodes < 2:
        raise ValueError(f"need at least two nodes, got {n_nodes}")
    t = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    a, w = arm_amplitude, arm_count
    r = 1.0 + a * np.cos(w * t)
    rp = -a * w * np.sin(w * t)
    rpp = -a * w * w * np.cos(w * t)
    cos_t, sin_t = np.cos(t), np.sin(t)
    x = np.stack([r * cos_t, r * sin_t], axis=1)
    xp = np.stack([rp * cos_t - r * sin_t, rp * sin_t + r * cos_t], axis=1)
    xpp = np.stack(
        [rpp * cos_t - 2 * rp * sin_t - r * cos_t, rpp * sin_t + 2 * rp * cos_t - r * sin_t],
        axis=1,
    )
    speed = np.hypot(xp[:, 0], xp[:, 1])
    normal = np.stack([xp[:, 1], -xp[:, 0]], axis=1) / speed[:, None]
    curvature = (xp[:, 0] * xpp[:, 1] - xp[:, 1] * xpp[:, 0]) / speed**3
    weights = (2.0 * np.pi / n_nodes) * speed

    diff = x[:, None, :] - x[None, :, :]
    dist2 = np.einsum("ijd,ijd->ij", diff, diff)
    np.fill_diagonal(dist2, 1.0)  # placeholder; diagonal overwritten below
    kernel = np.einsum("id,ijd->ij", normal, diff) / dist2
    A = 0.5 * np.eye(n_nodes) - (weights[None, :] / (2.0 * np.pi)) * kernel
    np.fill_diagonal(A, 0.5 - weights * curvature / (4.0 * np.pi))
    return A


# ---------------------------------------------------------------------------
# problem registry


@dataclass(frozen=True)
class Family:
    """A test-problem family.  ``params`` maps each parameter to (type,
    default); a None default means required, a callable one is computed from
    the parameters before it.  ``n_ok`` checks ``n_rule``; ``rules`` maps a
    parameter to (rule, check of its value); ``build`` returns (oracle, dense
    matrix or None).  Callables take parameters as keywords."""

    params: dict
    n_rule: str
    n_ok: Callable[..., bool]
    build: Callable[..., tuple]
    rules: dict = field(default_factory=dict)


def _dense(A: np.ndarray) -> tuple:
    return MatvecOracle.from_dense(A), A


_N = (int, None)  # a required dimension

FAMILIES = {
    "banded": Family(
        {"n": _N, "k": (int, 8), "bandwidth": (int, lambda k, **_: 2 * k + 1), "seed": (int, 0)},
        "n > (bandwidth - 1) / 2", lambda n, bandwidth, **_: n > (bandwidth - 1) // 2,
        lambda n, k, bandwidth, seed: (banded_inverse_oracle(n, bandwidth, seed), None),
        {"bandwidth": ("odd and positive", lambda v: v >= 1 and v % 2 == 1)}),
    "grid": Family({"n": _N}, "n >= 2", lambda n: n >= 2, lambda n: (grid_schur_oracle(n), None)),
    "bie": Family(
        {"n": _N, "amplitude": (float, 0.3), "arms": (int, 5)}, "n >= 2", lambda n, **_: n >= 2,
        lambda n, amplitude, arms: _dense(bie_star_matrix(n, amplitude, arms))),
    "hard": Family(
        {"n": (int, 32), "delta": (float, 0.1)}, "n a power of two >= 4",
        lambda n, **_: tree_levels(n, 1) is not None,
        lambda n, delta: _dense(hard_instance(tree_levels(n, 1), delta)),
        {"delta": ("in (0, 1)", lambda v: 0.0 < v < 1.0)}),
    "hss": Family(
        {"n": _N, "k": (int, 8), "seed": (int, 0)}, "n = 2**(L+1) * k with L >= 1",
        lambda n, k, **_: tree_levels(n, k) is not None,
        lambda n, k, seed: _dense(random_hss_matrix(tree_levels(n, k), k, seed))),
}

# Every parameter name of the registry with its type (no two families differ on it).
PARAM_TYPES = {name: kind for spec in FAMILIES.values() for name, (kind, _) in spec.params.items()}


def check_param(family: str, name: str, value) -> None:
    """Raise ValueError, naming the parameter, unless ``value`` meets the
    family's rule for it."""
    rule = FAMILIES[family].rules.get(name)
    if rule is not None and not rule[1](value):
        raise ValueError(f"{family} needs {name} {rule[0]}, got {name}={value!r}")


def resolve_params(family: str, given: dict) -> dict:
    """Parse ``given`` (strings or values) as the family's parameters, fill in
    the defaults and check the parameter rules and the rule for n."""
    if family not in FAMILIES:
        raise ValueError(f"unknown problem family {family!r}; families: {', '.join(FAMILIES)}")
    spec = FAMILIES[family]
    for key in given:
        if key not in spec.params:
            raise ValueError(f"{family} has no parameter {key!r}; it takes {', '.join(spec.params)}")
    params = {}
    for key, (kind, default) in spec.params.items():
        if key in given:
            try:
                params[key] = kind(given[key])
            except ValueError:
                raise ValueError(f"bad {kind.__name__} for {key!r}: {given[key]!r}") from None
        elif default is None:
            raise ValueError(f"{family} needs parameter {key!r}")
        else:
            params[key] = default(**params) if callable(default) else default
    for key, value in params.items():
        check_param(family, key, value)
    if not spec.n_ok(**params):
        raise ValueError(f"{family} needs {spec.n_rule}, got n={params['n']}")
    return params


def make_problem(family: str, given: dict, dense: bool = False) -> tuple:
    """Build a registered test problem: (oracle, dense matrix or None).  The
    families that are not dense by nature give their matrix only if asked."""
    oracle, A = FAMILIES[family].build(**resolve_params(family, given))
    return oracle, dense_from_oracle(oracle) if dense and A is None else A


# ---------------------------------------------------------------------------
# error metric


def frobenius_error(A, approx) -> float:
    """Relative Frobenius error of a factorization (or dense matrix) against A.

    A and A - B are scaled by the power of two that brings max|A| into
    [0.5, 1) before their norms are taken, so the squares in the norms
    neither underflow nor overflow at any scale of A; the scaling is exact,
    and for A of moderate scale the result is the unscaled ratio bit for bit.
    """
    A = as_matrix(A, "A")
    exponent = int(np.frexp(np.abs(A).max())[1])
    denom = float(np.linalg.norm(np.ldexp(A, -exponent)))
    if denom == 0.0:
        raise ValueError("reference matrix has zero norm")
    if isinstance(approx, TelescopingFactorization):
        B = reconstruct_dense(approx)
    elif isinstance(approx, BLR2Factorization):
        B = blr2_reconstruct(approx)
    else:
        B = as_matrix(approx, "approx")
    if B.shape != A.shape:
        raise ValueError(f"approx of shape {B.shape} does not match A of shape {A.shape}")
    return float(np.linalg.norm(np.ldexp(A - B, -exponent))) / denom
