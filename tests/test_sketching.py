import math

import numpy as np
import pytest

from hsskit import (
    BLR2Pattern,
    RngStream,
    blr2_factors_from_sketches,
    blr2_reconstruct,
    blr2_remainder,
    gaussian,
)
from hsskit.sketching import BASIS_METHODS

from helpers import (
    brute_block_row,
    nullify_rows,
    rand_orthonormal,
    random_sss,
    side_stacks,
    svd_tail_energy,
)

# The basis kernel that the one-level step runs for the sketched SVD.
svd_basis = BASIS_METHODS["svd-pcps"].kernel


def _stacked_off_blocks(omega, i, w):
    b = omega.shape[0] // w
    return np.vstack([omega[j * w : (j + 1) * w] for j in range(b) if j != i])


class TestBlockNullify:
    def test_implicit_sketch_identity(self):
        # Nullifying block i turns Y = A omega into an exact Gaussian sketch
        # of the off-diagonal block row: Y_i P = r_i(A) (omega-minus-i @ P).
        k, level = 2, 3
        b, w = 1 << level, 2 * k
        n = b * w
        rng = np.random.default_rng(0)
        A = rng.standard_normal((n, n))
        omega = gaussian(n, 3 * k + 2, RngStream(0).child("bn"))
        Y = A @ omega
        rows = nullify_rows(BLR2Pattern.diagonal(b, w), omega, Y)
        for i in range(b):
            P, sketch = rows[i]
            G = _stacked_off_blocks(omega, i, w) @ P
            want = brute_block_row(A, w, i) @ G
            assert np.abs(sketch - want).max() <= 1e-11

    def test_dimension_arithmetic(self):
        k, s, level = 8, 26, 3
        n = (1 << (level + 1)) * k
        omega = gaussian(n, s, RngStream(1).child("bn"))
        Y = np.zeros((n, s))
        P, sketch = nullify_rows(BLR2Pattern.diagonal(n // (2 * k), 2 * k), omega, Y)[0]
        assert P.shape == (26, 10)
        assert sketch.shape == (16, 10)

    def test_implicit_gaussian_moments(self):
        # The stacked products omega_j @ P_i over j != i form an implicit
        # standard Gaussian; check its first two moments over resamples.
        k, level, s = 2, 3, 8
        n, w = (1 << (level + 1)) * k, 2 * k
        stream = RngStream(2).child("bn-moments")
        pat = BLR2Pattern.diagonal(n // w, w)
        samples = []
        for trial in range(200):
            omega = gaussian(n, s, stream.child(trial))
            P, _ = nullify_rows(pat, omega, np.zeros((n, s)))[1]
            samples.append((_stacked_off_blocks(omega, 1, w) @ P).ravel())
        flat = np.concatenate(samples)
        assert abs(flat.mean()) < 0.05
        assert abs(flat.var() - 1.0) < 0.1

    def test_rank_deficient_block_raises(self):
        omega = gaussian(8, 6, RngStream(3).child("bn"))
        omega[1] = omega[0]  # first block (2 rows) now rank one
        with pytest.raises(np.linalg.LinAlgError):
            nullify_rows(BLR2Pattern.diagonal(4, 2), omega, np.zeros((8, 6)))


class TestPcpsBasis:
    def test_exact_rank_with_minimal_sketch(self):
        rng = np.random.default_rng(5)
        k = 3
        B = rng.standard_normal((20, k)) @ rng.standard_normal((k, 40))
        omega = gaussian(40, k + 2, RngStream(5).child("pcps"))
        U = svd_basis(B @ omega, k)
        assert np.linalg.norm(B - U @ (U.T @ B)) <= 1e-11 * np.linalg.norm(B)

    def test_orthonormal_columns(self):
        sketch = gaussian(12, 7, RngStream(6).child("pcps"))
        U = svd_basis(sketch, 4)
        assert np.abs(U.T @ U - np.eye(4)).max() <= 1e-12

    def test_width_floor(self):
        # The step's width rule: with no pattern blocks to nullify, the
        # sketched SVD needs q >= k + 2 columns.
        no_pairs = BLR2Pattern(1, 8)
        assert BASIS_METHODS["svd-pcps"].excess == 2
        with pytest.raises(ValueError, match=r"s=5 is below the floor 6\b"):
            no_pairs.check_step(4, 5)  # q = k + 1 is too narrow
        no_pairs.check_step(4, 6)

    @pytest.mark.parametrize("k,q", [(2, 4), (5, 8), (8, 26)])
    def test_expected_error_envelope(self, k, q):
        # Monte-Carlo check of the projection-cost bound
        # E||B - U U^T B||_F^2 <= (1 + 2 e q / sqrt((q-k)^2 - 1))^2 * opt^2.
        rng = np.random.default_rng(100 + k)
        left = rand_orthonormal(60, 60, rng)
        right = rand_orthonormal(80, 60, rng)
        svals = 2.0 ** -np.arange(1, 61)
        B = left @ (svals[:, None] * right.T)
        opt2 = svd_tail_energy(B, k)
        stream = RngStream(200 + k).child("pcps-mc")
        ratios = []
        for trial in range(200):
            omega = gaussian(80, q, stream.child(trial))
            U = svd_basis(B @ omega, k)
            ratios.append(np.linalg.norm(B - U @ (U.T @ B)) ** 2 / opt2)
        constant = (1.0 + 2.0 * math.e * q / math.sqrt((q - k) ** 2 - 1)) ** 2
        assert np.mean(ratios) <= constant


class TestRecoverDiagonal:
    """Remainder recovery with fixed bases: a one-pair pattern {(i, i)}
    recovers D_ii."""

    def _sketch_block(self, A, U, V, i, s, stream):
        n, w = A.shape[0], U.shape[0]
        omega = gaussian(n, s, stream.child(i, "omega"))
        psi = gaussian(n, s, stream.child(i, "psi"))
        Y = A @ omega
        Z = A.T @ psi
        pat = BLR2Pattern(n // w, w, frozenset({(i, i)}))
        stack = lambda basis: np.broadcast_to(basis, (pat.block_count,) + basis.shape)
        (D,) = blr2_remainder(pat, np.stack((stack(U), stack(V))), np.stack((omega, psi)), np.stack((Y, Z)))
        return D

    def test_block_diagonal_matrix_recovered_exactly(self):
        rng = np.random.default_rng(7)
        k, b = 2, 4
        w = 2 * k
        blocks = [rng.standard_normal((w, w)) for _ in range(b)]
        A = np.zeros((b * w, b * w))
        for i, blk in enumerate(blocks):
            A[i * w : (i + 1) * w, i * w : (i + 1) * w] = blk
        stream = RngStream(8).child("rd")
        for i in range(b):
            U = rand_orthonormal(w, k, rng)
            V = rand_orthonormal(w, k, rng)
            D = self._sketch_block(A, U, V, i, 2 * k + 2, stream)
            resid = blocks[i] - D - U @ (U.T @ (blocks[i] - D)) @ V @ V.T
            assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(blocks[i])

    def test_exactly_structured_matrix_zero_residual(self):
        f = random_sss(2, 2, seed=9)
        A = blr2_reconstruct(f)
        w, k = 4, 2
        stream = RngStream(10).child("rd")
        for i in range(4):
            U, V = f.U[i], f.V[i]
            D = self._sketch_block(A, U, V, i, 8, stream)
            Aii = A[i * w : (i + 1) * w, i * w : (i + 1) * w]
            resid = Aii - D - U @ (U.T @ (Aii - D)) @ V @ V.T
            assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(Aii)

    @pytest.mark.parametrize("k,s,n", [(2, 8, 64), (4, 12, 64)])
    def test_expected_residual_envelope(self, k, s, n):
        # Monte-Carlo check of the recovery bound with constant 2k/(s-2k-1).
        rng = np.random.default_rng(300 + k)
        A = rng.standard_normal((n, n))
        w = 2 * k
        i = 1
        U = rand_orthonormal(w, k, rng)
        V = rand_orthonormal(w, k, rng)
        lo = i * w
        Aii = A[lo : lo + w, lo : lo + w]
        row = np.hstack([A[lo : lo + w, : lo], A[lo : lo + w, lo + w :]])
        col = np.vstack([A[: lo, lo : lo + w], A[lo + w :, lo : lo + w]])
        row_resid2 = np.linalg.norm(row - U @ (U.T @ row)) ** 2
        col_resid2 = np.linalg.norm(col - (col @ V) @ V.T) ** 2
        bound = (2.0 * k / (s - 2 * k - 1)) * (row_resid2 + col_resid2)
        stream = RngStream(400 + k).child("rd-mc")
        resids = []
        for trial in range(300):
            D = self._sketch_block(A, U, V, i, s, stream.child(trial))
            resids.append(np.linalg.norm(Aii - D - U @ (U.T @ (Aii - D)) @ V @ V.T) ** 2)
        assert np.mean(resids) <= bound

    def test_width_floor(self):
        # Recovery needs at least rows + 1 sketch columns.
        pat = BLR2Pattern(1, 4, frozenset({(0, 0)}))
        U = np.eye(4)[None, :, :2]
        zero = np.zeros((2, 4, 4))
        with pytest.raises(ValueError):
            blr2_remainder(pat, np.stack((U, U)), zero, zero)


class TestSketchBundle:
    """The one-level step's check of its four sketch arrays."""

    def test_shape_validation(self):
        n, s = 8, 6
        arrs = side_stacks(*(gaussian(n, s, RngStream(11).child("sb", i)) for i in range(8)))
        U, V, D = blr2_factors_from_sketches(
            BLR2Pattern.diagonal(2, 4), 2, *arrs, basis_method="pivoted-qr"
        )
        assert U.shape == V.shape == (2, 4, 2)
        assert D.shape == (2, 4, 4)
        with pytest.raises(ValueError):
            blr2_factors_from_sketches(BLR2Pattern.diagonal(2, 3), 2, *arrs)
        names = ("tests", "images", "tests_diag", "images_diag")
        for pos, name in enumerate(names):
            bad = list(arrs)
            bad[pos] = bad[pos][:, :4]
            with pytest.raises(ValueError, match=f"^{name} has shape"):
                blr2_factors_from_sketches(BLR2Pattern.diagonal(2, 4), 2, *bad)
