import numpy as np
import pytest

from hsskit import (
    BLR2Pattern,
    MatvecConfig,
    MatvecOracle,
    RngStream,
    banded_inverse_oracle,
    blr2_from_matvecs,
    dense_from_oracle,
    frobenius_error,
    gaussian,
    greedy_hss_explicit,
    grid_schur_oracle,
    hss_from_matvecs_fresh,
    hss_from_matvecs_reused,
    nullspace_basis,
    pivoted_qr_basis,
    random_hss_matrix,
    right_pinv_apply,
    sketching,
    truncated_svd_left,
)

from hsskit import kernels
from hsskit.kernels import _pivots, as_matrix, nullified_factor

from helpers import lapack_pivots, stacked_direct_pivoted_qr_basis, svd_tail_energy


class TestRngStream:
    def test_same_seed_and_path_reproduces(self):
        a = gaussian(50, 20, RngStream(123).child(3, 1, "omega"))
        b = gaussian(50, 20, RngStream(123).child(3, 1, "omega"))
        assert np.array_equal(a, b)

    def test_distinct_paths_differ(self):
        s = RngStream(123)
        a = gaussian(10, 10, s.child(1, 0, "omega"))
        b = gaussian(10, 10, s.child(1, 0, "psi"))
        c = gaussian(10, 10, s.child(1, 1, "omega"))
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_child_does_not_mutate_parent(self):
        s = RngStream(7)
        before = gaussian(4, 4, s)
        s.child(1, 2, "x")
        assert np.array_equal(before, gaussian(4, 4, s))

    def test_int_vs_string_labels_do_not_collide(self):
        s = RngStream(0)
        a = gaussian(8, 8, s.child(1))
        b = gaussian(8, 8, s.child("1"))
        assert not np.array_equal(a, b)

    def test_moments(self):
        x = gaussian(1000, 100, RngStream(5).child("moments")).ravel()
        assert abs(x.mean()) < 0.02
        assert abs(x.var() - 1.0) < 0.05

    def test_cross_correlation_between_paths(self):
        s = RngStream(11)
        x = gaussian(1000, 100, s.child("a")).ravel()
        y = gaussian(1000, 100, s.child("b")).ravel()
        corr = np.corrcoef(x, y)[0, 1]
        assert abs(corr) < 0.02

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            RngStream(0).child(-1)
        with pytest.raises(TypeError):
            RngStream(0).child(1.5)

    @pytest.mark.parametrize("rows,cols", [(1, 1), (7, 3), (8192, 34)])
    def test_draw_into_out_gives_the_same_values(self, rows, cols):
        stream = RngStream(9).child(2, "omega")
        slab = np.full((3, rows, cols), np.nan)
        got = gaussian(rows, cols, stream, out=slab[1])
        assert np.shares_memory(got, slab[1])
        assert np.array_equal(slab[1], gaussian(rows, cols, stream))
        assert np.isnan(slab[0]).all() and np.isnan(slab[2]).all()
        with pytest.raises(ValueError, match="out has shape"):
            gaussian(rows, cols + 1, stream, out=slab[1])


@pytest.mark.parametrize("call, error, message", [
    (lambda: as_matrix(np.ones(3), "M"), ValueError, r"^M must be 2-D, got shape \(3,\)$"),
    (lambda: RngStream(0).child(None), TypeError, r"^unsupported stream label type: <class 'NoneType'>$"),
    (lambda: RngStream(0).child(b"x"), TypeError, r"^unsupported stream label type: <class 'bytes'>$"),
    (lambda: gaussian(0, 3, RngStream(0)), ValueError, r"^matrix dimensions must be positive, got 0x3$"),
    (lambda: gaussian(4, -1, RngStream(0)), ValueError, r"^matrix dimensions must be positive, got 4x-1$"),
    (lambda: pivoted_qr_basis(np.ones(4), 1), ValueError,
     r"^B must be a 2-D matrix or a 3-D stack, got shape \(4,\)$"),
    (lambda: pivoted_qr_basis(np.ones((1, 2, 3, 4)), 1), ValueError,
     r"^B must be a 2-D matrix or a 3-D stack, got shape \(1, 2, 3, 4\)$"),
    (lambda: pivoted_qr_basis(np.eye(4), 0), ValueError, r"^k=0 out of range for shape \(4, 4\)$"),
    (lambda: pivoted_qr_basis(np.ones((2, 4, 3)), 4), ValueError, r"^k=4 out of range for shape \(4, 3\)$"),
], ids=["as-matrix-1d", "label-none", "label-bytes", "gaussian-rows", "gaussian-cols", "stack-1d",
        "stack-4d", "qr-k-zero", "qr-k-above-min"])
def test_bad_input_names_the_cause(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestTruncatedSvdLeft:
    def test_exact_rank_k_residual_vanishes(self):
        rng = np.random.default_rng(0)
        B = rng.standard_normal((20, 4)) @ rng.standard_normal((4, 30))
        U = truncated_svd_left(B, 4)
        assert np.linalg.norm(B - U @ (U.T @ B)) <= 1e-12 * np.linalg.norm(B)

    def test_diagonal_projector(self):
        B = np.diag([3.0, 2.0, 1.0])
        U = truncated_svd_left(B, 2)
        assert np.abs(U @ U.T - np.diag([1.0, 1.0, 0.0])).max() <= 1e-12

    def test_residual_matches_tail_energy(self):
        rng = np.random.default_rng(1)
        B = rng.standard_normal((20, 30))
        U = truncated_svd_left(B, 5)
        resid = np.linalg.norm(B - U @ (U.T @ B)) ** 2
        tail = svd_tail_energy(B, 5)
        assert abs(resid - tail) <= 1e-10 * tail

    def test_residual_monotone_in_k(self):
        rng = np.random.default_rng(2)
        B = rng.standard_normal((15, 25))
        resids = []
        for k in range(1, 15):
            U = truncated_svd_left(B, k)
            resids.append(np.linalg.norm(B - U @ (U.T @ B)))
        assert all(resids[i + 1] <= resids[i] + 1e-12 for i in range(len(resids) - 1))

    def test_orthonormal_and_sign_normalized(self):
        rng = np.random.default_rng(3)
        B = rng.standard_normal((12, 18))
        U = truncated_svd_left(B, 6)
        assert np.abs(U.T @ U - np.eye(6)).max() <= 1e-12
        for j in range(6):
            col = U[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_tied_singular_values_resolved_deterministically(self):
        # All three singular values of the identity tie; the lexicographically
        # earliest sign-normalized singular vectors are kept.
        U1 = truncated_svd_left(np.eye(3), 2)
        U2 = truncated_svd_left(np.eye(3), 2)
        assert np.array_equal(U1, U2)
        proj = U1 @ U1.T
        assert np.allclose(proj @ proj, proj, atol=1e-14)
        assert abs(np.trace(proj) - 2.0) <= 1e-14

    def test_one_member_on_each_side_of_the_gram_guard(self):
        # Three 12 x 20 members with sigma_1 = 1, sigma_4 = 1e-3, 2e-7 and
        # 1e-9, sigma_5 = sigma_4 / 10, and nu = 32 eps ||B||_F^2, about
        # 7e-15.  The first clears the guard by far and takes the Gram
        # route.  The second's gap exceeds nu, but not by enough to bound
        # its residual, and the third's sigma_4^2 is below nu: both fail
        # the guard.  The third's own residual certifies its Gram basis,
        # and the second takes the SVD route, alone in their stack or not.
        rng = np.random.default_rng(5)
        B = np.empty((3, 12, 20))
        for t, floor in enumerate((1e-3, 2e-7, 1e-9)):
            svals = np.concatenate((np.geomspace(1.0, floor, 4), floor * np.geomspace(0.1, 1e-3, 8)))
            left = np.linalg.qr(rng.standard_normal((12, 12)))[0]
            right = np.linalg.qr(rng.standard_normal((20, 12)))[0]
            B[t] = (left * svals) @ right.T
        gram, off = kernels._gram_left(B, 4)
        assert off.tolist() == [1, 2]
        assert kernels._certified(B[off], gram[off]).tolist() == [False, True]
        got = truncated_svd_left(B, 4)
        for t in range(3):
            want = kernels._svd_left(B[t : t + 1], 4)[0] if t == 1 else gram[t]
            assert got[t].tobytes() == want.tobytes()
            assert got[t].tobytes() == truncated_svd_left(B[t], 4).tobytes()
            resid = np.linalg.norm(B[t] - got[t] @ (got[t].T @ B[t])) ** 2
            assert resid - svd_tail_energy(B[t], 4) <= np.finfo(float).eps

    def test_k_out_of_range(self):
        B = np.eye(4)
        with pytest.raises(ValueError):
            truncated_svd_left(B, 0)
        with pytest.raises(ValueError):
            truncated_svd_left(B, 5)

    def test_non_finite_rejected(self):
        B = np.eye(3)
        B[0, 0] = np.nan
        with pytest.raises(ValueError):
            truncated_svd_left(B, 1)


class TestCertifiedRoute:
    """Guard-failing members that their own residual certifies keep the
    Gram basis: builds on numerically rank-deficient blocks send no member
    to the SVD route, and zero and tied members still take it."""

    @staticmethod
    def _svd_members(monkeypatch):
        members = []
        svd_left = kernels._svd_left

        def counting(B, k):
            members.append(len(B))
            return svd_left(B, k)

        monkeypatch.setattr(kernels, "_svd_left", counting)
        return members

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_exact_recovery_when_k_exceeds_every_block_rank(self, monkeypatch, seed):
        # An exactly (5, 2) rank-structured matrix (n = 128) built at k = 8:
        # every block has rank 2 at most, so sigma_3 .. sigma_8 of each
        # block are rounding and every Gram guard fails.
        A = random_hss_matrix(5, 2, seed)
        op = MatvecOracle.from_dense(A)
        members = self._svd_members(monkeypatch)
        builds = {
            "explicit": greedy_hss_explicit(A, 3, 8),
            "fresh": hss_from_matvecs_fresh(op, MatvecConfig(3, 8, 26, seed)),
            "reused-svd": hss_from_matvecs_reused(op, MatvecConfig(3, 8, 32, seed, "svd-pcps", "reused")),
        }
        for name, T in builds.items():
            assert frobenius_error(A, T) <= 1e-13, name
        assert sum(members) == 0

    def test_benchmark_reference_builds_take_no_svd_route(self, monkeypatch):
        # The benchmark's dense reference: banded n = 256, bandwidth 17,
        # matrix seed 0, k = 8.  The explicit build sent 12 members to the
        # SVD route before the certificate, the tridiagonal BLR2 build 6.
        A = dense_from_oracle(banded_inverse_oracle(256, 17, 0))
        members = self._svd_members(monkeypatch)
        greedy_hss_explicit(A, 4, 8)
        assert sum(members) == 0
        blr2_from_matvecs(MatvecOracle.from_dense(A), BLR2Pattern.tridiagonal(16, 16), 8, 58, 0)
        assert sum(members) == 0

    def test_zero_and_tied_members_keep_the_svd_route(self, monkeypatch):
        B = np.zeros((2, 3, 3))
        B[1] = np.eye(3)
        want = np.stack((np.eye(3)[:, :2], np.eye(3)[:, [2, 1]]))
        members = self._svd_members(monkeypatch)
        got = truncated_svd_left(B, 2)
        assert members == [2]
        assert got.tobytes() == want.tobytes()
        for t in range(2):
            assert truncated_svd_left(B[t], 2).tobytes() == want[t].tobytes()
        assert members == [2, 1, 1]


class TestNullspaceBasis:
    def test_gaussian_2x5(self):
        omega = gaussian(2, 5, RngStream(0).child("null"))
        P = nullspace_basis(omega)
        assert P.shape == (5, 3)
        assert np.abs(omega @ P).max() <= 1e-12
        assert np.abs(P.T @ P - np.eye(3)).max() <= 1e-12

    def test_standard_basis_rows(self):
        omega = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        P = nullspace_basis(omega)
        assert P.shape == (3, 1)
        assert abs(abs(P[2, 0]) - 1.0) <= 1e-12

    def test_dimension_arithmetic_16x26(self):
        omega = gaussian(16, 26, RngStream(1).child("null"))
        assert nullspace_basis(omega).shape == (26, 10)

    def test_not_wide_rejected(self):
        with pytest.raises(ValueError):
            nullspace_basis(np.eye(3))

    def test_no_rows_gives_identity(self):
        assert np.array_equal(nullspace_basis(np.zeros((0, 4))), np.eye(4))
        P = nullspace_basis(np.zeros((3, 0, 5)))
        assert P.shape == (3, 5, 5) and np.array_equal(P, np.broadcast_to(np.eye(5), P.shape))

    def test_defining_properties_random_shapes(self):
        stream = RngStream(2)
        for trial, (m, n) in enumerate([(2, 7), (5, 9), (8, 26), (1, 4)]):
            omega = gaussian(m, n, stream.child("null", trial))
            P = nullspace_basis(omega)
            assert P.shape == (n, n - m)
            assert np.abs(omega @ P).max() <= 1e-12
            assert np.abs(P.T @ P - np.eye(n - m)).max() <= 1e-12


class TestPivotedQrBasis:
    def test_pivots_by_column_norm(self):
        Q0, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((8, 3)))
        B = Q0 * np.array([3.0, 1.0, 2.0])
        Q = pivoted_qr_basis(B, 2)
        # span of the two largest-norm columns (norms 3 and 2)
        target = Q0[:, [0, 2]]
        assert np.linalg.norm(target - Q @ (Q.T @ target)) <= 1e-12

    def test_exact_rank_k(self):
        rng = np.random.default_rng(5)
        B = rng.standard_normal((16, 3)) @ rng.standard_normal((3, 10))
        Q = pivoted_qr_basis(B, 3)
        assert np.linalg.norm(B - Q @ (Q.T @ B)) <= 1e-12 * np.linalg.norm(B)

    def test_full_column_span(self):
        rng = np.random.default_rng(6)
        B = rng.standard_normal((16, 10))
        Q = pivoted_qr_basis(B, 10)
        assert np.abs(B - Q @ (Q.T @ B)).max() <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pivots_match_geqp3_where_the_gram_matrix_cancels(self, seed):
        # Rank 5 plus noise of size 1e-7: pivots 6 to 8 have residual norms
        # about 4e-8 of the largest column norm, above sqrt(eps), which the
        # Gram matrix alone gets only from cancellation.
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((24, 16, 5)) @ rng.standard_normal((24, 5, 18))
        B += 1e-7 * rng.standard_normal(B.shape)
        piv = _pivots(B, 8)
        for member, got in zip(B, piv):
            want, trusted = lapack_pivots(member, 8)
            assert trusted == 8
            assert np.array_equal(got, want)

    @staticmethod
    def _assert_geqp3_pivots(B, k):
        # Each member takes geqp3's pivots wherever they are trusted, and the
        # same pivots alone as in the stack.
        piv = _pivots(B, k)
        for i, member in enumerate(B):
            want, trusted = lapack_pivots(member, k)
            assert np.array_equal(piv[i, :trusted], want[:trusted])
            assert np.array_equal(_pivots(member[None], k)[0], piv[i])

    @pytest.mark.parametrize("b", [17, 18, 19])
    @pytest.mark.parametrize("kind", ["gaussian", "low rank plus noise"])
    def test_pivots_match_geqp3_around_the_member_width(self, b, kind):
        # Stacks shorter than, as long as and longer than a member is wide.
        rng = np.random.default_rng(b)
        B = rng.standard_normal((b, 16, 18))
        if kind == "low rank plus noise":
            B = rng.standard_normal((b, 16, 8)) @ rng.standard_normal((b, 8, 18)) + 1e-7 * B
        self._assert_geqp3_pivots(B, 8)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_pivots_match_geqp3_on_nullified_sketches(self, seed):
        # The (b, 16, 34) factors of Gaussian sketches nullified against
        # 16-row test blocks, the members a pivoted QR of the
        # rotation-free factor would take.
        rng = np.random.default_rng(seed)
        F = nullified_factor(rng.standard_normal((40, 16, 34)), rng.standard_normal((40, 16, 34)))
        self._assert_geqp3_pivots(F, 8)

    def test_rank_deficient_and_zero_members_take_the_residual_pivots(self, monkeypatch):
        # A member whose 18 columns are 9 columns twice (rank 9 < k = 10)
        # and a zero member fall below the Gram matrix's accuracy; only
        # they go to the explicit residual, and each keeps its pivots alone.
        rng = np.random.default_rng(3)
        B = rng.standard_normal((5, 16, 18))
        B[1] = np.tile(rng.standard_normal((16, 9)), 2)
        B[3] = 0.0
        residual_pivots, redone = kernels._residual_pivots, []

        def spy(stack, k):
            redone.append(stack.copy())
            return residual_pivots(stack, k)

        monkeypatch.setattr(kernels, "_residual_pivots", spy)
        piv = _pivots(B, 10)
        assert len(redone) == 1 and np.array_equal(redone[0], B[[1, 3]])
        assert np.array_equal(piv[[1, 3]], residual_pivots(B[[1, 3]], 10))
        assert np.array_equal(piv[3], np.arange(10))
        for i in range(len(B)):
            assert np.array_equal(_pivots(B[i : i + 1], 10)[0], piv[i])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_grid_build_matches_the_lapack_basis(self, seed, monkeypatch):
        # A reused-qr build on the grid operator, whose sketches decay fast
        # enough that some pivots fall below the Gram matrix's accuracy,
        # errs as a build through scipy's per-member LAPACK basis does.
        op = grid_schur_oracle(256)
        A = dense_from_oracle(op)
        config = MatvecConfig(4, 8, 34, seed=seed, basis_method="pivoted-qr", sketch_policy="reused")
        err = frobenius_error(A, hss_from_matvecs_reused(op, config))
        monkeypatch.setattr(sketching, "pivoted_qr_basis", stacked_direct_pivoted_qr_basis)
        want = frobenius_error(A, hss_from_matvecs_reused(op, config))
        assert abs(err - want) <= 1e-9 * want


class TestRightPinvApply:
    def test_square_orthogonal(self):
        Q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((6, 6)))
        Y = np.random.default_rng(8).standard_normal((4, 6))
        assert np.abs(right_pinv_apply(Y, Q) - Y @ Q.T).max() <= 1e-12

    def test_recovers_left_factor(self):
        rng = np.random.default_rng(9)
        M = rng.standard_normal((5, 8))
        omega = gaussian(8, 12, RngStream(3).child("pinv"))
        rec = right_pinv_apply(M @ omega, omega)
        assert np.linalg.norm(rec - M) <= 1e-10 * np.linalg.norm(M)

    def test_zero_input(self):
        omega = gaussian(3, 7, RngStream(4).child("pinv"))
        assert np.abs(right_pinv_apply(np.zeros((2, 7)), omega)).max() == 0.0

    def test_rank_deficient_rejected(self):
        omega = np.vstack([np.ones((1, 6)), np.ones((1, 6))])
        with pytest.raises(np.linalg.LinAlgError):
            right_pinv_apply(np.ones((2, 6)), omega)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            right_pinv_apply(np.ones((2, 5)), np.ones((3, 6)))
        with pytest.raises(ValueError):
            right_pinv_apply(np.ones((2, 3)), np.ones((4, 3)))


class TestNullifiedFactor:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="expected a wide matrix"):
            nullified_factor(np.ones((3, 6)), np.ones((6, 6)))
        with pytest.raises(ValueError, match="column mismatch"):
            nullified_factor(np.ones((2, 5)), np.ones((3, 6)))
        with pytest.raises(ValueError, match="stack mismatch"):
            nullified_factor(np.ones((2, 2, 6)), np.ones((3, 1, 6)))
