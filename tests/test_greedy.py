import numpy as np
import pytest
from scipy.linalg import block_diag

from hsskit import (
    BLR2Factorization,
    frobenius_error,
    greedy_hss_explicit,
    hard_instance,
    random_hss_matrix,
    blr2_reconstruct,
    reconstruct_dense,
    sss_step_explicit,
)
from hsskit import structures
from hsskit.structures import block_apply, block_apply_t

from helpers import brute_block_col, brute_block_row, random_sss, svd_tail_energy


class TestSssStepExplicit:
    def test_exactly_sss_input_recovered(self):
        f = random_sss(3, 2, seed=0)
        A = blr2_reconstruct(f)
        factors, A_next = sss_step_explicit(A, 2)
        approx = blr2_reconstruct(
            BLR2Factorization(f.pattern, factors.U, factors.V, A_next, factors.D)
        )
        assert np.linalg.norm(A - approx) <= 1e-10 * np.linalg.norm(A)

    def test_hard_instance_top_level_bases(self):
        A = hard_instance(3, 0.1)
        factors, _ = sss_step_explicit(A, 1)
        e1 = np.array([[1.0], [0.0]])
        e2 = np.array([[0.0], [1.0]])
        for i in range(8):
            assert np.abs(factors.U[i] - e1).max() <= 1e-12
            assert np.abs(factors.V[i] - e2).max() <= 1e-12

    def test_output_shapes(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((32, 32))
        factors, A_next = sss_step_explicit(A, 4)
        assert factors.U.shape == (4, 8, 4)
        assert factors.V.shape == (4, 8, 4)
        assert factors.D.shape == (4, 8, 8)
        assert A_next.shape == (16, 16)

    def test_diagonal_blocks_copied_exactly(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((16, 16))
        factors, _ = sss_step_explicit(A, 4)
        for i in range(2):
            assert np.array_equal(factors.D[i], A[8 * i : 8 * i + 8, 8 * i : 8 * i + 8])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sss_step_explicit(np.zeros((12, 12)), 2)


class TestGreedyExplicit:
    def test_exact_recovery(self):
        A = random_hss_matrix(4, 4, seed=0)
        T = greedy_hss_explicit(A, 4, 4)
        assert frobenius_error(A, T) <= 1e-10

    def test_scans_a_for_non_finite_entries_once(self, monkeypatch):
        A = random_hss_matrix(3, 2, seed=1)
        scans = []
        as_matrix = structures.as_matrix

        def recording(a, name="matrix"):
            scans.append(np.shape(a))
            return as_matrix(a, name)

        monkeypatch.setattr(structures, "as_matrix", recording)
        greedy_hss_explicit(A, 3, 2)
        assert scans.count(A.shape) == 1
        A[5, 7] = np.nan
        with pytest.raises(ValueError, match="^A contains non-finite entries$"):
            greedy_hss_explicit(A, 3, 2)

    def test_hard_instance_error_floor_L4(self):
        A = hard_instance(4, 0.1)
        T = greedy_hss_explicit(A, 4, 1)
        err2 = np.linalg.norm(A - reconstruct_dense(T)) ** 2
        assert err2 >= 448.0  # 2**(2L+1) - 2**(L+2) at L = 4

    def test_hard_instance_error_floor_L2(self):
        A = hard_instance(2, 0.1)
        T = greedy_hss_explicit(A, 2, 1)
        err2 = np.linalg.norm(A - reconstruct_dense(T)) ** 2
        assert err2 >= 16.0  # 2**(2L+1) - 2**(L+2) at L = 2

    def test_quasi_optimality_witness(self):
        A = hard_instance(4, 0.1)
        T = greedy_hss_explicit(A, 4, 1)
        greedy_err2 = np.linalg.norm(A - reconstruct_dense(T)) ** 2
        reference_err2 = np.linalg.norm(A - 0.5 * np.ones_like(A)) ** 2
        assert greedy_err2 / reference_err2 >= 1.7


class TestOneLevelOptimality:
    def test_row_block_errors_are_optimal(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((32, 32))
        k, level = 2, 3
        factors, _ = sss_step_explicit(A, k)
        for i in range(1 << level):
            row = brute_block_row(A, 2 * k, i)
            Ui = factors.U[i]
            resid2 = np.linalg.norm(row - Ui @ (Ui.T @ row)) ** 2
            opt2 = svd_tail_energy(row, k)
            assert abs(resid2 - opt2) <= 1e-10 * max(opt2, 1.0)
            col = brute_block_col(A, 2 * k, i)
            Vi = factors.V[i]
            cresid2 = np.linalg.norm(col - (col @ Vi) @ Vi.T) ** 2
            copt2 = svd_tail_energy(col, k)
            assert abs(cresid2 - copt2) <= 1e-10 * max(copt2, 1.0)

    def test_pythagorean_split(self):
        # || A - B ||^2 = || A - D - U X V^T ||^2 + || X - C ||^2 whenever
        # X = U^T (A - D) V and B = U C V^T + D, for any core C.
        rng = np.random.default_rng(3)
        A = rng.standard_normal((32, 32))
        factors, X = sss_step_explicit(A, 4)
        C = rng.standard_normal(X.shape)
        B = block_apply(factors.U, C)
        B = block_apply(factors.V, B.T).T + block_diag(*factors.D)
        lhs = np.linalg.norm(A - B) ** 2
        mid = A - block_diag(*factors.D)
        level_term = np.linalg.norm(mid - block_apply(factors.U, block_apply(factors.V, X.T).T)) ** 2
        rhs = level_term + np.linalg.norm(X - C) ** 2
        assert abs(lhs - rhs) <= 1e-8 * lhs

    def test_compression_matches_blockwise_formula(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((16, 16))
        factors, X = sss_step_explicit(A, 4)
        expected = block_apply_t(factors.U, A - block_diag(*factors.D))
        expected = block_apply_t(factors.V, expected.T).T
        assert np.abs(X - expected).max() <= 1e-12

    def test_in_place_remainder_matches_block_diag_difference(self):
        # D is subtracted through a view of the diagonal blocks; the result
        # must equal the explicit A - block_diag(D), also for a transposed
        # (Fortran-ordered) input.
        A = np.random.default_rng(5).standard_normal((32, 32))
        for M in (A, A.T):
            factors, X = sss_step_explicit(M, 4)
            expected = block_apply_t(factors.U, M - block_diag(*factors.D))
            assert np.array_equal(X, block_apply_t(factors.V, expected.T).T)
