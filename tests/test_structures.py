import numpy as np
import pytest

from hsskit import (
    BLR2Factorization,
    BlockPartition,
    LevelFactors,
    RngStream,
    TelescopingFactorization,
    hard_instance,
    hss_apply,
    hss_apply_transpose,
    hss_block_row,
    blr2_apply,
    blr2_reconstruct,
    random_telescoping,
    reconstruct_dense,
    validate_hss_ranks,
)

from hsskit.structures import block_apply, block_to_dense

from helpers import brute_block_col, brute_block_row, random_sss


class TestBlockSlabs:
    def test_hard_instance_first_block_row(self):
        A = hard_instance(2, 0.1)
        part = BlockPartition(level=2, rank_param=1)
        got = hss_block_row(A, part, 0)
        eye = np.eye(2)
        anti = np.array([[0.0, 1.1], [1.0, 0.0]])
        assert np.array_equal(got, np.hstack([eye, eye, anti]))

    def test_zero_matrix(self):
        part = BlockPartition(level=2, rank_param=1)
        got = hss_block_row(np.zeros((8, 8)), part, 2)
        assert got.shape == (2, 6)
        assert not got.any()

    def test_matches_brute_force_slicer(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((16, 16))
        part = BlockPartition(level=2, rank_param=2)
        for i in range(4):
            assert np.array_equal(hss_block_row(A, part, i), brute_block_row(A, 4, i))
            assert np.array_equal(hss_block_row(A.T, part, i).T, brute_block_col(A, 4, i))

    def test_concatenating_diagonal_back_recovers_block_row(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((16, 16))
        part = BlockPartition(level=1, rank_param=4)
        w = part.block_size
        for i in range(part.block_count):
            slab = hss_block_row(A, part, i)
            diag = A[i * w : (i + 1) * w, i * w : (i + 1) * w]
            rebuilt = np.hstack([slab[:, : i * w], diag, slab[:, i * w :]])
            assert np.array_equal(rebuilt, A[i * w : (i + 1) * w])

    def test_errors(self):
        part = BlockPartition(level=2, rank_param=1)
        with pytest.raises(ValueError):
            hss_block_row(np.zeros((6, 6)), part, 0)
        with pytest.raises(IndexError):
            hss_block_row(np.zeros((8, 8)), part, 4)
        with pytest.raises(ValueError):
            BlockPartition(level=-1, rank_param=1)


class TestReconstruct:
    def test_one_level_hand_expansion(self):
        e1 = np.array([[1.0], [0.0]])
        U = np.stack([e1, e1])
        D = np.zeros((2, 2, 2))
        root = np.array([[1.0, 2.0], [3.0, 4.0]])
        T = TelescopingFactorization((LevelFactors(U, U, D),), root)
        expected = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                expected[2 * i, 2 * j] = root[i, j]
        assert np.array_equal(reconstruct_dense(T), expected)

    def test_all_zero_factors_give_zero(self):
        stream = RngStream(0).child("zero")
        T = random_telescoping(2, 2, stream)
        Z = TelescopingFactorization(
            tuple(LevelFactors(lf.U, lf.V, np.zeros_like(lf.D)) for lf in T.levels),
            np.zeros_like(T.root),
        )
        assert not reconstruct_dense(Z).any()

    def test_dimension_property(self):
        T = random_telescoping(3, 2, RngStream(1).child("dims"))
        assert T.dim == 32
        assert reconstruct_dense(T).shape == (32, 32)

    def test_diagonal_added_in_place_matches_block_diag_sum(self):
        # Reference: the same recursion with an explicit N x N block_diag(D)
        # added at every level.
        T = random_telescoping(4, 3, RngStream(2).child("in-place"))
        B = T.root
        for lf in T.levels:
            B = block_apply(lf.V, block_apply(lf.U, B).T).T + block_to_dense(lf.D)
        got = reconstruct_dense(T)
        assert np.array_equal(got, B)
        assert got.flags["C_CONTIGUOUS"]


class TestApply:
    def test_zero_vector(self):
        T = random_telescoping(3, 2, RngStream(2).child("apply"))
        assert not hss_apply(T, np.zeros(T.dim)).any()

    def test_unit_vectors_give_columns(self):
        T = random_telescoping(2, 3, RngStream(3).child("apply"))
        dense = reconstruct_dense(T)
        for j in (0, 5, T.dim - 1):
            e = np.zeros(T.dim)
            e[j] = 1.0
            assert np.abs(hss_apply(T, e) - dense[:, j]).max() <= 1e-12 * np.abs(dense).max()

    def test_matches_dense_product(self):
        for L, k, seed in [(1, 1, 0), (3, 2, 1), (5, 4, 2), (4, 3, 3)]:
            T = random_telescoping(L, k, RngStream(seed).child("apply", L, k))
            dense = reconstruct_dense(T)
            x = np.random.default_rng(seed).standard_normal((T.dim, 3))
            y = hss_apply(T, x)
            assert np.linalg.norm(y - dense @ x) <= 1e-12 * np.linalg.norm(dense @ x)
            yt = hss_apply_transpose(T, x)
            assert np.linalg.norm(yt - dense.T @ x) <= 1e-12 * np.linalg.norm(dense.T @ x)

    def test_dimension_mismatch(self):
        T = random_telescoping(2, 2, RngStream(4).child("apply"))
        with pytest.raises(ValueError):
            hss_apply(T, np.zeros(T.dim + 1))


class TestSSSContainer:
    """The one-level container: BLR2 with the diagonal pattern."""

    def test_reconstruct_and_apply_agree(self):
        f = random_sss(3, 2, seed=0)
        dense = blr2_reconstruct(f)
        x = np.random.default_rng(1).standard_normal((f.dim, 2))
        assert np.linalg.norm(blr2_apply(f, x) - dense @ x) <= 1e-12 * np.linalg.norm(dense @ x)

    def test_shape_validation(self):
        f = random_sss(2, 2, seed=1)
        with pytest.raises(ValueError):
            BLR2Factorization(f.pattern, f.rank_param, f.U, f.V, f.X[:-1], f.D)


class TestValidateRanks:
    def test_reconstructed_factorization_passes(self):
        for seed in range(3):
            T = random_telescoping(3, 2, RngStream(seed).child("vr"))
            assert validate_hss_ranks(reconstruct_dense(T), 3, 2, 1e-10)

    def test_hard_instance_fails_at_rank_one(self):
        A = hard_instance(4, 0.1)
        assert not validate_hss_ranks(A, 4, 1, 1e-10)

    def test_zero_matrix_passes(self):
        assert validate_hss_ranks(np.zeros((16, 16)), 2, 2, 1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            validate_hss_ranks(np.zeros((10, 10)), 2, 2, 1e-10)
