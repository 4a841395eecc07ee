import numpy as np
import pytest
from scipy.linalg import block_diag

from hsskit import (
    BLR2Factorization,
    BLR2Pattern,
    LevelFactors,
    MatvecConfig,
    MatvecOracle,
    RngStream,
    TelescopingFactorization,
    blr2_from_matvecs,
    deserialize,
    hard_instance,
    hss_from_matvecs_fresh,
    hss_apply,
    hss_apply_transpose,
    blr2_apply,
    blr2_reconstruct,
    random_blr2_matrix,
    random_hss_matrix,
    random_telescoping,
    reconstruct_dense,
    serialize,
    validate_hss_ranks,
)

from hsskit.structures import (
    _diagonal_blocks,
    _off_diagonal_slabs,
    block_apply,
)

from helpers import brute_block_col, brute_block_row, random_sss


def _slabs(A, w):
    """Row and column views of a copy of A with its diagonal w x w blocks zeroed."""
    R = np.array(A, order="C")
    _diagonal_blocks(R, w)[...] = 0.0
    return _off_diagonal_slabs(R, w)


def _drop_diagonal(slab, i, w):
    return np.delete(slab, np.s_[i * w : (i + 1) * w], axis=1)


class TestBlockSlabs:
    def test_hard_instance_first_block_row(self):
        A = hard_instance(2, 0.1)
        rows, _ = _slabs(A, 2)
        eye = np.eye(2)
        anti = np.array([[0.0, 1.1], [1.0, 0.0]])
        assert np.array_equal(_drop_diagonal(rows[0], 0, 2), np.hstack([eye, eye, anti]))

    def test_zero_matrix(self):
        rows, cols = _slabs(np.zeros((8, 8)), 2)
        assert rows.shape == cols.shape == (4, 2, 8)
        assert not rows[2].any() and not cols[2].any()

    def test_matches_brute_force_slicer(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((16, 16))
        rows, cols = _slabs(A, 4)
        for i in range(4):
            assert np.array_equal(_drop_diagonal(rows[i], i, 4), brute_block_row(A, 4, i))
            assert np.array_equal(_drop_diagonal(cols[i], i, 4).T, brute_block_col(A, 4, i))

    def test_concatenating_diagonal_back_recovers_block_row(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((16, 16))
        w = 8
        rows, cols = _slabs(A, w)
        for i in range(2):
            assert not rows[i][:, i * w : (i + 1) * w].any()
            assert not cols[i][:, i * w : (i + 1) * w].any()
            rebuilt = rows[i].copy()
            rebuilt[:, i * w : (i + 1) * w] = A[i * w : (i + 1) * w, i * w : (i + 1) * w]
            assert np.array_equal(rebuilt, A[i * w : (i + 1) * w])

    def test_views_share_memory(self):
        R = np.random.default_rng(2).standard_normal((16, 16))
        for view in _off_diagonal_slabs(R, 4):
            assert np.shares_memory(view, R)

    def test_errors(self):
        with pytest.raises(ValueError):
            _off_diagonal_slabs(np.zeros((6, 6)), 4)
        rows, _ = _off_diagonal_slabs(np.zeros((8, 8)), 2)
        with pytest.raises(IndexError):
            rows[4]


def _level(b, k, w=None, d=None):
    """A LevelFactors of b blocks of rank k with zero entries; ``w`` and
    ``d`` override the basis block height and the D block side."""
    U = np.zeros((b, w or 2 * k, k))
    return LevelFactors(U, U, np.zeros((b, d or 2 * k, d or 2 * k)))


class TestFactorShapes:
    @pytest.mark.parametrize("make, message", [
        (lambda: LevelFactors(np.zeros((4, 2)), np.zeros((4, 2)), np.zeros((1, 4, 4))),
         r"^U and V must be \(b, 2k, k\) block arrays of equal shape$"),
        (lambda: LevelFactors(np.zeros((2, 4, 2)), np.zeros((2, 4, 1)), np.zeros((2, 4, 4))),
         r"^U and V must be \(b, 2k, k\) block arrays of equal shape$"),
        (lambda: _level(2, 2, w=3), r"^basis blocks must be \(2k, k\), got \(3, 2\)$"),
        (lambda: _level(2, 2, d=3), r"^D must have shape \(2, 4, 4\), got \(2, 3, 3\)$"),
        (lambda: TelescopingFactorization((), np.eye(4)),
         r"^a telescoping factorization needs at least one level$"),
        (lambda: TelescopingFactorization((_level(2, 2),), np.eye(3)),
         r"^root must be \(2k, 2k\) = \(4, 4\), got \(3, 3\)$"),
        (lambda: TelescopingFactorization((_level(2, 2), _level(4, 1)), np.eye(4)),
         r"^all levels must share one rank parameter$"),
        (lambda: TelescopingFactorization((_level(4, 2),), np.eye(4)), r"^level 1 must hold 2 blocks, got 4$"),
    ], ids=["U-not-3d", "V-other-shape", "basis-height", "D-shape", "no-levels", "root-shape",
            "mixed-ranks", "block-count"])
    def test_misshapen_factors_named(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()


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
            B = block_apply(lf.V, block_apply(lf.U, B).T).T + block_diag(*lf.D)
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

    def test_operand_must_be_vector_or_block(self):
        T = random_telescoping(2, 2, RngStream(5).child("apply"))
        for bad in (np.ones((T.dim, 2, 3)), np.float64(1.0)):
            with pytest.raises(ValueError, match=r"operand shape \(.*\) does not match dim"):
                hss_apply(T, bad)
            with pytest.raises(ValueError, match=r"operand shape"):
                hss_apply_transpose(T, bad)


class TestSSSContainer:
    """The one-level container: BLR2 with the diagonal pattern."""

    def test_reconstruct_and_apply_agree(self):
        f = random_sss(3, 2, seed=0)
        dense = blr2_reconstruct(f)
        x = np.random.default_rng(1).standard_normal((f.dim, 2))
        assert np.linalg.norm(blr2_apply(f, x) - dense @ x) <= 1e-12 * np.linalg.norm(dense @ x)

    def test_operand_must_be_vector_or_block(self):
        f = random_sss(2, 2, seed=2)
        for bad in (np.ones((f.dim, 2, 3)), np.float64(1.0)):
            with pytest.raises(ValueError, match=r"operand shape \(.*\) does not match dim"):
                blr2_apply(f, bad)

    def test_shape_validation(self):
        f = random_sss(2, 2, seed=1)
        with pytest.raises(ValueError):
            BLR2Factorization(f.pattern, f.U, f.V, f.X[:-1], f.D)


class TestReadOnlyFactors:
    """Containers store read-only views, so a built factorization and a
    loaded one behave the same; the arrays passed in stay writable."""

    @staticmethod
    def _assert_read_only(arrays):
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 1.0

    @pytest.mark.parametrize("view", [
        lambda T: T,
        lambda T: deserialize(serialize(T)),
        lambda T: T.T,
        lambda T: deserialize(serialize(T)).T,
    ], ids=["built", "loaded", "transposed", "loaded-transposed"])
    def test_telescoping(self, view):
        A = random_hss_matrix(3, 2, seed=0)
        T = view(hss_from_matvecs_fresh(MatvecOracle.from_dense(A), MatvecConfig(3, 2, 8, seed=0)))
        self._assert_read_only([a for lf in T.levels for a in (lf.U, lf.V, lf.D)] + [T.root])

    def test_blr2(self):
        pattern = BLR2Pattern.tridiagonal(4, 4)
        A = random_blr2_matrix(pattern, 2, seed=1)
        F = blr2_from_matvecs(MatvecOracle.from_dense(A), pattern, 2, pattern.width_floor(2), seed=2)
        self._assert_read_only([F.U, F.V, F.X, F.D])

    def test_arrays_passed_in_stay_writable(self):
        U, D, root = np.zeros((2, 4, 2)), np.zeros((2, 4, 4)), np.eye(4)
        T = TelescopingFactorization((LevelFactors(U, U, D),), root)
        f = random_sss(1, 2, seed=3)
        arrays = [np.array(a) for a in (f.U, f.V, f.X, f.D)]
        BLR2Factorization(f.pattern, *arrays)
        assert all(a.flags.writeable for a in [U, D, root, *arrays])
        self._assert_read_only([T.levels[0].U, T.levels[0].D, T.root])


class TestValidate:
    @pytest.mark.parametrize("name", ["U", "V", "D"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_factor_rejected(self, name, value):
        T = random_telescoping(3, 2, RngStream(9).child("val"))
        T.validate()
        lf = T.levels[1]
        factors = {"U": lf.U.copy(), "V": lf.V.copy(), "D": lf.D.copy()}
        factors[name][0, 0, 0] = value
        levels = T.levels[:1] + (LevelFactors(**factors),) + T.levels[2:]
        with pytest.raises(ValueError, match=rf"^level 2 {name} blocks hold a non-finite entry"):
            TelescopingFactorization(levels, T.root).validate()


class TestValidateRanks:
    def test_reconstructed_factorization_passes(self):
        for seed in range(3):
            T = random_telescoping(3, 2, RngStream(seed).child("vr"))
            assert validate_hss_ranks(reconstruct_dense(T), 2, 1e-10)

    def test_hard_instance_fails_at_rank_one(self):
        A = hard_instance(4, 0.1)
        assert not validate_hss_ranks(A, 1, 1e-10)

    def test_zero_matrix_passes(self):
        assert validate_hss_ranks(np.zeros((16, 16)), 2, 1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            validate_hss_ranks(np.zeros((10, 10)), 2, 1e-10)

    @pytest.mark.parametrize("tol", [-1e-10, np.nan])
    def test_negative_or_nan_tol_rejected(self, tol):
        # A NaN tol would compare false against every singular value and
        # pass any matrix, the hard instance at rank one included.
        with pytest.raises(ValueError, match=rf"^tol must be non-negative, got {tol}$"):
            validate_hss_ranks(hard_instance(4, 0.1), 1, tol)

    def test_single_block_column_violation(self):
        # L = 2, k = 2: four level-2 blocks of side 4.  Below the diagonal,
        # block column 0 stacks three rank-one blocks a_i b_i^T, so every
        # block row has rank 1 <= k.  The column's rank is the dimension of
        # span{b_1, b_2, b_3}; at level 1 only blocks 2 and 3 are
        # off-diagonal, rank 2 <= k.  The one possible violation is the
        # level-2 block column, and only the column view can see it.
        rng = np.random.default_rng(3)
        for b3_independent in (True, False):
            A = block_diag(*rng.standard_normal((4, 4, 4)))
            a = rng.standard_normal((4, 4))
            b = rng.standard_normal((4, 4))
            if not b3_independent:
                b[3] = b[1] - 2.0 * b[2]
            for i in range(1, 4):
                A[4 * i : 4 * i + 4, :4] = np.outer(a[i], b[i])
            assert validate_hss_ranks(A, 2, 1e-10) is not b3_independent
            assert validate_hss_ranks(A.T, 2, 1e-10) is not b3_independent
