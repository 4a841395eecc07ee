import numpy as np
import pytest

from hsskit import (
    MatvecOracle,
    RngStream,
    banded_inverse_oracle,
    bie_star_matrix,
    dense_from_oracle,
    frobenius_error,
    greedy_hss_explicit,
    grid_schur_oracle,
    hard_instance,
    random_hss_matrix,
    random_telescoping,
    reconstruct_dense,
    validate_hss_ranks,
)
from hsskit import testbed
from hsskit.testbed import make_problem, resolve_params

import helpers
from helpers import grid_schur_band, grid_schur_dense, random_banded_matrix


class TestHardInstance:
    def test_matches_hand_built_8x8(self):
        eye = np.eye(2)
        anti = np.array([[0.0, 1.1], [1.0, 0.0]])
        rows = [
            np.hstack([eye, eye, eye, anti]),
            np.hstack([eye, eye, anti, eye]),
            np.hstack([eye, anti, eye, eye]),
            np.hstack([anti, eye, eye, eye]),
        ]
        assert np.array_equal(hard_instance(2, 0.1), np.vstack(rows))

    @pytest.mark.parametrize("L", [1, 3, 6])
    @pytest.mark.parametrize("delta", [1e-9, 0.5, 0.999])
    def test_every_block_matches_the_definition(self, L, delta):
        # Block (i, j) is the exchange block [[0, 1 + delta], [1, 0]] where
        # i + j = 2**L - 1 (the block anti-diagonal) and the identity elsewhere.
        A = hard_instance(L, delta)
        blocks = 1 << L
        assert A.shape == (2 * blocks, 2 * blocks)
        for i in range(blocks):
            for j in range(blocks):
                want = [[0.0, 1.0 + delta], [1.0, 0.0]] if i + j == blocks - 1 else np.eye(2)
                assert np.array_equal(A[2 * i : 2 * i + 2, 2 * j : 2 * j + 2], want), (i, j)

    def test_squared_norm_closed_form(self):
        A = hard_instance(2, 0.1)
        # 12 identity blocks of energy 2 plus 4 anti-diagonal blocks of 1 + 1.21
        assert abs(np.linalg.norm(A) ** 2 - 32.84) <= 1e-12

    def test_reference_error_closed_form(self):
        A = hard_instance(2, 0.1)
        err2 = np.linalg.norm(A - 0.5 * np.ones_like(A)) ** 2
        # (2^{2L} - 2^L) + 2^L (1 + delta + delta^2) = 12 + 4.44
        assert abs(err2 - 16.44) <= 1e-12

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            hard_instance(0, 0.1)
        for delta in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                hard_instance(2, delta)


class TestRandomStructured:
    def test_random_telescoping_reconstruction_validates(self):
        T = random_telescoping(4, 2, RngStream(0).child("ts"))
        assert validate_hss_ranks(reconstruct_dense(T), 2, 1e-10)
        T.validate()  # orthonormality of every basis block

    def test_random_hss_matrix_is_seed_deterministic(self):
        assert np.array_equal(random_hss_matrix(3, 2, seed=5), random_hss_matrix(3, 2, seed=5))
        assert not np.array_equal(random_hss_matrix(3, 2, seed=5), random_hss_matrix(3, 2, seed=6))


class TestBandedInverse:
    def test_inverse_identity(self):
        n, bw, seed = 64, 9, 0
        oracle = banded_inverse_oracle(n, bw, seed)
        M = random_banded_matrix(n, bw, seed)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(n)
        assert np.abs(oracle.apply(M @ x) - x).max() <= 1e-10

    def test_symmetry(self):
        oracle = banded_inverse_oracle(32, 5, seed=2)
        x = np.random.default_rng(3).standard_normal((32, 2))
        assert np.abs(oracle.apply(x) - oracle.apply_transpose(x)).max() <= 1e-12

    def test_bandwidth_definition(self):
        M = random_banded_matrix(16, 5, seed=4)
        half = 2  # (bandwidth - 1) / 2
        for i in range(16):
            for j in range(16):
                if abs(i - j) > half:
                    assert M[i, j] == 0.0
        assert np.array_equal(M, M.T)

    def test_inverse_has_doubled_rank_structure(self):
        # With total bandwidth 2k + 1 the inverse passes rank-2k validation.
        n, k = 256, 4
        oracle = banded_inverse_oracle(n, 2 * k + 1, seed=5)
        A = dense_from_oracle(oracle)
        assert validate_hss_ranks(A, k=2 * k, tol=1e-8)

    # (n, bandwidth): n a multiple of the 32-row block (nine blocks, so an
    # odd count for the seam reductions), n = 1000 and n = 37 padded to one,
    # n below one block, h = 0, and a band wider than a block (h = 40, so
    # the block grows to 40 rows and n = 100 pads to 120).
    SOLVE_CASES = [(288, 17), (1000, 17), (37, 17), (20, 9), (64, 1), (37, 1), (100, 81)]

    @pytest.mark.parametrize("n,bw", SOLVE_CASES)
    @pytest.mark.parametrize("width", [None, 1, 16, 34, 128])  # None: a vector operand
    def test_matches_dense_solve(self, n, bw, width):
        """The blocked sweeps solve M y = x: agreement with a dense solve."""
        oracle = banded_inverse_oracle(n, bw, seed=6)
        rng = np.random.default_rng(n + bw)
        x = rng.standard_normal(n if width is None else (n, width))
        y = oracle.apply(x)
        want = np.linalg.solve(random_banded_matrix(n, bw, 6), x)
        assert y.shape == x.shape
        assert np.linalg.norm(y - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("n,bw", SOLVE_CASES)
    def test_transpose_and_rebuilt_oracle_reply_bit_equal(self, n, bw):
        x = np.random.default_rng(7).standard_normal((n, 5))
        oracle = banded_inverse_oracle(n, bw, seed=8)
        y = oracle.apply(x)
        assert np.array_equal(oracle.apply_transpose(x), y)
        assert y.tobytes() == banded_inverse_oracle(n, bw, seed=8).apply(x).tobytes()

    def test_band_that_is_not_positive_definite_raises(self, monkeypatch):
        # A negative diagonal entry at row 40 makes M indefinite: the block
        # Cholesky meets a non-positive pivot in the second block.
        arrays = testbed._banded_arrays

        def indefinite(n, bandwidth, seed):
            diag, offs = arrays(n, bandwidth, seed)
            diag[40] = -1.0
            return diag, offs

        monkeypatch.setattr(testbed, "_banded_arrays", indefinite)
        with pytest.raises(np.linalg.LinAlgError):
            banded_inverse_oracle(100, 17, seed=10)

    @pytest.mark.parametrize("n", [288, 1000])
    @pytest.mark.parametrize("margin", [1.0, 1e-3, 1e-6, 1e-9])
    def test_ill_conditioned_band_has_a_small_backward_error(self, n, margin, monkeypatch):
        # Every off-diagonal negative and each row sum equal to the margin:
        # M is diagonally dominant by the margin alone, and at 1e-9 its
        # condition number passes 1e10.
        arrays = testbed._banded_arrays

        def graded(n, bandwidth, seed):
            _, offs = arrays(n, bandwidth, seed)
            offs = [-np.abs(off) for off in offs]
            diag = np.full(n, margin)
            for d, off in enumerate(offs, start=1):
                diag[: n - d] -= off
                diag[d:] -= off
            return diag, offs

        monkeypatch.setattr(testbed, "_banded_arrays", graded)
        monkeypatch.setattr(helpers, "_banded_arrays", graded)
        oracle = banded_inverse_oracle(n, 17, seed=11)
        M = random_banded_matrix(n, 17, 11)
        eigs = np.linalg.eigvalsh(M)
        if margin == 1e-9:
            assert eigs[-1] / eigs[0] > 1e10
        rng = np.random.default_rng(n)
        for width in (1, 34):
            x = rng.standard_normal((n, width))
            y = oracle.apply(x)
            assert np.linalg.norm(M @ y - x) <= 1e-15 * eigs[-1] * np.linalg.norm(y)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            banded_inverse_oracle(64, 4, seed=0)  # even bandwidth
        with pytest.raises(ValueError):
            banded_inverse_oracle(2, 9, seed=0)


class TestGridSchur:
    def test_parameter_validation(self):
        with pytest.raises(ValueError, match=r"^need at least two grid rows, got 1$"):
            grid_schur_oracle(1)

    def test_annihilates_constants(self):
        oracle = grid_schur_oracle(64)
        A = dense_from_oracle(oracle)
        assert np.abs(A @ np.ones(64)).max() <= 1e-8 * np.linalg.norm(A)

    def test_symmetry(self):
        A = dense_from_oracle(grid_schur_oracle(64))
        assert np.abs(A - A.T).max() <= 1e-10

    def test_dimension(self):
        assert grid_schur_oracle(48).dim == 48

    def test_diagonal_dominance_of_sides_makes_operator_psd(self):
        A = dense_from_oracle(grid_schur_oracle(32))
        evals = np.linalg.eigvalsh(A)
        assert evals.min() >= -1e-10

    @pytest.mark.parametrize("n", range(2, 41))
    @pytest.mark.parametrize("direction", ["forward", "transpose"])
    def test_matches_dense_schur_complement(self, n, direction):
        """The cosine-basis spectrum gives the Schur complement of the whole
        grid, for odd and even n, on the identity and on 1-D, width-1 and
        width-300 operands."""
        S = grid_schur_dense(n)
        oracle = grid_schur_oracle(n)
        product = oracle.apply if direction == "forward" else oracle.apply_transpose
        rng = np.random.default_rng(n)
        for x in (np.eye(n), rng.standard_normal(n), rng.standard_normal((n, 1)),
                  rng.standard_normal((n, 300))):
            y, want = product(x), S @ x
            assert y.shape == x.shape
            assert np.linalg.norm(y - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("n", [1024, 1025, 4097])
    def test_matches_band_cholesky_reference(self, n):
        """Agreement with the Schur term from band solves on one side, at
        sizes too large for the dense reference."""
        x = np.random.default_rng(n).standard_normal((n, 8))
        want = grid_schur_band(n)(x)
        assert np.linalg.norm(grid_schur_oracle(n).apply(x) - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize(
    "oracle", [banded_inverse_oracle(32, 3, 0), grid_schur_oracle(32)], ids=["banded", "grid"]
)
@pytest.mark.parametrize("direction", ["forward", "transpose"])
def test_band_solve_oracle_reports_a_nan_operand_in_its_reply(oracle, direction):
    """Neither oracle scans its operand: the banded oracle's batched sweeps
    and the grid oracle's FFTs make no finite check.  A NaN operand still
    fails, at the oracle's own reply check, which then names the operand."""
    x = np.ones((32, 3))
    x[5, 1] = np.nan
    product = oracle.apply if direction == "forward" else oracle.apply_transpose
    with pytest.raises(
        ValueError, match=rf"^oracle {direction} operand of shape \(32, 3\) has non-finite entries$"
    ):
        product(x)


class TestBieStar:
    def test_parameter_validation(self):
        with pytest.raises(ValueError, match=r"^need at least two nodes, got 1$"):
            bie_star_matrix(1, 0.3, 5)

    def test_circle_row_sums_vanish(self):
        A = bie_star_matrix(256, 0.0, 5)
        assert np.abs(A @ np.ones(256)).max() <= 1e-8

    def test_dimension(self):
        assert bie_star_matrix(96, 0.3, 5).shape == (96, 96)

    def test_star_compressible_at_desk_scale(self):
        # The production-size star discretization admits an accurate rank-30
        # hierarchical approximation.
        A = bie_star_matrix(1920, 0.3, 5)
        T = greedy_hss_explicit(A, 5, 30)
        assert frobenius_error(A, T) <= 1e-3


class TestFrobeniusError:
    def test_exact_reconstruction_is_zero(self):
        A = random_hss_matrix(3, 2, seed=7)
        T = greedy_hss_explicit(A, 3, 2)
        assert frobenius_error(A, T) <= 1e-10

    def test_zero_approximation_is_one(self):
        A = np.diag([3.0, 4.0])
        assert abs(frobenius_error(A, np.zeros_like(A)) - 1.0) <= 1e-15

    def test_hard_reference_value(self):
        A = hard_instance(2, 0.1)
        err = frobenius_error(A, 0.5 * np.ones_like(A))
        assert abs(err - 0.7075372876381109) <= 1e-12

    def test_zero_norm_reference_rejected(self):
        with pytest.raises(ValueError):
            frobenius_error(np.zeros((4, 4)), np.zeros((4, 4)))

    def test_dense_shape_mismatch_rejected(self):
        # A (1, n) approximation would broadcast against A and read 1.0.
        A = np.diag([3.0, 4.0, 5.0])
        for approx in (np.zeros((1, 3)), np.zeros((3, 1)), np.zeros((2, 2))):
            with pytest.raises(ValueError, match=r"\(3, 3\)") as info:
                frobenius_error(A, approx)
            assert str(approx.shape) in str(info.value)

    def test_scale_invariant(self):
        A = np.linalg.inv(random_banded_matrix(256, 17, 0))
        B = reconstruct_dense(greedy_hss_explicit(A, 4, 8))
        err = frobenius_error(A, B)
        for scale in (2.0**700, 2.0**-700):
            assert frobenius_error(scale * A, scale * B) == err
        for scale in (1e200, 1e-200, 1e300, 1e-300):
            assert abs(frobenius_error(scale * A, scale * B) - err) <= 1e-14

    def test_accepts_oracle_extracted_matrix(self):
        A = random_hss_matrix(2, 2, seed=8)
        o = MatvecOracle.from_dense(A)
        assert frobenius_error(dense_from_oracle(o), A) == 0.0


class TestRegistry:
    def test_banded_bandwidth_defaults_to_2k_plus_1(self):
        assert resolve_params("banded", {"n": 64}) == {"n": 64, "k": 8, "bandwidth": 17, "seed": 0}
        assert resolve_params("banded", {"n": "64", "k": "4"})["bandwidth"] == 9
        assert resolve_params("banded", {"n": 64, "k": 4, "bandwidth": 5})["bandwidth"] == 5

    def test_strings_are_parsed_to_the_parameter_types(self):
        params = resolve_params("bie", {"n": "32", "amplitude": "0.25"})
        assert params == {"n": 32, "amplitude": 0.25, "arms": 5}
        assert isinstance(params["amplitude"], float)

    @pytest.mark.parametrize(
        "family, given",
        [("banded", {"n": 8}), ("grid", {"n": 1}), ("bie", {"n": 1}), ("hard", {"n": 24}),
         ("hss", {"n": 100, "k": 8}), ("hss", {"n": 16, "k": 8})],
    )
    def test_non_conforming_n_is_named(self, family, given):
        with pytest.raises(ValueError, match=rf"^{family} needs .*, got n={given['n']}$"):
            resolve_params(family, given)

    def test_missing_and_unknown_names_rejected(self):
        with pytest.raises(ValueError, match="grid needs parameter 'n'"):
            resolve_params("grid", {})
        with pytest.raises(ValueError, match="unknown problem family 'band'"):
            resolve_params("band", {"n": 8})
        with pytest.raises(ValueError, match="hard has no parameter 'seed'; it takes n, delta"):
            resolve_params("hard", {"n": 8, "seed": 1})

    def test_dense_matrix_only_on_request_for_oracle_families(self):
        oracle, A = make_problem("grid", {"n": 8})
        assert A is None
        _, A = make_problem("grid", {"n": 8}, dense=True)
        assert np.array_equal(A, dense_from_oracle(oracle))
        _, A = make_problem("hard", {})
        assert np.array_equal(A, hard_instance(4, 0.1))
