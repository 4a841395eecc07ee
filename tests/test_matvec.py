import itertools
import math

import numpy as np
import pytest

from hsskit import (
    CountingOracle,
    MatvecConfig,
    MatvecOracle,
    frobenius_error,
    hss_from_matvecs_fresh,
    hss_from_matvecs_reused,
    random_hss_matrix,
    reconstruct_dense,
    serialize,
    theorem_bounds,
)
from hsskit.experiment import run_cell

from helpers import MATVEC_FLOORS, reference_config_accepts


class TestTheoremBounds:
    def test_gamma_diag_closed_form(self):
        tb = theorem_bounds(s=40, k=8, L=3)
        assert abs(tb.gamma_diag - 16.0 / 23.0) <= 1e-15

    def test_gamma_row_formula(self):
        # (1 + 2 e (s - 2k) / sqrt((s - 3k)^2 - 1))^2 at s = 5k, k = 8
        tb = theorem_bounds(s=40, k=8, L=3)
        expected = (1.0 + 2.0 * math.e * 24.0 / math.sqrt(16.0**2 - 1.0)) ** 2
        assert abs(tb.gamma_row - expected) <= 1e-12 * expected
        assert tb.gamma_col == tb.gamma_row
        assert abs(expected - 84.10393457119775) <= 1e-10

    def test_overall_factor(self):
        tb = theorem_bounds(s=11, k=3, L=5)
        want = 2.0 * tb.gamma_row * (1.0 + tb.gamma_diag) * 5
        assert abs(tb.factor - want) <= 1e-12 * want

    def test_boundary_width_is_finite(self):
        for k in (1, 3, 8):
            tb = theorem_bounds(s=3 * k + 2, k=k, L=2)
            assert math.isfinite(tb.factor)
            # sqrt((s - 3k)^2 - 1) = sqrt(3) at the boundary
            expected = (1.0 + 2.0 * math.e * (k + 2) / math.sqrt(3.0)) ** 2
            assert abs(tb.gamma_row - expected) <= 1e-12 * expected

    def test_below_floor_rejected(self):
        with pytest.raises(ValueError):
            theorem_bounds(s=3 * 4 + 1, k=4, L=2)

    @pytest.mark.parametrize("k, L", [(8, 0), (8, -2), (0, 2)])
    def test_depth_or_rank_below_one_rejected(self, k, L):
        # A factor of 0 or below is a bound that no error can meet, and a
        # config with no level or no rank describes no build.
        for make in (lambda: theorem_bounds(s=34, k=k, L=L), lambda: MatvecConfig(L, k, 34, seed=0)):
            with pytest.raises(ValueError, match=rf"^need L >= 1 and k >= 1, got L={L}, k={k}$"):
                make()


class TestMatvecConfig:
    def test_fresh_floor(self):
        with pytest.raises(ValueError):
            MatvecConfig(L=3, k=4, s=13, seed=0)

    def test_fresh_requires_svd_basis(self):
        with pytest.raises(ValueError):
            MatvecConfig(L=3, k=2, s=8, seed=0, basis_method="pivoted-qr")

    def test_reused_floors(self):
        MatvecConfig(L=3, k=4, s=12, seed=0, basis_method="pivoted-qr", sketch_policy="reused")
        with pytest.raises(ValueError):
            MatvecConfig(L=3, k=4, s=11, seed=0, basis_method="pivoted-qr", sketch_policy="reused")
        with pytest.raises(ValueError):
            MatvecConfig(L=3, k=4, s=13, seed=0, sketch_policy="reused")

    @pytest.mark.parametrize("build, policy, other", [
        (hss_from_matvecs_fresh, "fresh", "reused"),
        (hss_from_matvecs_reused, "reused", "fresh"),
    ], ids=["fresh", "reused"])
    def test_driver_rejects_the_other_policy(self, build, policy, other):
        config = MatvecConfig(L=3, k=2, s=8, seed=0, sketch_policy=other)
        with pytest.raises(ValueError, match=rf"^config.sketch_policy must be '{policy}'$"):
            build(MatvecOracle.from_dense(np.eye(32)), config)

    def test_enum_validation(self):
        with pytest.raises(ValueError):
            MatvecConfig(L=3, k=2, s=8, seed=0, basis_method="qr")
        with pytest.raises(ValueError):
            MatvecConfig(L=3, k=2, s=8, seed=0, sketch_policy="cached")

    def test_dim(self):
        # The size rule is tree_levels': L = 4, k = 4 takes an oracle of dim 128 only.
        cfg = MatvecConfig(L=4, k=4, s=14, seed=0)
        assert hss_from_matvecs_fresh(MatvecOracle.from_dense(np.eye(128)), cfg).dim == 128
        for n in (64, 127, 256):
            with pytest.raises(ValueError, match=rf"^oracle dim {n} is not 2\*\*\(L\+1\) \* k for L=4, k=4$"):
                hss_from_matvecs_fresh(MatvecOracle.from_dense(np.eye(n)), cfg)

    @pytest.mark.parametrize("L", [1, 3])
    def test_accepts_what_the_reference_rule_accepts(self, L):
        for k, s, method, policy in itertools.product(
            range(1, 7), range(26), ("svd-pcps", "pivoted-qr"), ("fresh", "reused")
        ):
            try:
                MatvecConfig(L, k, s, 0, method, policy)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == reference_config_accepts(L, k, s, method, policy), (L, k, s, method, policy)


class TestFreshDriver:
    def test_exact_recovery(self):
        for L, k in [(3, 2), (4, 4)]:
            A = random_hss_matrix(L, k, seed=17)
            T = hss_from_matvecs_fresh(
                MatvecOracle.from_dense(A), MatvecConfig(L, k, 3 * k + 2, seed=0)
            )
            assert frobenius_error(A, T) <= 1e-9

    def test_query_count(self):
        L, k, s = 4, 4, 14
        A = random_hss_matrix(L, k, seed=18)
        o = CountingOracle(MatvecOracle.from_dense(A))
        hss_from_matvecs_fresh(o, MatvecConfig(L, k, s, seed=1))
        assert o.counter.forward_count == 2 * s * L + 2 * k
        assert o.counter.transpose_count == 2 * s * L
        assert o.counter.total == 4 * s * L + 2 * k  # 224 sketch + 8 probe = 232

    def test_deterministic(self):
        A = random_hss_matrix(3, 2, seed=19)
        cfg = MatvecConfig(3, 2, 8, seed=5)
        blobs = [
            serialize(hss_from_matvecs_fresh(MatvecOracle.from_dense(A), cfg))
            for _ in range(2)
        ]
        assert blobs[0] == blobs[1]

    def test_policy_and_dim_validation(self):
        A = random_hss_matrix(2, 2, seed=20)
        with pytest.raises(ValueError):
            hss_from_matvecs_fresh(
                MatvecOracle.from_dense(A),
                MatvecConfig(2, 2, 8, seed=0, sketch_policy="reused"),
            )
        with pytest.raises(ValueError):
            hss_from_matvecs_fresh(MatvecOracle.from_dense(A), MatvecConfig(3, 2, 8, seed=0))


class TestReusedDriver:
    def test_exact_recovery_both_bases(self):
        for L, k in [(3, 2), (4, 4)]:
            A = random_hss_matrix(L, k, seed=21 + L)
            for method in ("svd-pcps", "pivoted-qr"):
                cfg = MatvecConfig(L, k, 3 * k + 2, seed=2, basis_method=method, sketch_policy="reused")
                T = hss_from_matvecs_reused(MatvecOracle.from_dense(A), cfg)
                assert frobenius_error(A, T) <= 1e-9

    def test_query_count(self):
        L, k, s = 4, 4, 14
        A = random_hss_matrix(L, k, seed=22)
        o = CountingOracle(MatvecOracle.from_dense(A))
        hss_from_matvecs_reused(o, MatvecConfig(L, k, s, seed=3, sketch_policy="reused"))
        assert o.counter.total == 4 * s + 2 * k  # 64

    def test_top_level_factors_match_fresh(self):
        # Both drivers draw the same top-level sketches for the same seed and
        # process them identically, so the finest-level factors agree exactly.
        L, k, s, seed = 3, 2, 9, 7
        A = random_hss_matrix(L, k, seed=23)
        Tf = hss_from_matvecs_fresh(MatvecOracle.from_dense(A), MatvecConfig(L, k, s, seed))
        Tr = hss_from_matvecs_reused(
            MatvecOracle.from_dense(A), MatvecConfig(L, k, s, seed, sketch_policy="reused")
        )
        top_f, top_r = Tf.levels[-1], Tr.levels[-1]
        assert np.array_equal(top_f.U, top_r.U)
        assert np.array_equal(top_f.V, top_r.V)
        assert np.array_equal(top_f.D, top_r.D)

    def test_deterministic(self):
        A = random_hss_matrix(3, 2, seed=24)
        cfg = MatvecConfig(3, 2, 8, seed=6, sketch_policy="reused")
        blobs = [
            serialize(hss_from_matvecs_reused(MatvecOracle.from_dense(A), cfg))
            for _ in range(2)
        ]
        assert blobs[0] == blobs[1]


@pytest.mark.parametrize("algorithm", sorted(MATVEC_FLOORS))
class TestDegenerateAndExtremeScaleOperators:
    """Operators at the edges of the input space, through each matvec
    algorithm at its floor width, with L = 3 and k = 2 (n = 32)."""

    n, k = 32, 2

    def _build(self, algorithm, A):
        s = MATVEC_FLOORS[algorithm](self.k)
        return run_cell(algorithm, MatvecOracle.from_dense(A), self.k, s, seed=5)[0]

    def test_zero_operator_reconstructs_to_exact_zero(self, algorithm):
        assert not reconstruct_dense(self._build(algorithm, np.zeros((self.n, self.n)))).any()

    def test_rank_one_operator_recovered(self, algorithm):
        # Rank 1 < k: every sketch has k - 1 zero singular values.
        rng = np.random.default_rng(6)
        A = np.outer(rng.standard_normal(self.n), rng.standard_normal(self.n))
        assert frobenius_error(A, self._build(algorithm, A)) <= 1e-12

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_extreme_scale_keeps_relative_error(self, algorithm, scale):
        A = scale * random_hss_matrix(3, self.k, seed=7)
        assert frobenius_error(A, self._build(algorithm, A)) <= 1e-12
