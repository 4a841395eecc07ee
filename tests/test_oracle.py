import gc
import weakref

import numpy as np
import pytest
from scipy.linalg import block_diag

from hsskit import (
    CountingOracle,
    MatvecConfig,
    MatvecOracle,
    QueryCounter,
    RngStream,
    compress_oracle,
    dense_from_oracle,
    gaussian,
    hss_from_matvecs_fresh,
    oracle_from_factorization,
    random_hss_matrix,
    random_telescoping,
    reconstruct_dense,
    sss_step_explicit,
)
from hsskit import oracle as oracle_module
from hsskit.structures import block_apply_t


class TestMatvecOracle:
    def test_linearity(self):
        A = np.random.default_rng(0).standard_normal((16, 16))
        o = MatvecOracle.from_dense(A)
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal((16, 2)), rng.standard_normal((16, 2))
        lhs = o.apply(2.0 * x - 3.0 * y)
        rhs = 2.0 * o.apply(x) - 3.0 * o.apply(y)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_adjoint_consistency(self):
        A = np.random.default_rng(2).standard_normal((12, 12))
        o = MatvecOracle.from_dense(A)
        x = np.random.default_rng(3).standard_normal(12)
        y = np.random.default_rng(4).standard_normal(12)
        lhs = float(o.apply(x) @ y)
        rhs = float(x @ o.apply_transpose(y))
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    def test_operand_validation(self):
        o = MatvecOracle.from_dense(np.eye(4))
        with pytest.raises(ValueError):
            o.apply(np.zeros(5))
        with pytest.raises(ValueError):
            MatvecOracle.from_dense(np.zeros((3, 4)))

    @pytest.mark.parametrize("dim", [0, -3])
    def test_dim_below_one_rejected(self, dim):
        with pytest.raises(ValueError, match=rf"^dim must be positive, got {dim}$"):
            MatvecOracle(dim, lambda x: x, lambda x: x)

    @pytest.mark.parametrize("dim", [16.5, 4.0, "4"])
    def test_non_integral_dim_rejected(self, dim):
        with pytest.raises(ValueError, match=rf"^dim must be an integer, got {dim!r}$"):
            MatvecOracle(dim, lambda x: x, lambda x: x)

    def test_numpy_integer_dim_accepted(self):
        o = MatvecOracle(np.int64(3), lambda x: 2 * x, lambda x: 3 * x)
        assert o.dim == 3
        assert np.array_equal(o.apply(np.ones(3)), np.full(3, 2.0))
        assert np.array_equal(o.T.apply(np.ones(3)), np.full(3, 3.0))

    def test_factorization_backed_oracle(self):
        T = random_telescoping(3, 2, RngStream(9).child("oracle"))
        o = oracle_from_factorization(T)
        dense = reconstruct_dense(T)
        x = np.random.default_rng(5).standard_normal(T.dim)
        assert np.linalg.norm(o.apply(x) - dense @ x) <= 1e-12 * np.linalg.norm(dense @ x)


class TestReplyChecks:
    """A user's products are checked where they reply, at every level of a
    build; the error names the product relative to A and both shapes.  The
    build's sketches are (32, 8)."""

    @staticmethod
    def _build(fwd, tr):
        A = random_hss_matrix(3, 2, seed=11)
        o = MatvecOracle(32, lambda x: fwd(A @ x), lambda x: tr(A.T @ x))
        return hss_from_matvecs_fresh(o, MatvecConfig(3, 2, 8, seed=0))

    def test_nan_forward_reply(self):
        with pytest.raises(
            ValueError, match=r"^oracle forward reply of shape \(32, 8\) has non-finite entries$"
        ):
            self._build(lambda y: np.full_like(y, np.nan), lambda y: y)

    def test_nan_transpose_reply_at_a_coarse_level(self):
        calls = []

        def tr(y):
            # Level L makes the first two transpose calls; the third comes
            # through the compressed operator of level L - 1.
            calls.append(y.shape)
            return y if len(calls) <= 2 else np.full_like(y, np.nan)

        with pytest.raises(
            ValueError, match=r"^oracle transpose reply of shape \(32, 8\) has non-finite entries$"
        ):
            self._build(lambda y: y, tr)
        assert len(calls) == 3

    def test_short_reply(self):
        with pytest.raises(
            ValueError, match=r"^oracle forward reply has shape \(31, 8\), expected \(32, 8\)$"
        ):
            self._build(lambda y: y[:-1], lambda y: y)

    def test_one_d_reply(self):
        with pytest.raises(
            ValueError, match=r"^oracle transpose reply has shape \(32,\), expected \(32, 8\)$"
        ):
            self._build(lambda y: y, lambda y: y[:, 0])

    def test_reply_of_a_wrapped_oracle(self):
        inner = MatvecOracle(4, lambda x: x[:-1], lambda x: x)
        outer = CountingOracle(MatvecOracle(4, inner.apply, inner.apply_transpose))
        with pytest.raises(
            ValueError, match=r"^oracle forward reply has shape \(3, 2\), expected \(4, 2\)$"
        ):
            outer.apply(np.ones((4, 2)))

    @pytest.mark.parametrize("view", ["o.T", "CountingOracle(o)", "CountingOracle(o).T"])
    def test_a_view_calls_and_checks_each_reply_once(self, view, monkeypatch):
        # Every oracle sets its products in MatvecOracle.__init__, where a
        # product of another oracle goes in unwrapped: a view of o adds no
        # second product call and no second reply check, and a counting view
        # charges the direction of o's product that it calls.
        checks, made, nan = [], [], [False]
        as_real = oracle_module._as_real
        monkeypatch.setattr(
            oracle_module, "_as_real", lambda a, name: checks.append(name) or as_real(a, name)
        )

        def product(direction):
            def call(x):
                made.append(direction)
                return np.full_like(x, np.nan) if nan[0] else 2.0 * x

            return call

        o = MatvecOracle(4, product("forward"), product("transpose"))
        counted = CountingOracle(o)
        v, counter = {
            "o.T": (o.T, None),
            "CountingOracle(o)": (counted, counted.counter),
            "CountingOracle(o).T": (counted.T, counted.counter),
        }[view]
        directions = ("transpose", "forward") if view.endswith(".T") else ("forward", "transpose")
        x = np.ones((4, 3))
        for method, direction in zip((v.apply, v.apply_transpose), directions):
            for reply_is_nan in (False, True):
                made.clear()
                checks.clear()
                nan[0] = reply_is_nan
                before = None if counter is None else (counter.forward_count, counter.transpose_count)
                if reply_is_nan:
                    with pytest.raises(
                        ValueError, match=rf"^oracle {direction} reply of shape \(4, 3\) has non-finite entries$"
                    ):
                        method(x)
                else:
                    assert np.array_equal(method(x), 2.0 * x)
                assert made == [direction] and checks == [f"oracle {direction} reply"]
                if counter is not None:
                    charged = (counter.forward_count - before[0], counter.transpose_count - before[1])
                    assert charged == {"forward": (3, 0), "transpose": (0, 3)}[direction]


class TestQueryCounting:
    def test_width_accounting(self):
        o = CountingOracle(MatvecOracle.from_dense(np.eye(8)))
        o.apply(np.zeros(8))
        o.apply(np.zeros((8, 5)))
        o.apply_transpose(np.zeros((8, 3)))
        assert o.counter.forward_count == 6
        assert o.counter.transpose_count == 3
        assert o.counter.total == 9

    def test_counts_accumulate_from_zero(self):
        counter = QueryCounter()
        assert counter.total == 0
        counter.add_forward(4)
        counter.add_transpose(2)
        counter.add_forward(1)
        assert (counter.forward_count, counter.transpose_count) == (5, 2)
        assert counter.total == 7


class TestDenseFromOracle:
    def test_identity(self):
        assert np.array_equal(dense_from_oracle(MatvecOracle.from_dense(np.eye(4))), np.eye(4))

    def test_probing_is_exact(self):
        M = np.random.default_rng(6).standard_normal((10, 10))
        assert np.array_equal(dense_from_oracle(MatvecOracle.from_dense(M)), M)

    def test_query_cost(self):
        o = CountingOracle(MatvecOracle.from_dense(np.eye(11)))
        dense_from_oracle(o)
        assert o.counter.forward_count == 11
        assert o.counter.transpose_count == 0


def _chain(o, levels):
    """The compressed-operator oracle after the given levels, finest first."""
    for lf in levels:
        o = compress_oracle(o, lf)
    return o


class TestLevelApply:
    def test_empty_recursion_is_direct_apply(self):
        A = np.random.default_rng(7).standard_normal((16, 16))
        o = MatvecOracle.from_dense(A)
        omega = gaussian(16, 3, RngStream(0).child("la"))
        assert np.array_equal(_chain(o, []).apply(omega), A @ omega)

    def test_one_level_matches_dense_formula(self):
        A = random_hss_matrix(3, 2, seed=1)
        factors, _ = sss_step_explicit(A, 2)
        o = MatvecOracle.from_dense(A)
        omega = gaussian(16, 4, RngStream(1).child("la"))
        got = compress_oracle(o, factors).apply(omega)
        compressed = block_apply_t(factors.U, A - block_diag(*factors.D))
        compressed = block_apply_t(factors.V, compressed.T).T
        want = compressed @ omega
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_reproduces_compressed_matrix_at_all_levels(self):
        L, k = 4, 2
        A = random_hss_matrix(L, k, seed=2)
        o = MatvecOracle.from_dense(A)
        levels = []
        current = A
        for _ in range(L):
            factors, current = sss_step_explicit(current, k)
            levels.append(factors)
            probe = _chain(o, levels).apply(np.eye(current.shape[0]))
            assert np.linalg.norm(probe - current) <= 1e-10 * np.linalg.norm(current)

    def test_a_dropped_view_is_freed_without_the_cycle_collector(self):
        # An oracle holds its own products weakly, so a build leaves no
        # level's view, and no nested bases, for the collector to find.
        A = random_hss_matrix(3, 2, seed=4)
        o = MatvecOracle.from_dense(A)
        factors, _ = sss_step_explicit(A, 2)
        gc.collect()
        gc.disable()
        try:
            views = [CountingOracle(o), CountingOracle(o).T, compress_oracle(CountingOracle(o), factors)]
            views.append(compress_oracle(views[-1], sss_step_explicit(views[-1].apply(np.eye(16)), 2)[0]))
            views[-1].apply_transpose(np.ones(8))
            alive = [weakref.ref(v) for v in views]
            del views
            assert [r() for r in alive] == [None] * 4
            before = [x for x in gc.get_objects() if isinstance(x, MatvecOracle)]
            hss_from_matvecs_fresh(CountingOracle(o), MatvecConfig(3, 2, 8, seed=0))
            after = [x for x in gc.get_objects() if isinstance(x, MatvecOracle)]
            assert [x for x in after if not any(x is y for y in before)] == []
        finally:
            gc.enable()

    def test_adjoint_identity(self):
        A = random_hss_matrix(3, 2, seed=3)
        factors, _ = sss_step_explicit(A, 2)
        o = MatvecOracle.from_dense(A)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((16, 1))
        y = rng.standard_normal((16, 1))
        compressed = compress_oracle(o, factors)
        lhs = (x.T @ compressed.apply(y)).item()
        rhs = (compressed.apply_transpose(x).T @ y).item()
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    def test_each_column_costs_one_query(self):
        A = random_hss_matrix(3, 2, seed=4)
        factors, _ = sss_step_explicit(A, 2)
        o = CountingOracle(MatvecOracle.from_dense(A))
        compressed = compress_oracle(o, factors)
        compressed.apply(np.zeros((16, 7)))
        assert o.counter.forward_count == 7
        compressed.apply_transpose(np.zeros((16, 5)))
        assert o.counter.transpose_count == 5

    def test_vector_operand_gets_a_vector_reply_at_every_depth(self):
        L, k = 3, 2
        T = random_telescoping(L, k, RngStream(9).child("vec"))
        o = MatvecOracle.from_dense(reconstruct_dense(T))
        for lf in reversed(T.levels):
            o = compress_oracle(o, lf)
            x = np.arange(o.dim, dtype=float)
            for product in (o.apply, o.apply_transpose):
                y = product(x)
                assert y.shape == (o.dim,)
                assert np.array_equal(y, product(x[:, None])[:, 0])

    def test_level_of_another_dim_is_rejected_at_construction(self):
        A = random_hss_matrix(2, 4, seed=5)
        factors, _ = sss_step_explicit(A, 4)
        o = CountingOracle(MatvecOracle.from_dense(np.eye(24)))
        with pytest.raises(ValueError, match=r"dim 32, but the oracle it compresses has dim 24$"):
            compress_oracle(o, factors)
        assert o.counter.total == 0

    def test_nested_level_of_another_dim_is_rejected_at_construction(self):
        A = random_hss_matrix(3, 2, seed=5)
        factors, _ = sss_step_explicit(A, 2)
        compressed = compress_oracle(MatvecOracle.from_dense(A), factors)
        with pytest.raises(ValueError, match=r"dim 32, but the oracle it compresses has dim 16$"):
            compress_oracle(compressed, factors)

    def test_dimension_mismatch(self):
        A = random_hss_matrix(2, 2, seed=5)
        factors, _ = sss_step_explicit(A, 2)
        o = MatvecOracle.from_dense(A)
        with pytest.raises(ValueError):
            compress_oracle(o, factors).apply(np.zeros((7, 2)))
