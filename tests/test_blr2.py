import gc
import weakref

import numpy as np
import pytest

from hsskit import (
    BLR2Factorization,
    BLR2Pattern,
    CountingOracle,
    MatvecConfig,
    MatvecOracle,
    RngStream,
    blr2_apply,
    blr2_factors_from_sketches,
    blr2_from_matvecs,
    blr2_reconstruct,
    frobenius_error,
    gaussian,
    hss_from_matvecs_fresh,
    hss_from_matvecs_reused,
    nullspace_basis,
    random_blr2_matrix,
)

from hsskit import blr2, sketching, structures

import helpers
from helpers import nullify_rows, pattern_row, per_side_step, reference_width_floor, side_stacks


ROLES = ("omega", "psi", "omega-diag", "psi-diag")


def _outside(pattern, hit):
    """Block indices of a row or column that the pattern does not hit."""
    return tuple(j for j in range(pattern.block_count) if j not in hit)


def _rho(A, pattern, i):
    """Admissible part of block row i (brute-force slicer)."""
    m = pattern.block_size
    cols = _outside(pattern, pattern_row(pattern, i))
    return np.hstack([A[i * m : (i + 1) * m, j * m : (j + 1) * m] for j in cols])


def _implicit_gaussian(omega, pattern, P, kept):
    """Admissible blocks of a test matrix times the nullspace basis P."""
    m = pattern.block_size
    return np.vstack([omega[j * m : (j + 1) * m] for j in kept]) @ P


class TestPattern:
    def test_diagonal(self):
        pat = BLR2Pattern.diagonal(4, 3)
        assert pat.max_blocks_per_line == 1
        assert pat.line_columns == 3
        assert pattern_row(pat, 2) == (2,)
        assert pattern_row(pat.T, 2) == (2,)
        assert _outside(pat, pattern_row(pat, 2)) == (0, 1, 3)
        assert pat.width_floor(2) == 3 + 2 + 2

    def test_tridiagonal(self):
        pat = BLR2Pattern.tridiagonal(8, 4)
        assert pat.max_blocks_per_line == 3
        assert pat.line_columns == 3 * 4
        assert pattern_row(pat, 0) == (0, 1)
        assert pattern_row(pat, 3) == (2, 3, 4)
        assert pattern_row(pat.T, 7) == (6, 7)
        assert pat.width_floor(2) == 3 * 4 + 2 + 2

    @pytest.mark.parametrize("b", [1, 2, 5])
    def test_tridiagonal_pairs_match_brute_force(self, b):
        brute = {(i, j) for i in range(b) for j in range(b) if abs(i - j) <= 1}
        assert BLR2Pattern.tridiagonal(b, 3).pairs == brute

    def test_out_of_range_pairs_rejected(self):
        with pytest.raises(ValueError):
            BLR2Pattern(3, 2, frozenset({(0, 3)}))

    @pytest.mark.parametrize("b, m", [(0, 4), (4, 0), (-1, 4)])
    def test_block_count_or_size_below_one_rejected(self, b, m):
        with pytest.raises(ValueError, match=r"^block_count and block_size must be positive$"):
            BLR2Pattern(b, m)

    @pytest.mark.parametrize("b, m, name", [(4, 2.5, "block_size"), (2.5, 4, "block_count"), (4.0, 2, "block_count")])
    def test_non_integral_block_count_or_size_rejected(self, b, m, name):
        value = b if name == "block_count" else m
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value}$"):
            BLR2Pattern(b, m)

    def test_numpy_integer_sizes_accepted(self):
        pat = BLR2Pattern(np.int64(4), np.int32(2), frozenset({(0, 0)}))
        assert pat.dim == 8
        assert pat == BLR2Pattern(4, 2, frozenset({(0, 0)}))

    def test_diagonal_is_built_once_per_shape(self):
        pat = BLR2Pattern.diagonal(8, 4)
        assert BLR2Pattern.diagonal(8, 4) is pat
        assert BLR2Pattern.diagonal(8, 2) is not pat

    def test_symmetric_pattern_is_its_own_transpose(self):
        pat = BLR2Pattern.diagonal(8, 4)
        assert pat.T is pat
        tri = BLR2Pattern.tridiagonal(6, 2)
        assert tri.T is tri
        assert tri.T.pairs == BLR2Pattern.tridiagonal(6, 2).pairs

    def test_asymmetric_pattern_transposes_its_pairs(self):
        pat = BLR2Pattern(3, 2, frozenset({(0, 0), (0, 2), (1, 1)}))
        assert pat.T is not pat
        assert pat.T is pat.T
        assert pat.T.pairs == {(0, 0), (2, 0), (1, 1)}
        assert pat.T.T.pairs == pat.pairs


class TestBlr2BlockNullify:
    def test_diagonal_pattern_reduces_to_plain_nullification(self):
        pat = BLR2Pattern.diagonal(4, 4)
        omega = gaussian(16, 10, RngStream(0).child("b2"))
        Y = gaussian(16, 10, RngStream(0).child("b2y"))
        rows = nullify_rows(pat, omega, Y)
        for i in range(4):
            P_pat, sketch = rows[i]
            P_plain = nullspace_basis(omega[4 * i : 4 * i + 4])
            assert np.array_equal(P_pat, P_plain)
            assert np.array_equal(sketch, Y[4 * i : 4 * i + 4] @ P_plain)

    def test_tridiagonal_dimensions(self):
        pat = BLR2Pattern.tridiagonal(8, 4)
        s = 16  # 3 * 4 + 2 + 2 with k = 2
        omega = gaussian(pat.dim, s, RngStream(1).child("b2"))
        rows = nullify_rows(pat, omega, np.zeros_like(omega))
        for i in range(8):
            P, sketch = rows[i]
            hit = len(pattern_row(pat, i)) * 4
            assert P.shape == (s, s - hit)
            assert P.shape[1] >= s - pat.max_blocks_per_line * 4
            assert sketch.shape == (4, s - hit)

    def test_implicit_sketch_identity(self):
        pat = BLR2Pattern.tridiagonal(8, 4)
        rng = np.random.default_rng(2)
        A = rng.standard_normal((32, 32))
        omega = gaussian(32, 16, RngStream(3).child("b2"))
        Y = A @ omega
        m = pat.block_size
        rows = nullify_rows(pat, omega, Y)
        for i in range(8):
            P, got = rows[i]
            G = _implicit_gaussian(omega, pat, P, _outside(pat, pattern_row(pat, i)))
            assert np.abs(got - _rho(A, pat, i) @ G).max() <= 1e-11

    def test_column_side(self):
        pat = BLR2Pattern.tridiagonal(4, 2)
        rng = np.random.default_rng(4)
        A = rng.standard_normal((8, 8))
        psi = gaussian(8, 8, RngStream(5).child("b2"))
        Z = A.T @ psi
        m = 2
        cols = nullify_rows(pat.T, psi, Z)
        for j in range(4):
            Q, got = cols[j]
            rows = _outside(pat, pattern_row(pat.T, j))
            H = _implicit_gaussian(psi, pat, Q, rows)
            gamma = np.vstack([A[i * m : (i + 1) * m, j * m : (j + 1) * m] for i in rows])
            assert np.abs(got - gamma.T @ H).max() <= 1e-11

    def test_a_group_of_every_row_reads_block_views(self):
        """An index of consecutive blocks in order, as the diagonal
        pattern's group and each of its chunks are, reads its blocks as a
        view of the (b, m, s) stack; the tridiagonal pattern's two-block
        rows and the anti-diagonal pattern's hits, blocks out of order,
        gather copies.  All read the same values as fancy indexing."""
        stack = np.arange(5 * 3 * 4, dtype=float).reshape(5, 3, 4)
        anti = BLR2Pattern(5, 3, frozenset((i, 4 - i) for i in range(5)))
        tri = BLR2Pattern.tridiagonal(5, 3)
        (diag_members, diag_hits, _), = BLR2Pattern.diagonal(5, 3)._row_groups
        (ends, ends_hits, _), (middle, middle_hits, _) = tri._row_groups
        (anti_members, anti_hits, _), = anti._row_groups
        cases = [(diag_members, True), (diag_hits, True), (diag_members[1:4], True),
                 (diag_hits[3:], True), (ends, False), (ends_hits, False), (middle, True),
                 (middle_hits, False), (anti_members, True), (anti_hits, False)]
        for index, view in cases:
            selector = blr2._selector(index)
            assert isinstance(selector, slice) == view
            got = stack[selector].reshape(index.shape + stack.shape[1:])
            assert np.shares_memory(got, stack) == view
            assert np.array_equal(got, stack[index])


def _superdiagonal(b, m):
    """Diagonal plus superdiagonal: not symmetric, and its first row and
    its last column hold one block where the others hold two."""
    return BLR2Pattern(b, m, frozenset([(i, i) for i in range(b)] + [(i, i + 1) for i in range(b - 1)]))


STEP_PATTERNS = {
    "diagonal": BLR2Pattern.diagonal(8, 4),
    "tridiagonal": BLR2Pattern.tridiagonal(8, 4),
    "superdiagonal": _superdiagonal(8, 4),
    "empty": BLR2Pattern(8, 4),
}


# Patterns with m = 6 and the sketch width over the floor for k = 2: the
# diagonal one's rows have h m + m <= s, the others' rows with three
# (tridiagonal) or two (superdiagonal) pattern blocks h m + m > s, where
# the nullified sketch has rank s - h m < m.  Rows of both shapes take the
# nullified factor; the test compares them with the forced explicit route.
SIDED_ROUTES = {
    "diagonal": (BLR2Pattern.diagonal(8, 6), 2),
    "tridiagonal": (BLR2Pattern.tridiagonal(8, 6), 0),
    "superdiagonal": (_superdiagonal(8, 6), 0),
}


class TestTwoSidedStep:
    """The step runs the block rows of the pattern and of its transpose as
    one stack per group and chunk."""

    @pytest.mark.parametrize("method", ["svd-pcps", "pivoted-qr"])
    @pytest.mark.parametrize("name", list(STEP_PATTERNS))
    def test_matches_the_per_side_step_byte_for_byte(self, name, method, monkeypatch):
        pat, k = STEP_PATTERNS[name], 2
        s = pat.width_floor(k, method) + 1
        A = np.random.default_rng(40).standard_normal((pat.dim, pat.dim))
        omega, psi, od, pd = (gaussian(pat.dim, s, RngStream(41).child(role)) for role in ROLES)
        sketches = (omega, psi, od, pd, A @ omega, A.T @ psi, A @ od, A.T @ pd)
        want = per_side_step(pat, k, *sketches, basis_method=method)
        whole = blr2_factors_from_sketches(pat, k, *side_stacks(*sketches), basis_method=method)
        # Chunks of 5 rows: every pattern here has a group that splits
        # inside each side, so more chunks than groups hold rows of a side.
        monkeypatch.setattr(structures, "PANEL_BYTES", 5 * 8 * s * s)
        b = pat.block_count
        for side in (0, 1):
            groups = sum(bool(((members < b) != side).any()) for members, _, _ in pat._step_groups)
            chunks = sum(bool(((np.arange(2 * b)[rows] < b) != side).any()) for rows, _, _ in blr2._chunks(pat, s))
            assert chunks > groups
        split = blr2_factors_from_sketches(pat, k, *side_stacks(*sketches), basis_method=method)
        for got in (whole, split):
            for array, expected in zip(got, want):
                assert array.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", ["alternate", "empty"])
    def test_rows_with_no_pattern_blocks_keep_the_complete_qr_bytes(self, name, monkeypatch):
        # A row with no pattern blocks hands the basis kernel its image
        # blocks as they are: no nullification kernel sees an omega with no
        # rows, so no product with an identity is formed.  The output is
        # the bytes of per_side_step, which still nullifies such a row, for
        # the pivoted-QR basis by the identity from a complete QR of an
        # (s, 0) stack.  The alternate pattern holds every other diagonal
        # block.
        alternate = BLR2Pattern(8, 4, frozenset((i, i) for i in range(0, 8, 2)))
        pat, k = alternate if name == "alternate" else STEP_PATTERNS[name], 2
        A = np.random.default_rng(48).standard_normal((pat.dim, pat.dim))
        plain = helpers.nullspace_basis

        def complete_qr(omega):
            if omega.shape[1]:
                return plain(omega)
            return np.linalg.qr(omega.transpose(0, 2, 1), mode="complete")[0]

        for method in ("svd-pcps", "pivoted-qr"):
            s = pat.width_floor(k, method) + 1
            omega, psi, od, pd = (gaussian(pat.dim, s, RngStream(49).child(role)) for role in ROLES)
            sketches = (omega, psi, od, pd, A @ omega, A.T @ psi, A @ od, A.T @ pd)
            omega_rows = []
            for kernel in ("nullified_factor", "nullspace_basis"):
                step_kernel = getattr(blr2, kernel)
                monkeypatch.setattr(
                    blr2, kernel, lambda *a, _k=step_kernel: omega_rows.append(a[-1].shape[1]) or _k(*a)
                )
            got = blr2_factors_from_sketches(pat, k, *side_stacks(*sketches), basis_method=method)
            assert omega_rows == ([] if name == "empty" else [4])
            monkeypatch.undo()
            monkeypatch.setattr(helpers, "nullspace_basis", complete_qr)
            want = per_side_step(pat, k, *sketches, basis_method=method)
            monkeypatch.undo()
            for array, expected in zip(got, want):
                assert array.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", SIDED_ROUTES)
    def test_svd_bases_match_the_explicit_nullspace_route(self, name, monkeypatch):
        # The nullified-factor route of the SVD basis gives the bases and
        # remainder of the route through Y @ nullspace_basis, to rounding.
        (pat, extra), k = SIDED_ROUTES[name], 2
        s = pat.width_floor(k) + extra
        routes = {h * pat.block_size + pat.block_size <= s for _, hits, _ in pat._step_groups
                  for h in hits.shape[1:]}
        assert routes == ({True} if name == "diagonal" else {True, False})
        A = random_blr2_matrix(pat, k, seed=50)
        args = _side_args(pat, A, s, 51)
        got = blr2_factors_from_sketches(pat, k, *args)
        explicit = sketching.BASIS_METHODS["svd-pcps"]._replace(rotation_free=False)
        monkeypatch.setitem(sketching.BASIS_METHODS, "svd-pcps", explicit)
        want = blr2_factors_from_sketches(pat, k, *args)
        for basis, expected in zip(got[:2], want[:2]):
            projectors = basis @ basis.transpose(0, 2, 1) - expected @ expected.transpose(0, 2, 1)
            assert np.abs(projectors).max() <= 1e-10
        assert np.linalg.norm(got[2] - want[2]) <= 1e-10 * np.linalg.norm(want[2])

    @pytest.mark.parametrize("policy, method", [("fresh", "svd-pcps"), ("reused", "pivoted-qr")])
    def test_one_kernel_call_per_level(self, policy, method, monkeypatch):
        calls = []

        def record(module, name):
            kernel = getattr(module, name)
            monkeypatch.setattr(module, name, lambda x, *rest: calls.append((name, len(x))) or kernel(x, *rest))

        basis = {"svd-pcps": "truncated_svd_left", "pivoted-qr": "pivoted_qr_basis"}[method]
        # The SVD basis reads the nullified sketch off nullified_factor.
        nullify = "nullified_factor" if sketching.BASIS_METHODS[method].rotation_free else "nullspace_basis"
        for module, name in ((blr2, nullify), (sketching, basis), (blr2, "right_pinv_apply")):
            record(module, name)
        level, k = 3, 2
        A = np.random.default_rng(42).standard_normal((16 * k, 16 * k))
        build = hss_from_matvecs_fresh if policy == "fresh" else hss_from_matvecs_reused
        build(MatvecOracle.from_dense(A), MatvecConfig(level, k, 3 * k + 2, 43, method, policy))
        # Level l has 2**l block rows and as many block columns.
        assert calls == [(name, 2 << l) for l in (3, 2, 1)
                         for name in (nullify, basis, "right_pinv_apply")]


SIDED_PATTERNS = ("diagonal", "tridiagonal", "superdiagonal")


def _side_args(pat, A, s, seed):
    """The step's four (2, dim, s) arguments for A: side 0 sketches A, side 1 A^T."""
    omega, psi, od, pd = (gaussian(pat.dim, s, RngStream(seed).child(role)) for role in ROLES)
    return side_stacks(omega, psi, od, pd, A @ omega, A.T @ psi, A @ od, A.T @ pd)


class TestSideAxis:
    """Side 0 of every step array sketches A and holds U, side 1 sketches
    A^T and holds V: swapping the sides is the step on A^T."""

    @pytest.mark.parametrize("method", ["svd-pcps", "pivoted-qr"])
    @pytest.mark.parametrize("name", SIDED_PATTERNS)
    def test_swapped_sides_on_the_transposed_pattern_swap_the_bases(self, name, method):
        pat, k = STEP_PATTERNS[name], 2
        s = pat.width_floor(k, method) + 1
        A = np.random.default_rng(44).standard_normal((pat.dim, pat.dim))
        args = _side_args(pat, A, s, 45)
        U, V, _ = blr2_factors_from_sketches(pat, k, *args, basis_method=method)
        Ut, Vt, _ = blr2_factors_from_sketches(pat.T, k, *(a[::-1] for a in args), basis_method=method)
        assert Ut.tobytes() == V.tobytes()
        assert Vt.tobytes() == U.tobytes()

    @pytest.mark.parametrize("method", ["svd-pcps", "pivoted-qr"])
    @pytest.mark.parametrize("name", SIDED_PATTERNS)
    def test_swapped_sides_recover_the_transposed_remainder(self, name, method):
        pat, k = STEP_PATTERNS[name], 2
        s = pat.width_floor(k, method) + 1
        A = random_blr2_matrix(pat, k, seed=46)
        args = _side_args(pat, A, s, 47)
        D = blr2_factors_from_sketches(pat, k, *args, basis_method=method)[2]
        Dt = blr2_factors_from_sketches(pat.T, k, *(a[::-1] for a in args), basis_method=method)[2]
        # Block (j, i) of the transposed run is block (i, j) of the first, transposed.
        order = [pat.T.sorted_pairs.index((j, i)) for i, j in pat.sorted_pairs]
        assert np.linalg.norm(Dt[order].transpose(0, 2, 1) - D) <= 1e-12 * np.linalg.norm(D)

    def test_diagonal_pattern_hands_the_kernels_views_of_the_sketches(self, monkeypatch):
        pat, k = STEP_PATTERNS["diagonal"], 2
        s = pat.width_floor(k) + 1
        A = np.random.default_rng(48).standard_normal((pat.dim, pat.dim))
        tests, images, tests_diag, images_diag = _side_args(pat, A, s, 49)
        handed = {}

        def recording(name):
            kernel = getattr(blr2, name)

            def record(*stacks):
                handed[name] = stacks
                return kernel(*stacks)

            return record

        for name in ("nullified_factor", "right_pinv_apply"):
            monkeypatch.setattr(blr2, name, recording(name))
        blr2_factors_from_sketches(pat, k, tests, images, tests_diag, images_diag)
        assert np.shares_memory(handed["nullified_factor"][0], images)
        assert np.shares_memory(handed["nullified_factor"][1], tests)
        assert np.shares_memory(handed["right_pinv_apply"][1], tests_diag)


class TestBlr2Build:
    def test_exact_recovery_diagonal_pattern(self):
        pat = BLR2Pattern.diagonal(8, 4)
        k = 2
        A = random_blr2_matrix(pat, k, seed=0)
        F = blr2_from_matvecs(MatvecOracle.from_dense(A), pat, k, s=pat.block_size + k + 2, seed=1)
        assert frobenius_error(A, F) <= 1e-9

    def test_exact_recovery_tridiagonal_pattern(self):
        pat = BLR2Pattern.tridiagonal(8, 4)
        k = 2
        A = random_blr2_matrix(pat, k, seed=2)
        F = blr2_from_matvecs(MatvecOracle.from_dense(A), pat, k, s=pat.width_floor(k), seed=3)
        assert frobenius_error(A, F) <= 1e-9

    def test_empty_pattern(self):
        # No pairs: D stacks no blocks, and A is all low-rank blocks.
        pat = BLR2Pattern(4, 4, frozenset())
        k = 2
        A = random_blr2_matrix(pat, k, seed=22)
        F = blr2_from_matvecs(MatvecOracle.from_dense(A), pat, k, s=pat.width_floor(k), seed=23)
        assert F.D.shape == (0, 4, 4)
        assert np.linalg.norm(blr2_reconstruct(F) - A) <= 1e-9 * np.linalg.norm(A)
        x = np.random.default_rng(24).standard_normal(16)
        assert np.linalg.norm(blr2_apply(F, x) - A @ x) <= 1e-9 * np.linalg.norm(A @ x)

    def test_rank_outside_block_size_rejected(self):
        pat = BLR2Pattern.diagonal(4, 4)
        oracle = MatvecOracle.from_dense(np.eye(16))
        for k in (0, -1, 5):
            with pytest.raises(ValueError, match=rf"k={k}\b.*m=4"):
                blr2_from_matvecs(oracle, pat, k, s=20, seed=0)

    def test_zero_matrix_gives_zero_factorization(self):
        pat = BLR2Pattern.diagonal(4, 4)
        F = blr2_from_matvecs(MatvecOracle.from_dense(np.zeros((16, 16))), pat, 2, s=8, seed=4)
        assert not blr2_reconstruct(F).any()
        assert not F.X.any()
        assert not F.D.any()

    def test_query_count(self):
        pat = BLR2Pattern.diagonal(8, 4)
        k, s = 2, 9
        A = random_blr2_matrix(pat, k, seed=5)
        o = CountingOracle(MatvecOracle.from_dense(A))
        blr2_from_matvecs(o, pat, k, s=s, seed=6)
        assert o.counter.forward_count == 2 * s + pat.block_count * k  # sketches + core probes
        assert o.counter.transpose_count == 2 * s

    def test_oracle_of_another_dim_rejected(self):
        pat = BLR2Pattern.diagonal(4, 4)
        with pytest.raises(ValueError, match=r"^oracle dim 12 does not match pattern dim 16$"):
            blr2_from_matvecs(MatvecOracle.from_dense(np.eye(12)), pat, 2, s=8, seed=0)

    @pytest.mark.parametrize("make", [BLR2Pattern.tridiagonal, _superdiagonal],
                             ids=["tridiagonal", "superdiagonal"])
    def test_a_dropped_pattern_is_freed_without_the_cycle_collector(self, make):
        # The step keeps no plan of a pattern, and a pattern refers to no
        # pattern that refers back to it, so reference counting frees a
        # pattern, symmetric or not, once its caller drops it.
        oracle = MatvecOracle.from_dense(random_blr2_matrix(BLR2Pattern.tridiagonal(8, 4), 2, seed=30))
        gc.collect()
        gc.disable()
        try:
            pat = make(8, 4)
            F = blr2_from_matvecs(oracle, pat, 2, s=pat.width_floor(2), seed=31)
            alive = weakref.ref(pat)
            del pat, F
            assert alive() is None
        finally:
            gc.enable()

    def test_width_floor_enforced(self):
        pat = BLR2Pattern.tridiagonal(4, 4)
        A = random_blr2_matrix(pat, 2, seed=7)
        with pytest.raises(ValueError):
            blr2_from_matvecs(MatvecOracle.from_dense(A), pat, 2, s=pat.width_floor(2) - 1, seed=8)

    @pytest.mark.parametrize(
        "pat",
        [
            BLR2Pattern.diagonal(4, 4),
            BLR2Pattern.tridiagonal(4, 4),
            BLR2Pattern(4, 4, frozenset({(0, 0), (0, 1), (0, 3), (2, 1), (3, 3)})),
        ],
        ids=["diagonal", "tridiagonal", "irregular"],
    )
    def test_accepts_exactly_the_reference_width(self, pat):
        A = np.random.default_rng(29).standard_normal((pat.dim, pat.dim))
        for k in (1, 2):
            floor = reference_width_floor(pat, k)
            for s in range(floor + 2):
                oracle = CountingOracle(MatvecOracle.from_dense(A))
                if s >= floor:
                    blr2_from_matvecs(oracle, pat, k, s, seed=30)
                    continue
                with pytest.raises(ValueError, match=rf"s={s} is below the floor {floor}\b"):
                    blr2_from_matvecs(oracle, pat, k, s, seed=30)
                assert oracle.counter.total == 0  # rejected before any query

    @pytest.mark.parametrize(
        "k, s, method, message",
        [
            (0, 12, "svd-pcps", r"k=0\b.*m=4"),
            (5, 12, "svd-pcps", r"k=5\b.*m=4"),
            (2, 7, "svd-pcps", r"s=7 is below the floor 8\b"),
            (2, 5, "pivoted-qr", r"s=5 is below the floor 6\b"),
        ],
        ids=["k0", "k5", "svd-width", "qr-width"],
    )
    def test_step_rejects_rank_and_width_at_entry(self, k, s, method, message):
        pat = BLR2Pattern.diagonal(4, 4)
        sketches = [gaussian(pat.dim, s, RngStream(31).child(i)) for i in range(8)]
        with pytest.raises(ValueError, match=message):
            blr2_factors_from_sketches(pat, k, *side_stacks(*sketches), basis_method=method)

    def test_error_decomposes_blockwise(self):
        # Total squared error splits exactly into pattern-block terms plus
        # low-rank-block terms.
        pat = BLR2Pattern.tridiagonal(4, 4)
        k = 2
        rng = np.random.default_rng(9)
        A = rng.standard_normal((16, 16))
        F = blr2_from_matvecs(MatvecOracle.from_dense(A), pat, k, s=pat.width_floor(k), seed=10)
        B = blr2_reconstruct(F)
        m = pat.block_size
        total = np.linalg.norm(A - B) ** 2
        split = 0.0
        for i in range(4):
            for j in range(4):
                split += np.linalg.norm(
                    (A - B)[i * m : (i + 1) * m, j * m : (j + 1) * m]
                ) ** 2
        assert abs(total - split) <= 1e-8 * total

    def test_bound_compliance_on_noisy_input(self):
        # Exactly structured plus noise: mean squared error over seeds stays
        # under the theorem factor times the noise energy (which bounds the
        # best achievable error).
        pat = BLR2Pattern.diagonal(8, 4)
        k, m, smax = 2, 4, 1
        s = 2 * (smax * m + k)  # 12
        base = random_blr2_matrix(pat, k, seed=11)
        noise = 1e-3 * np.random.default_rng(12).standard_normal(base.shape)
        A = base + noise
        gamma = (1.0 + 2.0 * np.e * (s - smax * m) / np.sqrt((s - smax * m - k) ** 2 - 1)) ** 2
        gamma_diag = smax * m / (s - smax * m - 1)
        factor = 2.0 * gamma * (1.0 + gamma_diag)
        errs2 = []
        for seed in range(10):
            F = blr2_from_matvecs(MatvecOracle.from_dense(A), pat, k, s=s, seed=seed)
            errs2.append((frobenius_error(A, F) * np.linalg.norm(A)) ** 2)
        assert np.mean(errs2) <= factor * np.linalg.norm(noise) ** 2

    def test_theorem_gamma_diag_value(self):
        # gamma_diag = smax * m / (s - smax * m - 1) at s = 2 (smax m + k)
        smax, m, k = 1, 4, 2
        s = 2 * (smax * m + k)
        assert abs(smax * m / (s - smax * m - 1) - 4.0 / 7.0) <= 1e-15


class TestBlr2Containers:
    def test_apply_matches_reconstruct(self):
        pat = BLR2Pattern.tridiagonal(4, 4)
        k = 2
        A = random_blr2_matrix(pat, k, seed=13)
        F = blr2_from_matvecs(MatvecOracle.from_dense(A), pat, k, s=pat.width_floor(k), seed=14)
        dense = blr2_reconstruct(F)
        x = np.random.default_rng(15).standard_normal((16, 3))
        assert np.linalg.norm(blr2_apply(F, x) - dense @ x) <= 1e-12 * np.linalg.norm(dense @ x)

    def test_remainder_outside_pattern_rejected(self):
        # D stacks one block per pattern pair; a third block has no pair.
        pat = BLR2Pattern.diagonal(2, 4)
        k = 2
        U = np.stack([np.eye(4)[:, :2]] * 2)
        X = np.zeros((4, 4))
        with pytest.raises(ValueError):
            BLR2Factorization(pat, U, U, X, np.zeros((3, 4, 4)))


class TestSpecialization:
    def test_diagonal_blr2_step_equals_one_level_step(self):
        # The finest level of the fresh driver is the BLR2 step with the
        # diagonal pattern and m = 2k, fed the driver's own level-L draws.
        k, level = 2, 3
        m = 2 * k
        b = 1 << level
        pat = BLR2Pattern.diagonal(b, m)
        n = pat.dim
        s = 3 * k + 2
        A = np.random.default_rng(16).standard_normal((n, n))
        T = hss_from_matvecs_fresh(MatvecOracle.from_dense(A), MatvecConfig(level, k, s, seed=17))
        stream = RngStream(17)
        omega, psi, od, pd = (
            gaussian(n, s, stream.child(level, role))
            for role in ("omega", "psi", "omega-diag", "psi-diag")
        )
        U, V, D = blr2_factors_from_sketches(
            pat, k, *side_stacks(omega, psi, od, pd, A @ omega, A.T @ psi, A @ od, A.T @ pd)
        )
        finest = T.levels[-1]
        assert np.array_equal(U, finest.U)
        assert np.array_equal(V, finest.V)
        assert np.array_equal(D, finest.D)

    def test_both_drivers_run_the_step_on_one_draw_per_role(self):
        # A level draws each test matrix as one (dim, s) Gaussian keyed by
        # (seed, level, role); the fresh and the reused-svd drivers share
        # their finest level, and both equal the step fed those draws.
        k, level, seed = 2, 3, 19
        pat = BLR2Pattern.diagonal(1 << level, 2 * k)
        n, s = pat.dim, 3 * k + 2
        A = np.random.default_rng(18).standard_normal((n, n))
        omega, psi, od, pd = (gaussian(n, s, RngStream(seed).child(level, role)) for role in ROLES)
        want = blr2_factors_from_sketches(
            pat, k, *side_stacks(omega, psi, od, pd, A @ omega, A.T @ psi, A @ od, A.T @ pd)
        )
        oracle = MatvecOracle.from_dense(A)
        for T in (
            hss_from_matvecs_fresh(oracle, MatvecConfig(level, k, s, seed)),
            hss_from_matvecs_reused(oracle, MatvecConfig(level, k, s, seed, sketch_policy="reused")),
        ):
            finest = T.levels[-1]
            for got, expected in zip((finest.U, finest.V, finest.D), want):
                assert np.array_equal(got, expected)

    def test_blr2_from_matvecs_draws_one_matrix_per_role(self):
        # The flat builder queries gaussian(dim, s, RngStream(seed).child(role))
        # for each role, then probes the core with b*k columns.
        pat = BLR2Pattern.tridiagonal(4, 4)
        k, seed = 2, 21
        s = pat.width_floor(k)
        A = random_blr2_matrix(pat, k, seed=20)
        forward, transpose = [], []

        def recorded(log, M):
            def product(x):
                log.append(x.copy())
                return M @ x

            return product

        oracle = MatvecOracle(pat.dim, recorded(forward, A), recorded(transpose, A.T))
        blr2_from_matvecs(oracle, pat, k, s, seed)
        omega, psi, od, pd = (gaussian(pat.dim, s, RngStream(seed).child(role)) for role in ROLES)
        assert [x.shape[1] for x in forward] == [s, s, pat.block_count * k]
        assert len(transpose) == 2
        assert np.array_equal(forward[0], omega) and np.array_equal(forward[1], od)
        assert np.array_equal(transpose[0], psi) and np.array_equal(transpose[1], pd)
