"""Property tests for the stacked kernels, the block operations, the
one-level step on irregular patterns, transposition as data (``.T``), the
nested compressed operators, the one size rule of the hierarchy and the
HSSF and DMAT file formats.

Shapes and seeds come from hypothesis; matrix entries come from seeded numpy
draws, so every example is well conditioned almost surely.  Examples are
derandomized, so every run checks the same cases.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag, lapack

from hsskit import (
    BLR2Factorization,
    BLR2Pattern,
    CountingOracle,
    FormatError,
    MatvecOracle,
    RngStream,
    blr2_apply,
    blr2_from_matvecs,
    blr2_reconstruct,
    compress_oracle,
    deserialize,
    frobenius_error,
    greedy_hss_explicit,
    hss_apply,
    nullspace_basis,
    pivoted_qr_basis,
    random_blr2_matrix,
    random_hss_matrix,
    random_telescoping,
    read_dense,
    reconstruct_dense,
    right_pinv_apply,
    serialize,
    sss_step_explicit,
    truncated_svd_left,
    validate_hss_ranks,
    write_dense,
)
from hsskit.experiment import run_cell
from hsskit import kernels
from hsskit.kernels import _check_full_rank, _invert_upper, _pivots, _residual_pivots, nullified_factor
from hsskit.structures import block_apply, block_apply_t, tree_levels

from helpers import (
    MATVEC_FLOORS,
    brute_blr2_parts,
    chained_compress,
    direct_pivoted_qr_basis,
    direct_svd_left,
    lapack_pivots,
    pattern_row,
    svd_rank_deficient_index,
)

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

seeds = st.integers(0, 2**32 - 1)
stack_sizes = st.integers(1, 6)
dims = st.integers(1, 8)


PIVOTED_QR_MEMBERS = (
    "gaussian", "graded", "low rank plus noise", "rank-deficient", "duplicate columns", "zero", "scaled"
)


def _pivoted_qr_members(rng, kind, b, r, c):
    """A (b, r, c) stack for the pivoted-QR tests: Gaussian members, or
    members with columns graded from norm 1 to 1e-14, of rank min(r, c) // 2
    plus Gaussian noise of size 1e-7 (the later residuals come from
    cancellation, as in the sketches of fast-decaying blocks), of exact rank
    below min(r, c), with columns copied (some negated) onto others, all
    zero, or scaled by powers of ten from 1e-300 to 1e300."""
    B = rng.standard_normal((b, r, c))
    if kind == "graded":
        B *= np.logspace(0, -14, c)[rng.permutation(c)]
    elif kind == "low rank plus noise":
        rank = min(r, c) // 2
        B = rng.standard_normal((b, r, rank)) @ rng.standard_normal((b, rank, c)) + 1e-7 * B
    elif kind == "rank-deficient":
        rank = int(rng.integers(0, min(r, c)))
        B = rng.standard_normal((b, r, rank)) @ rng.standard_normal((b, rank, c))
    elif kind == "duplicate columns":
        B[:, :, rng.integers(0, c, c)] = B[:, :, rng.integers(0, c, c)] * rng.choice([-1.0, 1.0], c)
    elif kind == "zero":
        B[rng.integers(0, b)] = 0.0
    elif kind == "scaled":
        B *= 10.0 ** rng.integers(-300, 301, (b, 1, 1))
    return B


class TestStackedKernelsMatchTwoD:
    @PROPERTY
    @given(seed=seeds, b=stack_sizes, r=dims, c=dims, data=st.data())
    def test_truncated_svd_left(self, seed, b, r, c, data):
        k = data.draw(st.integers(1, min(r, c)))
        B = np.random.default_rng(seed).standard_normal((b, r, c))
        got = truncated_svd_left(B, k)
        assert got.shape == (b, r, k)
        for i in range(b):
            assert np.array_equal(got[i], truncated_svd_left(B[i], k))

    @PROPERTY
    @given(
        seed=seeds,
        b=stack_sizes,
        r=st.integers(2, 8),
        wide=st.sampled_from(["one more column", "many more columns"]),
        data=st.data(),
    )
    def test_wide_truncated_svd_left_matches_direct_svd(self, seed, b, r, wide, data):
        # Each member of a wide stack must get the U of its own SVD: the
        # Gaussian members from the Gram route, member t from the SVD route
        # through the QR of B^T.  Member t has a scattered signed-permutation
        # structure whose singular values tie across position k, so only the
        # tie rule decides which of the tied vectors are kept.
        c = r + 1 if wide == "one more column" else 40 * r + 7
        k = data.draw(st.integers(1, r - 1))
        t = data.draw(st.integers(0, b - 1))
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((b, r, c))
        svals = np.sort(rng.uniform(1.0, 2.0, r))[::-1]
        svals[k] = svals[k - 1]
        B[t] = 0.0
        B[t, rng.permutation(r), rng.permutation(c)[:r]] = rng.choice([-1.0, 1.0], r) * svals
        got = truncated_svd_left(B, k)
        assert got.shape == (b, r, k)
        for i in range(b):
            assert np.abs(got[i] - direct_svd_left(B[i], k)).max() <= 1e-12

    @PROPERTY
    @given(seed=seeds, b=stack_sizes, m=dims, extra=dims)
    def test_nullspace_basis(self, seed, b, m, extra):
        omega = np.random.default_rng(seed).standard_normal((b, m, m + extra))
        got = nullspace_basis(omega)
        assert got.shape == (b, m + extra, extra)
        for i in range(b):
            assert np.array_equal(got[i], nullspace_basis(omega[i]))
            assert np.abs(omega[i] @ got[i]).max() <= 1e-12 * np.abs(omega[i]).max() * (m + extra)

    @PROPERTY
    @given(seed=seeds, b=stack_sizes, r=dims, m=dims, extra=st.integers(0, 8))
    def test_right_pinv_apply(self, seed, b, r, m, extra):
        rng = np.random.default_rng(seed)
        omega = rng.standard_normal((b, m, m + extra))
        Y = rng.standard_normal((b, r, m + extra))
        got = right_pinv_apply(Y, omega)
        assert got.shape == (b, r, m)
        for i in range(b):
            assert np.array_equal(got[i], right_pinv_apply(Y[i], omega[i]))


    @PROPERTY
    @given(seed=seeds, b=stack_sizes, r=dims, m=dims, extra=st.integers(0, 8))
    def test_nullified_factor(self, seed, b, r, m, extra):
        rng = np.random.default_rng(seed)
        omega = rng.standard_normal((b, m, m + r + extra))
        Y = rng.standard_normal((b, r, m + r + extra))
        got = nullified_factor(Y, omega)
        assert got.shape == (b, r, m + r + extra)
        for i in range(b):
            assert got[i].tobytes() == nullified_factor(Y[i], omega[i]).tobytes()

    @PROPERTY
    @given(
        seed=seeds,
        b=stack_sizes,
        r=dims,
        c=dims,
        full=st.sampled_from(["k < min(r, c)", "k = min(r, c)"]),
        kind=st.sampled_from(PIVOTED_QR_MEMBERS),
        data=st.data(),
    )
    def test_pivoted_qr_basis_matches_scipy(self, seed, b, r, c, full, kind, data):
        # Tall, wide and square members.  Up to the first pivot whose
        # residual norm falls to sqrt(eps) times the largest column norm,
        # each member takes LAPACK geqp3's pivot columns; an exact duplicate
        # (up to sign) of geqp3's column counts as the same, since geqp3
        # breaks ties by its column order after swaps.  Where the pivot
        # columns agree, Q is scipy's to within n eps cond.  Every member is
        # the same bytes alone as in the stack.
        k = min(r, c) if full == "k = min(r, c)" else data.draw(st.integers(1, min(r, c)))
        B = _pivoted_qr_members(np.random.default_rng(seed), kind, b, r, c)
        got = pivoted_qr_basis(B, k)
        assert got.shape == (b, r, k)
        piv = _pivots(B, k)
        eps = np.finfo(float).eps
        for i in range(b):
            want, trusted = lapack_pivots(B[i], k)
            mine, theirs = B[i][:, piv[i]], B[i][:, want]
            same = [np.array_equal(x, y) or np.array_equal(x, -y) for x, y in zip(mine.T, theirs.T)]
            assert all(same[:trusted])
            agree = k if all(same) else same.index(False)
            if agree:
                err = np.linalg.norm(got[i][:, :agree] - direct_pivoted_qr_basis(B[i], k)[:, :agree])
                assert err <= max(r, c) * eps * np.linalg.cond(theirs[:, :agree])
            assert np.abs(got[i].T @ got[i] - np.eye(k)).max() <= 1e-12
            assert np.array_equal(pivoted_qr_basis(B[i], k), got[i])

    @PROPERTY
    @given(
        seed=seeds,
        b=stack_sizes,
        r=dims,
        c=dims,
        kind=st.sampled_from(PIVOTED_QR_MEMBERS),
        data=st.data(),
    )
    def test_residual_pivots_match_scipy(self, seed, b, r, c, kind, data):
        # The explicit-residual pivots, which the Gram pivots hand a member
        # to when one of its pivots falls below sqrt(eps), run here on every
        # member: geqp3's pivot columns up to that point, a duplicate up to
        # sign counted as the same, and each member the same bytes alone.
        k = data.draw(st.integers(1, min(r, c)))
        B = _pivoted_qr_members(np.random.default_rng(seed), kind, b, r, c)
        piv = _residual_pivots(B, k)
        assert piv.shape == (b, k)
        for i in range(b):
            want, trusted = lapack_pivots(B[i], k)
            mine, theirs = B[i][:, piv[i, :trusted]], B[i][:, want[:trusted]]
            assert all(np.array_equal(x, y) or np.array_equal(x, -y) for x, y in zip(mine.T, theirs.T))
            assert np.array_equal(_residual_pivots(B[i : i + 1], k)[0], piv[i])

    @pytest.mark.parametrize("kind", PIVOTED_QR_MEMBERS)
    def test_pivoted_qr_basis_stack_composition(self, kind):
        # A member's bytes do not depend on its neighbours: the stack
        # reversed, and every member alone, give the same bytes.
        rng = np.random.default_rng(11)
        B = np.concatenate(
            [_pivoted_qr_members(rng, kind, 3, 16, 18), rng.standard_normal((20, 16, 18))]
        )
        got = pivoted_qr_basis(B, 8)
        assert np.array_equal(pivoted_qr_basis(B[::-1], 8)[::-1], got)
        for i in range(len(B)):
            assert np.array_equal(pivoted_qr_basis(B[i], 8), got[i])

    def test_zero_member_gives_leading_unit_vectors(self):
        B = np.random.default_rng(12).standard_normal((3, 7, 5))
        B[1] = 0.0
        got = pivoted_qr_basis(B, 4)
        assert np.array_equal(got[1], np.eye(7, 4))
        assert pivoted_qr_basis(np.zeros((0, 7, 5)), 4).shape == (0, 7, 4)


def _graded_member(rng, r, c, k, drop, fall, scale):
    """An r x c member with known singular values, in random singular
    bases: sigma_1 = 1 falls geometrically to sigma_k = 10**-drop (drop = 0
    when k = 1), sigma_k+1
    = sigma_k 10**-fall (an exact tie at fall = 0), and the rest fall by a
    further tenth each; the whole member is times ``scale``."""
    n = min(r, c)
    svals = np.concatenate((np.geomspace(1.0, 10.0**-drop, k), 10.0 ** -(drop + fall + np.arange(n - k))))
    svals[0] = 1.0
    left = np.linalg.qr(rng.standard_normal((r, n)))[0]
    right = np.linalg.qr(rng.standard_normal((c, n)))[0]
    return scale * (left * svals) @ right.T


class TestGramRoute:
    """``truncated_svd_left`` on graded spectra whose gaps fall on both sides
    of the Gram route's guard: its stated bound on the rank-k residual, one
    member's route and bytes whatever its stack, and the SVD route for tied
    values that the residual certificate does not keep, on wide and tall
    stacks alike."""

    @PROPERTY
    @given(
        seed=seeds,
        b=stack_sizes,
        r=st.integers(2, 10),
        c=st.integers(1, 24),
        data=st.data(),
    )
    def test_graded_spectra(self, seed, b, r, c, data):
        k = data.draw(st.integers(1, min(r, c)))
        rng = np.random.default_rng(seed)
        # sigma_k / sigma_1 from 1 to 1e-12 spans the guard, whose limit
        # is near 1e-6 here; fall = 0 ties sigma_k and sigma_k+1.
        drops = data.draw(st.lists(st.integers(0, 12 if k > 1 else 0), min_size=b, max_size=b))
        falls = data.draw(st.lists(st.integers(0, 6), min_size=b, max_size=b))
        scales = data.draw(st.lists(st.sampled_from([1.0, 1e300, 1e-300]), min_size=b, max_size=b))
        B = np.stack([_graded_member(rng, r, c, k, *member) for member in zip(drops, falls, scales)])
        got = truncated_svd_left(B, k)
        gram, off = kernels._gram_left(B, k)
        svd = set(off[~kernels._certified(B[off], gram[off])].tolist())
        off = set(off.tolist())
        assert np.array_equal(truncated_svd_left(B[::-1], k)[::-1], got)
        eps = np.finfo(float).eps
        for t in range(b):
            assert got[t].tobytes() == truncated_svd_left(B[t], k).tobytes()
            tied = falls[t] == 0 and k < min(r, c)
            if tied or drops[t] >= 9:
                assert t in off
            elif drops[t] <= 3:
                assert t not in off
            # A guard-failing member keeps its Gram basis where its own
            # residual certifies it, and takes the SVD route otherwise.
            want = kernels._svd_left(B[t : t + 1], k)[0] if t in svd else gram[t]
            assert got[t].tobytes() == want.tobytes()
            # The bound: the squared residual exceeds the optimum by at most
            # eps sigma_1^2, plus this check's own rounding, which scales
            # with the residual.
            member = np.ldexp(B[t], -np.frexp(np.abs(B[t]).max())[1])
            svals = np.linalg.svd(member, compute_uv=False)
            tail = np.sum(svals[k:] ** 2)
            residual = member - got[t] @ (got[t].T @ member)
            slack = 4 * (r + c) * eps * np.sqrt(tail) * np.linalg.norm(member)
            assert np.sum(residual**2) - tail <= eps * svals[0] ** 2 + slack
            assert np.abs(got[t].T @ got[t] - np.eye(k)).max() <= 1e-12


def _stack_with_ratio(seed, b, n, t, ratio):
    """A (b, n, n) stack of upper-triangular R factors, well conditioned
    except member t, whose singular values fall geometrically from 1 to
    ``ratio`` (0 makes it exactly singular)."""
    rng = np.random.default_rng(seed)
    R = np.linalg.qr(rng.standard_normal((b, 2 * n, n)), mode="r")
    left, _ = np.linalg.qr(rng.standard_normal((n, n)))
    right, _ = np.linalg.qr(rng.standard_normal((n, n)))
    R[t] = np.linalg.qr((left * np.geomspace(1.0, ratio or 1.0, n)) @ right.T, mode="r")
    if ratio == 0:
        R[t, -1, -1] = 0.0  # a zero last row: exactly singular
    return R


class TestRankCheckMatchesSvdRule:
    @pytest.mark.parametrize("ratio", [1e-10, 2.1e-12, 1.9e-12, 1.01e-12, 0.99e-12, 1e-14, 0.0])
    @pytest.mark.parametrize("b,t", [(1, 0), (5, 0), (5, 3)])
    def test_same_decision_and_index(self, ratio, b, t):
        R = _stack_with_ratio(17, b, 6, t, ratio)
        expected = svd_rank_deficient_index(R)
        if ratio <= 1e-14:
            assert expected == t
        if expected is None:
            _check_full_rank(R, single=False)
            return
        with pytest.raises(np.linalg.LinAlgError, match=rf"\(stack index {expected}\)$"):
            _check_full_rank(R, single=False)
        with pytest.raises(np.linalg.LinAlgError, match=r"rank-deficient$"):
            _check_full_rank(R[expected : expected + 1], single=True)

    def test_all_zero_member(self):
        R = _stack_with_ratio(18, 4, 5, 0, 1e-10)
        R[2] = 0.0
        assert svd_rank_deficient_index(R) == 2
        with pytest.raises(np.linalg.LinAlgError, match=r"\(stack index 2\)$"):
            _check_full_rank(R, single=False)

    def test_gaussian_stacks_take_no_svd(self, monkeypatch):
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
        rng = np.random.default_rng(19)
        nullspace_basis(rng.standard_normal((64, 16, 34)))
        right_pinv_apply(rng.standard_normal((64, 16, 34)), rng.standard_normal((64, 16, 34)))
        assert calls == []


class TestRankDeficientMember:
    @PROPERTY
    @given(seed=seeds, b=st.integers(2, 6), m=st.integers(2, 6), data=st.data())
    def test_named_by_stack_index(self, seed, b, m, data):
        bad = data.draw(st.integers(0, b - 1))
        omega = np.random.default_rng(seed).standard_normal((b, m, m + 3))
        omega[bad, -1] = omega[bad, 0]
        with pytest.raises(np.linalg.LinAlgError, match=rf"stack index {bad}\)"):
            nullspace_basis(omega)
        with pytest.raises(np.linalg.LinAlgError, match=rf"stack index {bad}\)"):
            right_pinv_apply(np.ones((b, 2, m + 3)), omega)


def _conditioned_stack(rng, b, m, n, cond):
    """A (b, m, n) stack of wide members whose singular values fall
    geometrically from 1 to 1 / cond."""
    omega = np.empty((b, m, n))
    for t in range(b):
        left, _ = np.linalg.qr(rng.standard_normal((m, m)))
        right, _ = np.linalg.qr(rng.standard_normal((n, m)))
        omega[t] = (left * np.geomspace(1.0, 1.0 / cond, m)) @ right.T
    return omega


class TestSharedInverse:
    """The rank check inverts each member's triangular factor once, and the
    pseudo-inverse reuses that inverse."""

    @PROPERTY
    @given(
        seed=seeds,
        b=st.integers(1, 4),
        m=dims,
        extra=st.integers(0, 8),
        r=st.integers(1, 5),
        log_cond=st.integers(0, 10),
        scale=st.sampled_from([1e-300, 1.0, 1e300]),
    )
    def test_right_pinv_apply_matches_pinv(self, seed, b, m, extra, r, log_cond, scale):
        # Y lies in the row space of omega, so Y pinv(omega) is a backward
        # stable answer to within c eps cond, with c = 4 (m + n) here.  Y
        # and omega share the scale, so the answer is the same at every
        # scale and the reference is taken at scale 1.
        n, cond = m + extra, 10.0**log_cond
        rng = np.random.default_rng(seed)
        omega = _conditioned_stack(rng, b, m, n, cond)
        Y = rng.standard_normal((b, r, m)) @ omega
        expected = Y @ np.linalg.pinv(omega)
        got = right_pinv_apply(scale * Y, scale * omega)
        assert np.isfinite(got).all()
        err = np.linalg.norm(got - expected, axis=(1, 2)) / np.linalg.norm(expected, axis=(1, 2))
        assert err.max() <= 4 * (m + n) * np.finfo(float).eps * cond

    def test_gaussian_stacks_call_no_inverse_or_solve(self, monkeypatch):
        calls = []
        for name in ("inv", "solve"):
            routine = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name, lambda *a, _r=routine, _n=name, **kw: calls.append(_n) or _r(*a, **kw)
            )
        rng = np.random.default_rng(20)
        nullspace_basis(rng.standard_normal((64, 16, 34)))
        right_pinv_apply(rng.standard_normal((64, 16, 34)), rng.standard_normal((64, 16, 34)))
        assert calls == []

    @pytest.mark.parametrize("bad", [0, 3, 6])
    def test_exactly_singular_member_is_named_and_checked_alone(self, bad, monkeypatch):
        # A zero row of omega gives R an exact zero pivot, so an infinite
        # inverse: that member, and only it, goes to the singular values.
        svd, sizes = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda a, *r, **kw: sizes.append(len(a)) or svd(a, *r, **kw))
        omega = np.random.default_rng(21).standard_normal((7, 5, 9))
        omega[bad, 2] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match=rf"\(stack index {bad}\)$"):
            right_pinv_apply(np.ones((7, 2, 9)), omega)
        with pytest.raises(np.linalg.LinAlgError, match=rf"\(stack index {bad}\)$"):
            nullspace_basis(omega)
        with pytest.raises(np.linalg.LinAlgError, match=rf"\(stack index {bad}\)$"):
            nullified_factor(np.ones((7, 2, 9)), omega)
        assert sizes == [1, 1, 1]

    def test_inverse_is_of_the_scaled_factor(self):
        R = np.linalg.qr(np.random.default_rng(22).standard_normal((4, 9, 6)), mode="r")
        R[1] *= 1e-300
        R[2] *= 1e300
        inverse, exponent = _check_full_rank(R, single=False)
        for t in range(4):
            scaled = np.ldexp(R[t], -int(exponent[t]))
            assert 0.5 <= np.abs(scaled).max() < 1.0
            assert np.abs(inverse[t] @ scaled - np.eye(6)).max() <= 1e-13


def _householder_pinv(Y, omega):
    """Y @ pinv(omega) for one member by the thin Householder route: (Y Q)
    R^{-T} from omega^T = Q R and the rank check's scaled inverse."""
    Q, R = np.linalg.qr(omega.T)
    inverse, exponent = _check_full_rank(R[None], single=True)
    return np.ldexp((Y @ Q) @ inverse[0].T, -exponent[0])


def _householder_nullified(Y, omega):
    """The nullified factor of one member by the thin Householder route:
    Y - (Y Q) Q^T from omega^T = Q R."""
    Q = np.linalg.qr(omega.T)[0]
    return Y - (Y @ Q) @ Q.T


class TestKernelRoutes:
    """``right_pinv_apply`` takes the Cholesky route member by member, and
    ``nullified_factor`` stands in for the nullified sketch of the SVD basis."""

    @pytest.mark.parametrize("ill", [(), (0,), (1, 4, 6), tuple(range(8))])
    def test_mixed_stack_routes_each_member_alone(self, ill, monkeypatch):
        rng = np.random.default_rng(30)
        omega = rng.standard_normal((8, 6, 14))
        omega[list(ill)] = _conditioned_stack(rng, len(ill), 6, 14, 1e6)
        Y = rng.standard_normal((8, 3, 14))
        qr, sizes = np.linalg.qr, []
        monkeypatch.setattr(np.linalg, "qr", lambda a, *r, **kw: sizes.append(a.shape) or qr(a, *r, **kw))
        got = right_pinv_apply(Y, omega)
        # Only the ill-conditioned members take a Householder QR, all in one.
        assert sizes == ([(len(ill), 14, 6)] if ill else [])
        monkeypatch.undo()
        for t in range(8):
            assert got[t].tobytes() == right_pinv_apply(Y[t], omega[t]).tobytes()
            if t in ill:
                assert got[t].tobytes() == _householder_pinv(Y[t], omega[t]).tobytes()
        assert np.abs(got - Y @ np.linalg.pinv(omega)).max() <= 1e-8 * np.abs(got).max()

    @pytest.mark.parametrize("ill", [(), (0,), (1, 4, 6), tuple(range(8))])
    def test_mixed_stack_nullifies_each_member_alone(self, ill, monkeypatch):
        # The Cholesky factor that right_pinv_apply uses gives the nullified
        # factor of the well-conditioned members; only the others take a
        # Householder QR, all in one, and their factor is Y - (Y Q) Q^T.
        rng = np.random.default_rng(31)
        omega = rng.standard_normal((8, 6, 14))
        omega[list(ill)] = _conditioned_stack(rng, len(ill), 6, 14, 1e6)
        Y = rng.standard_normal((8, 3, 14))
        qr, sizes = np.linalg.qr, []
        monkeypatch.setattr(np.linalg, "qr", lambda a, *r, **kw: sizes.append(a.shape) or qr(a, *r, **kw))
        got = nullified_factor(Y, omega)
        assert sizes == ([(len(ill), 14, 6)] if ill else [])
        monkeypatch.undo()
        for t in range(8):
            assert got[t].tobytes() == nullified_factor(Y[t], omega[t]).tobytes()
            if t in ill:
                assert got[t].tobytes() == _householder_nullified(Y[t], omega[t]).tobytes()
        sketch = Y @ nullspace_basis(omega)
        gram = sketch @ sketch.transpose(0, 2, 1)
        err = np.linalg.norm(got @ got.transpose(0, 2, 1) - gram, axis=(1, 2))
        assert (err <= 1e-12 * np.linalg.norm(gram, axis=(1, 2))).all()

    @pytest.mark.parametrize("bad", [0, 5])
    @pytest.mark.parametrize("route", ["cholesky", "householder"])
    def test_rank_deficient_member_is_named_beside_either_route(self, bad, route):
        # The other members take the Cholesky route, or all go to the
        # Householder QR with the rank-deficient one; either way the error
        # names it, and a 2-D omega raises with no index.
        rng = np.random.default_rng(32)
        omega = rng.standard_normal((6, 5, 12))
        if route == "householder":
            omega[:] = _conditioned_stack(rng, 6, 5, 12, 1e6)
        omega[bad, -1] = omega[bad, 0]
        Y = rng.standard_normal((6, 3, 12))
        for kernel in (nullified_factor, right_pinv_apply):
            for args, where in (((Y, omega), f" (stack index {bad})"), ((Y[bad], omega[bad]), "")):
                with pytest.raises(np.linalg.LinAlgError) as caught:
                    kernel(*args)
                assert str(caught.value) == f"omega is numerically rank-deficient{where}"

    @PROPERTY
    @given(
        seed=seeds,
        b=stack_sizes,
        m=dims,
        r=st.integers(2, 8),
        extra=st.integers(0, 10),
        data=st.data(),
    )
    def test_nullified_factor_has_the_subspace_of_the_nullified_sketch(self, seed, b, m, r, extra, data):
        # Y P has k singular values well above the rest, so its top-k
        # subspace is well determined.
        n = m + r + extra
        k = data.draw(st.integers(1, r))
        rng = np.random.default_rng(seed)
        omega = rng.standard_normal((b, m, n))
        Y = rng.standard_normal((b, r, k)) @ rng.standard_normal((b, k, n))
        Y += 1e-3 * rng.standard_normal((b, r, n))
        sketch = Y @ nullspace_basis(omega)
        F = nullified_factor(Y, omega)
        assert F.shape == (b, r, n)
        assert np.abs(F @ omega.transpose(0, 2, 1)).max() <= 1e-12 * np.abs(Y).max() * n
        want, got = truncated_svd_left(sketch, k), truncated_svd_left(F, k)
        projectors = got @ got.transpose(0, 2, 1) - want @ want.transpose(0, 2, 1)
        assert np.abs(projectors).max() <= 1e-12
        svals = np.linalg.svd(sketch, compute_uv=False)
        assert np.abs(np.linalg.svd(F, compute_uv=False)[:, : svals.shape[1]] - svals).max() <= (
            1e-12 * svals[:, :1].max()
        )

    @PROPERTY
    @given(seed=seeds, b=stack_sizes, m=st.integers(0, 8), r=st.integers(1, 8), data=st.data())
    def test_nullified_factor_on_every_wide_shape(self, seed, b, m, r, data):
        # n on both sides of m + r: F is r x n on either side, with rows
        # in the nullspace of omega, and an omega with no rows gives Y.
        n = data.draw(st.integers(m + 1, m + 2 * r))
        rng = np.random.default_rng(seed)
        omega, Y = rng.standard_normal((b, m, n)), rng.standard_normal((b, r, n))
        F = nullified_factor(Y, omega)
        assert F.shape == (b, r, n)
        assert np.abs(F @ omega.transpose(0, 2, 1)).max(initial=0.0) <= 1e-12 * np.abs(Y).max() * n
        if m == 0:
            assert np.array_equal(F, Y)
        sketch = Y @ nullspace_basis(omega)
        gram = sketch @ sketch.transpose(0, 2, 1)
        err = np.linalg.norm(F @ F.transpose(0, 2, 1) - gram, axis=(1, 2))
        assert (err <= 1e-12 * np.linalg.norm(gram, axis=(1, 2))).all()
        for t in range(b):
            assert F[t].tobytes() == nullified_factor(Y[t], omega[t]).tobytes()
        if m == 0:
            return
        # A copied row, or a zero one when there is one row.
        bad = data.draw(st.integers(0, b - 1))
        omega[bad, -1] = omega[bad, 0] if m > 1 else 0.0
        for args, where in (((Y, omega), f" (stack index {bad})"), ((Y[bad], omega[bad]), "")):
            for route in (lambda Y, omega: nullspace_basis(omega), nullified_factor):
                with pytest.raises(np.linalg.LinAlgError) as caught:
                    route(*args)
                assert str(caught.value) == f"omega is numerically rank-deficient{where}"

    @PROPERTY
    @given(seed=seeds, b=st.integers(1, 6), m=st.integers(2, 6), r=st.integers(1, 6), data=st.data())
    def test_rank_deficient_member_raises_alike_on_every_route(self, seed, b, m, r, data):
        bad = data.draw(st.integers(0, b - 1))
        rng = np.random.default_rng(seed)
        omega = rng.standard_normal((b, m, m + r + 2))
        omega[bad, -1] = omega[bad, 0]
        Y = rng.standard_normal((b, r, m + r + 2))
        routes = (
            lambda Y, omega: Y @ nullspace_basis(omega),
            nullified_factor,
            right_pinv_apply,
        )
        for args, where in (((Y, omega), f" (stack index {bad})"), ((Y[bad], omega[bad]), "")):
            for route in routes:
                with pytest.raises(np.linalg.LinAlgError) as caught:
                    route(*args)
                assert str(caught.value) == f"omega is numerically rank-deficient{where}"


class TestTriangularInverse:
    """The batched triangular inverse agrees with LAPACK's ``trtri``."""

    @PROPERTY
    @given(
        seed=seeds,
        b=st.integers(0, 300),
        n=st.integers(1, 48),
        log_cond=st.integers(0, 8),
        exponent=st.sampled_from([-700, 0, 700]),
    )
    def test_matches_trtri(self, seed, b, n, log_cond, exponent):
        # Columns graded from 1 to 10**-log_cond spread the conditioning;
        # the power-of-two scale is exact, so one reference serves it.
        rng = np.random.default_rng(seed)
        R = np.linalg.qr(rng.standard_normal((b, n + 2, n)), mode="r")
        R *= np.logspace(0, -log_cond, n)
        got = np.ldexp(R, exponent)
        _invert_upper(got)
        if b == 0:
            return
        want = np.stack([lapack.dtrtri(member)[0] for member in R])
        err = np.linalg.norm(np.ldexp(got, exponent) - want, axis=(1, 2))
        bound = n * np.finfo(float).eps * np.linalg.cond(R) * np.linalg.norm(want, axis=(1, 2))
        assert (err <= bound).all()
        assert np.array_equal(np.tril(got, -1), np.zeros_like(got))


class TestBlockOps:
    @PROPERTY
    @given(seed=seeds, b=stack_sizes, r=dims, c=dims, width=st.integers(1, 5))
    def test_match_dense_block_diagonal(self, seed, b, r, c, width):
        rng = np.random.default_rng(seed)
        blocks = rng.standard_normal((b, r, c))
        dense = block_diag(*blocks)
        x = rng.standard_normal((b * c, width))
        xt = rng.standard_normal((b * r, width))
        tol = 1e-13 * max(r, c)
        assert np.allclose(block_apply(blocks, x), dense @ x, rtol=tol, atol=tol * np.abs(x).max())
        assert np.allclose(
            block_apply_t(blocks, xt), dense.T @ xt, rtol=tol, atol=tol * np.abs(xt).max()
        )


# Block rows hold 3, 0, 1, 1, 0 pattern blocks and block columns 1, 1, 0,
# 0, 3, so the step stacks three line groups on each side, one of them empty
# of pattern blocks.
IRREGULAR_PAIRS = frozenset({(0, 0), (0, 1), (0, 4), (2, 4), (3, 4)})


class TestIrregularPatternStep:
    @PROPERTY
    @given(seed=seeds, m=st.integers(2, 4), data=st.data())
    def test_recovers_blr2_matrix_exactly(self, seed, m, data):
        pattern = BLR2Pattern(5, m, IRREGULAR_PAIRS)
        k = data.draw(st.integers(1, m - 1))
        s = pattern.width_floor(k) + data.draw(st.integers(0, 3))
        A = random_blr2_matrix(pattern, k, seed)
        F = blr2_from_matvecs(MatvecOracle.from_dense(A), pattern, k, s, seed + 1)
        assert np.linalg.norm(blr2_reconstruct(F) - A) <= 1e-9 * np.linalg.norm(A)


class TestExactRecoveryOfHssMatrices:
    """Criterion 01 as a property: every matvec algorithm recovers an exactly
    (L, k)-structured matrix at any sketch width from its floor upward."""

    @PROPERTY
    @given(seed=seeds, L=st.integers(1, 4), k=st.integers(1, 4), extra=st.integers(0, 3),
           scale=st.sampled_from([1.0, 1e-300, 1e300]))
    def test_relative_error_within_criterion_01(self, seed, L, k, extra, scale):
        A = scale * random_hss_matrix(L, k, seed)
        oracle = MatvecOracle.from_dense(A)
        for algorithm, floor in MATVEC_FLOORS.items():
            T, _, _ = run_cell(algorithm, oracle, k, floor(k) + extra, seed + 1)
            assert frobenius_error(A, T) <= 1e-9, algorithm


def _irregular_pattern(data, m):
    """IRREGULAR_PAIRS or a subset of it (lines with 0 to 3 blocks, no pairs
    at all included), its block rows and columns permuted."""
    subset = data.draw(
        st.one_of(st.just(IRREGULAR_PAIRS), st.sets(st.sampled_from(sorted(IRREGULAR_PAIRS))))
    )
    rows = data.draw(st.permutations(range(5)))
    cols = data.draw(st.permutations(range(5)))
    return BLR2Pattern(5, m, frozenset((rows[i], cols[j]) for i, j in subset))


class TestIrregularPatternOperations:
    @PROPERTY
    @given(seed=seeds, m=st.integers(2, 4), width=st.integers(1, 3), data=st.data())
    def test_match_per_pair_reference(self, seed, m, width, data):
        # apply, reconstruct and the core X = U^T (A - D) V of a build on a
        # generic A, against the remainder placed pair by pair.
        pattern = _irregular_pattern(data, m)
        k = data.draw(st.integers(1, m))
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((pattern.dim, pattern.dim))
        F = blr2_from_matvecs(MatvecOracle.from_dense(A), pattern, k, pattern.width_floor(k), seed + 1)
        Ud, Vd, Dd = brute_blr2_parts(F)
        dense = Ud @ F.X @ Vd.T + Dd
        x = rng.standard_normal((pattern.dim, width))
        tol = 1e-12 * np.linalg.norm(A)
        assert np.linalg.norm(F.X - Ud.T @ (A - Dd) @ Vd) <= tol
        assert np.linalg.norm(blr2_reconstruct(F) - dense) <= tol
        assert np.linalg.norm(blr2_apply(F, x) - dense @ x) <= tol * np.linalg.norm(x)
        assert np.linalg.norm(blr2_apply(F, x[:, 0]) - dense @ x[:, 0]) <= tol * np.linalg.norm(x)

    @PROPERTY
    @given(data=st.data())
    def test_transpose_is_the_column_side(self, data):
        pattern = _irregular_pattern(data, 2)
        assert pattern.T.T == pattern
        assert pattern.T.sorted_pairs == tuple(sorted((j, i) for i, j in pattern.pairs))
        for j in range(pattern.block_count):
            hits = tuple(i for i in range(pattern.block_count) if (i, j) in pattern.pairs)
            assert pattern_row(pattern.T, j) == hits


depths = st.integers(1, 4)
ranks = st.integers(1, 3)


def _telescoping(seed, L, k):
    return random_telescoping(L, k, RngStream(seed).child("transpose"))


class TestTransposeIsData:
    @PROPERTY
    @given(seed=seeds, L=depths, k=ranks)
    def test_reconstruct_of_transpose(self, seed, L, k):
        T = _telescoping(seed, L, k)
        dense = reconstruct_dense(T)
        assert np.allclose(reconstruct_dense(T.T), dense.T, rtol=0, atol=1e-12 * np.abs(dense).max())

    @PROPERTY
    @given(seed=seeds, L=depths, k=ranks, width=st.integers(1, 4))
    def test_apply_adjoint_identity(self, seed, L, k, width):
        T = _telescoping(seed, L, k)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((T.dim, width))
        y = rng.standard_normal((T.dim, width))
        lhs = np.sum(y * hss_apply(T, x))
        rhs = np.sum(hss_apply(T.T, y) * x)
        scale = np.linalg.norm(hss_apply(T, x)) * np.linalg.norm(y)
        assert abs(lhs - rhs) <= 1e-12 * scale

    @PROPERTY
    @given(seed=seeds, L=depths, k=ranks, width=st.integers(1, 4))
    def test_compressed_transpose_is_adjoint_and_charges_transpose(self, seed, L, k, width):
        T = _telescoping(seed, L, k)
        o = CountingOracle(MatvecOracle.from_dense(reconstruct_dense(T)))
        compressed = compress_oracle(o, T.levels[-1])
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((compressed.dim, width))
        y = rng.standard_normal((compressed.dim, width))
        Ax = compressed.apply(x)
        assert (o.counter.forward_count, o.counter.transpose_count) == (width, 0)
        Aty = compressed.T.apply(y)
        assert (o.counter.forward_count, o.counter.transpose_count) == (width, width)
        assert abs(np.sum(y * Ax) - np.sum(Aty * x)) <= 1e-11 * np.linalg.norm(Ax) * np.linalg.norm(y)

    @PROPERTY
    @given(seed=seeds, L=depths, k=ranks, width=st.integers(1, 4))
    def test_double_transpose_applies_bit_identically(self, seed, L, k, width):
        T = _telescoping(seed, L, k)
        x = np.random.default_rng(seed).standard_normal((T.dim, width))
        assert np.array_equal(hss_apply(T.T.T, x), hss_apply(T, x))


def _depths(o, T, compress):
    """The compressed operators of ``T``'s levels over ``o``, finest first."""
    ops = []
    for lf in reversed(T.levels):
        o = compress(o, lf)
        ops.append(o)
    return ops


class TestNestedCompression:
    @PROPERTY
    @given(seed=seeds, L=depths, k=ranks, width=st.integers(1, 4))
    def test_nested_view_equals_the_chained_reference_at_every_depth(self, seed, L, k, width):
        T = _telescoping(seed, L, k)
        o = MatvecOracle.from_dense(reconstruct_dense(T))
        rng = np.random.default_rng(seed)
        for nested, chained in zip(_depths(o, T, compress_oracle), _depths(o, T, chained_compress)):
            x = rng.standard_normal((nested.dim, width))
            for got, want in ((nested, chained), (nested.T, chained.T)):
                want_x = want.apply(x)
                assert np.linalg.norm(got.apply(x) - want_x) <= 1e-13 * np.linalg.norm(want_x)

    @PROPERTY
    @given(seed=seeds, L=depths, k=ranks, width=st.integers(1, 4))
    def test_each_column_costs_one_base_query_at_every_depth(self, seed, L, k, width):
        T = _telescoping(seed, L, k)
        base = MatvecOracle.from_dense(reconstruct_dense(T))
        for depth in range(T.depth):
            # A fresh counter per depth, and nothing queried before.
            o = CountingOracle(base)
            nested = _depths(o, T, compress_oracle)[depth]
            x = np.ones((nested.dim, width))
            nested.apply(x)
            assert (o.counter.forward_count, o.counter.transpose_count) == (width, 0)
            nested.T.apply(x)
            assert (o.counter.forward_count, o.counter.transpose_count) == (width, width)
            nested.apply_transpose(x)
            assert o.counter.transpose_count == 2 * width

    @PROPERTY
    @given(seed=seeds, L=depths, k=ranks, width=st.integers(1, 4))
    def test_double_transpose_applies_bit_identically(self, seed, L, k, width):
        T = _telescoping(seed, L, k)
        o = MatvecOracle.from_dense(reconstruct_dense(T))
        rng = np.random.default_rng(seed)
        for nested in _depths(o, T, compress_oracle):
            x = rng.standard_normal((nested.dim, width))
            assert np.array_equal(nested.T.T.apply(x), nested.apply(x))
            assert np.array_equal(nested.T.apply(x), nested.apply_transpose(x))


class TestSizesComeFromTheInput:
    def test_tree_levels_matches_the_definition(self):
        for k in range(-1, 9):
            depths = {(1 << (L + 1)) * k: L for L in range(1, 9)} if k >= 1 else {}
            for n in range(0, 257):
                assert tree_levels(n, k) == depths.get(n), (n, k)

    @PROPERTY
    @given(data=st.data())
    def test_tree_levels_decides_every_size_check(self, data):
        # A mix of conforming sizes, drawn from the definition n = 2**(L+1) k,
        # and arbitrary ones; greedy is also given depths next to the true one.
        k = data.draw(st.integers(1, 8), "k")
        conforming = [(1 << (L + 1)) * k for L in range(1, 8) if (1 << (L + 1)) * k <= 256]
        n = data.draw(st.one_of(st.sampled_from(conforming), st.integers(1, 256)), "n")
        depth = tree_levels(n, k)
        L = (depth or 1) + data.draw(st.integers(-1, 1), "L offset")
        A = np.zeros((n, n))
        calls = (
            (lambda: validate_hss_ranks(A, k, 0), depth is not None),
            (lambda: sss_step_explicit(A, k), depth is not None),
            (lambda: greedy_hss_explicit(A, L, k), depth is not None and L == depth),
        )
        for call, conforms in calls:
            if conforms:
                call()
            else:
                with pytest.raises(ValueError, match=rf"shape \({n}, {n}\).* k={k}\b"):
                    call()

    @PROPERTY
    @given(b=st.integers(1, 4), m=st.integers(1, 6), data=st.data())
    def test_blr2_bases_must_share_one_rank(self, b, m, data):
        ku, kv = data.draw(st.integers(1, m), "ku"), data.draw(st.integers(1, m), "kv")
        pattern = BLR2Pattern.diagonal(b, m)
        U, V = np.zeros((b, m, ku)), np.zeros((b, m, kv))
        D = np.zeros((b, m, m))
        if ku == kv:
            assert BLR2Factorization(pattern, U, V, np.zeros((b * ku, b * ku)), D).rank_param == ku
        else:
            for X in (np.zeros((b * ku, b * ku)), np.zeros((b * kv, b * kv))):
                with pytest.raises(ValueError, match="one k"):
                    BLR2Factorization(pattern, U, V, X, D)


class TestFileFormats:
    """HSSF and DMAT round trips are bit-exact, and a corrupt HSSF header
    fails with a ``FormatError``.  Validation of the payload on load stays
    out of scope: it would add to every round trip."""

    @PROPERTY
    @given(seed=seeds, L=st.integers(1, 5), k=st.integers(1, 4), exponent=st.integers(-1000, 1000))
    def test_hssf_round_trip_is_bit_exact(self, seed, L, k, exponent):
        T = random_telescoping(L, k, RngStream(seed).child("hssf"))
        # Scaled by 2**exponent, entries reach subnormals and huge values.
        T = type(T)(
            tuple(type(lf)(lf.U, lf.V, np.ldexp(lf.D, exponent)) for lf in T.levels),
            np.ldexp(T.root, exponent),
        )
        data = serialize(T)
        back = deserialize(data)
        assert back.depth == L and back.rank_param == k
        for a, b in zip(T.levels, back.levels):
            for name in ("U", "V", "D"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        assert T.root.tobytes() == back.root.tobytes()
        assert serialize(back) == data

    @PROPERTY
    @given(
        seed=seeds,
        rows=st.integers(1, 40),
        cols=st.integers(1, 40),
        special=st.sampled_from([0.0, -0.0, 5e-324, -2.0**-1022, 1.7976931348623157e308]),
    )
    def test_dmat_round_trip_is_bit_exact(self, seed, rows, cols, special):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-300, 300, (rows, cols))
        A[rng.integers(0, rows), rng.integers(0, cols)] = special
        with tempfile.TemporaryDirectory() as folder:
            path = os.path.join(folder, "a.dmat")
            write_dense(A, path)
            back = read_dense(path)
        assert back.shape == A.shape
        assert back.tobytes() == A.tobytes()

    @PROPERTY
    @given(seed=seeds, L=st.integers(1, 3), k=st.integers(1, 3))
    def test_every_header_bit_flip_is_a_format_error(self, seed, L, k):
        data = serialize(random_telescoping(L, k, RngStream(seed).child("flip")))
        for bit in range(16 * 8):
            corrupt = bytearray(data)
            corrupt[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(FormatError):
                deserialize(bytes(corrupt))
