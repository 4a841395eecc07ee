"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines and timings.
"""

import math
import time

import numpy as np
from scipy.linalg import block_diag

from hsskit import (
    BLR2Pattern,
    BadMagicError,
    CountingOracle,
    MatvecConfig,
    MatvecOracle,
    RngStream,
    TruncatedPayloadError,
    VersionMismatchError,
    banded_inverse_oracle,
    blr2_factors_from_sketches,
    blr2_from_matvecs,
    blr2_remainder,
    compress_oracle,
    dense_from_oracle,
    deserialize,
    frobenius_error,
    gaussian,
    greedy_hss_explicit,
    hard_instance,
    hss_from_matvecs_fresh,
    hss_from_matvecs_reused,
    random_blr2_matrix,
    random_hss_matrix,
    random_telescoping,
    reconstruct_dense,
    serialize,
    theorem_bounds,
    validate_hss_ranks,
)
from hsskit.sketching import BASIS_METHODS
from hsskit.structures import LevelFactors, block_apply_t

import pytest

from helpers import brute_block_col, brute_block_row, nullify_rows, rand_orthonormal, side_stacks


def _report(num, started, text):
    print(f"criterion {num:02d} PASS ({time.perf_counter() - started:5.1f}s): {text}")


def test_criterion_01_exact_recovery_fresh():
    started = time.perf_counter()
    for L, k in [(3, 2), (4, 4)]:
        s = 3 * k + 2
        A = random_hss_matrix(L, k, seed=1000 + L)
        oracle = MatvecOracle.from_dense(A)
        for seed in range(10):
            T = hss_from_matvecs_fresh(oracle, MatvecConfig(L, k, s, seed))
            err = frobenius_error(A, T)
            assert err <= 1e-9, f"(L={L}, k={k}, seed={seed}): rel error {err:.3e}"
    _report(1, started, "matvec driver recovers exactly structured matrices to 1e-9, 10/10 seeds")


def test_criterion_02_block_nullification_identity():
    started = time.perf_counter()
    L, k, s = 4, 4, 14
    n, w = (1 << (L + 1)) * k, 2 * k
    A = np.random.default_rng(2024).standard_normal((n, n))
    op = MatvecOracle.from_dense(A)
    stream = RngStream(7)
    dense = A
    worst = 0.0
    for level in range(L, 0, -1):
        blocks = 1 << level
        draw = lambda role: np.vstack(
            [gaussian(w, s, stream.child(level, b, role)) for b in range(blocks)]
        )
        omega, psi, od, pd = (draw(r) for r in ("omega", "psi", "omega-diag", "psi-diag"))
        Y = op.apply(omega)
        Z = op.apply_transpose(psi)
        pattern = BLR2Pattern.diagonal(blocks, w)
        rows, cols = nullify_rows(pattern, omega, Y), nullify_rows(pattern.T, psi, Z)
        for i in range(blocks):
            P, sketch = rows[i]
            G = np.vstack([omega[j * w : (j + 1) * w] for j in range(blocks) if j != i]) @ P
            gap = np.abs(sketch - brute_block_row(dense, w, i) @ G).max()
            worst = max(worst, gap)
            Q, csketch = cols[i]
            H = np.vstack([psi[j * w : (j + 1) * w] for j in range(blocks) if j != i]) @ Q
            cgap = np.abs(csketch - brute_block_col(dense, w, i).T @ H).max()
            worst = max(worst, cgap)
            assert gap <= 1e-11 and cgap <= 1e-11, f"level {level} block {i}"
        lf = LevelFactors(*blr2_factors_from_sketches(pattern, k, *side_stacks(
            omega, psi, od, pd, Y, Z,
            op.apply(od), op.apply_transpose(pd),
        )))
        op = compress_oracle(op, lf)
        dense = block_apply_t(lf.U, dense - block_diag(*lf.D))
        dense = block_apply_t(lf.V, dense.T).T
    _report(2, started, f"implicit-sketch identity holds at every level/block, worst gap {worst:.2e}")


def test_criterion_03_hard_instance_gap():
    started = time.perf_counter()
    A = hard_instance(4, 0.1)
    greedy_err2 = np.linalg.norm(A - reconstruct_dense(greedy_hss_explicit(A, 4, 1))) ** 2
    reference_err2 = np.linalg.norm(A - 0.5 * np.ones_like(A)) ** 2
    assert greedy_err2 >= 448.0
    assert reference_err2 <= 259.2
    assert greedy_err2 / reference_err2 >= 1.72
    _report(3, started, f"greedy {greedy_err2:.2f} vs reference {reference_err2:.2f}, ratio {greedy_err2/reference_err2:.2f}")


def test_criterion_04_hard_instance_reference_error():
    started = time.perf_counter()
    A = hard_instance(4, 0.1)
    err = frobenius_error(A, 0.5 * np.ones_like(A))
    assert 0.70 <= err <= 0.72
    _report(4, started, f"reference relative error {err:.4f} in [0.70, 0.72]")


def test_criterion_05_expected_error_envelope_hard():
    started = time.perf_counter()
    L, k = 4, 1
    A = hard_instance(L, 0.1)
    oracle = MatvecOracle.from_dense(A)
    opt2_upper = 259.2  # 2**(2L) + delta * 2**(L+1)
    for s in (5, 7, 9):
        bound = theorem_bounds(s, k, L).factor * opt2_upper
        errs2 = []
        for seed in range(20):
            T = hss_from_matvecs_fresh(oracle, MatvecConfig(L, k, s, seed))
            errs2.append(np.linalg.norm(A - reconstruct_dense(T)) ** 2)
        assert np.mean(errs2) <= bound, f"s={s}: {np.mean(errs2):.1f} > {bound:.1f}"
    _report(5, started, "mean squared error within the expectation envelope at s = 5, 7, 9")


def test_criterion_06_monte_carlo_envelopes():
    started = time.perf_counter()
    # Sketched-basis envelope over (k, q) grids.
    for k, q in [(2, 4), (5, 8), (8, 26)]:
        rng = np.random.default_rng(500 + k)
        left = rand_orthonormal(60, 60, rng)
        right = rand_orthonormal(80, 60, rng)
        B = left @ (2.0 ** -np.arange(1, 61)[:, None] * right.T)
        opt2 = float(np.sum(np.linalg.svd(B, compute_uv=False)[k:] ** 2))
        stream = RngStream(600 + k).child("mc-basis")
        ratios = []
        for trial in range(200):
            omega = gaussian(80, q, stream.child(trial))
            U = BASIS_METHODS["svd-pcps"].kernel(B @ omega, k)
            ratios.append(np.linalg.norm(B - U @ (U.T @ B)) ** 2 / opt2)
        constant = (1.0 + 2.0 * math.e * q / math.sqrt((q - k) ** 2 - 1)) ** 2
        assert np.mean(ratios) <= constant, f"(k={k}, q={q})"
    # Diagonal-recovery envelope over (k, s) grids.
    for k, s in [(2, 8), (4, 12)]:
        rng = np.random.default_rng(700 + k)
        n, w, i = 64, 2 * k, 1
        A = rng.standard_normal((n, n))
        U = rand_orthonormal(w, k, rng)
        V = rand_orthonormal(w, k, rng)
        lo = i * w
        Aii = A[lo : lo + w, lo : lo + w]
        row = np.hstack([A[lo : lo + w, : lo], A[lo : lo + w, lo + w :]])
        col = np.vstack([A[: lo, lo : lo + w], A[lo + w :, lo : lo + w]])
        bound = (2.0 * k / (s - 2 * k - 1)) * (
            np.linalg.norm(row - U @ (U.T @ row)) ** 2
            + np.linalg.norm(col - (col @ V) @ V.T) ** 2
        )
        # Fixed-basis recovery of D_ii: the remainder step on the one-pair
        # pattern {(i, i)}.
        one_pair = BLR2Pattern(n // w, w, frozenset({(i, i)}))
        bases = lambda Q: np.broadcast_to(Q, (one_pair.block_count,) + Q.shape)
        stream = RngStream(800 + k).child("mc-diag")
        resids = []
        for trial in range(300):
            omega = gaussian(n, s, stream.child(trial, "o"))
            psi = gaussian(n, s, stream.child(trial, "p"))
            Y, Z = A @ omega, A.T @ psi
            (D,) = blr2_remainder(
                one_pair, np.stack((bases(U), bases(V))), np.stack((omega, psi)), np.stack((Y, Z))
            )
            resids.append(np.linalg.norm(Aii - D - U @ (U.T @ (Aii - D)) @ V @ V.T) ** 2)
        assert np.mean(resids) <= bound, f"(k={k}, s={s})"
    _report(6, started, "sketched-basis and diagonal-recovery expectation envelopes hold")


def test_criterion_07_query_accounting():
    started = time.perf_counter()
    L, k, s = 4, 4, 14
    A = random_hss_matrix(L, k, seed=900)
    fresh = CountingOracle(MatvecOracle.from_dense(A))
    hss_from_matvecs_fresh(fresh, MatvecConfig(L, k, s, seed=0))
    assert fresh.counter.total == 4 * s * L + 2 * k  # 4sL sketch + 2k probe
    reused = CountingOracle(MatvecOracle.from_dense(A))
    hss_from_matvecs_reused(reused, MatvecConfig(L, k, s, seed=0, sketch_policy="reused"))
    assert reused.counter.total == 4 * s + 2 * k
    _report(
        7,
        started,
        f"fresh = {4*s*L} + {2*k} queries, reused = {4*s} + {2*k} queries, exact",
    )


def test_criterion_08_banded_inverse_qualitative():
    started = time.perf_counter()
    n, k, L = 1024, 8, 6
    base = banded_inverse_oracle(n, 2 * k + 1, seed=0)
    A = dense_from_oracle(base)
    medians = {}
    for algo, policy, method in [
        ("fresh", "fresh", "svd-pcps"),
        ("reused-svd", "reused", "svd-pcps"),
        ("reused-qr", "reused", "pivoted-qr"),
    ]:
        build = hss_from_matvecs_fresh if policy == "fresh" else hss_from_matvecs_reused
        meds = []
        for s in (26, 34, 42):
            errs = [
                frobenius_error(A, build(base, MatvecConfig(L, k, s, seed, method, policy)))
                for seed in range(10)
            ]
            meds.append(float(np.median(errs)))
        medians[algo] = meds
        assert meds[0] >= meds[1] >= meds[2], f"{algo}: medians not non-increasing {meds}"
    for j in range(3):
        assert medians["fresh"][j] <= medians["reused-svd"][j], f"s index {j}"
    _report(
        8,
        started,
        "median error non-increasing in s and fresh <= reused-svd at each s "
        + str({a: [f"{m:.3f}" for m in ms] for a, ms in medians.items()}),
    )


def test_criterion_09_closure_properties():
    started = time.perf_counter()
    level, k = 3, 2
    b, w = 1 << level, 4 * k
    stream = RngStream(42).child("closure")
    for trial in range(50):
        T = random_telescoping(level, k, stream.child(trial, "T"))
        B = reconstruct_dense(T)
        g = stream.child(trial, "ops").generator()
        # Compressive closure: narrow block-diagonal congruence drops a level.
        R = np.stack([g.standard_normal((2 * k, k)) for _ in range(b)])
        Lb = np.stack([g.standard_normal((2 * k, k)) for _ in range(b)])
        Db = np.stack([g.standard_normal((2 * k, 2 * k)) for _ in range(b)])
        M = block_apply_t(R, B - block_diag(*Db))
        M = block_apply_t(Lb, M.T).T
        assert validate_hss_ranks(M, k, 1e-10), f"trial {trial}"
        # Additive closure: square block-diagonal congruence plus remainder
        # stays at the same level.
        R2 = np.stack([g.standard_normal((2 * k, 2 * k)) for _ in range(b)])
        L2 = np.stack([g.standard_normal((2 * k, 2 * k)) for _ in range(b)])
        D2 = np.stack([g.standard_normal((2 * k, 2 * k)) for _ in range(b)])
        M2 = block_apply_t(R2, B)
        M2 = block_apply_t(L2, M2.T).T + block_diag(*D2)
        assert validate_hss_ranks(M2, k, 1e-10), f"trial {trial}"
    _report(9, started, "both closure families pass rank validation, 50/50 randomized trials each")


def test_criterion_10_blr2_recovery_and_specialization():
    started = time.perf_counter()
    # Exact recovery on exactly structured inputs.
    for pattern, seed in [
        (BLR2Pattern.diagonal(8, 4), 0),
        (BLR2Pattern.tridiagonal(8, 4), 1),
    ]:
        k = 2
        A = random_blr2_matrix(pattern, k, seed=seed)
        F = blr2_from_matvecs(
            MatvecOracle.from_dense(A), pattern, k, s=pattern.width_floor(k), seed=seed + 10
        )
        assert frobenius_error(A, F) <= 1e-9
    # The finest level of the fresh driver is the diagonal-pattern step fed
    # the driver's own level-L draws.
    k, level = 2, 3
    m, b = 2 * k, 1 << level
    pattern = BLR2Pattern.diagonal(b, m)
    n, s = pattern.dim, 3 * k + 2
    A = np.random.default_rng(77).standard_normal((n, n))
    T = hss_from_matvecs_fresh(MatvecOracle.from_dense(A), MatvecConfig(level, k, s, seed=78))
    stream = RngStream(78)
    omega, psi, od, pd = (
        gaussian(n, s, stream.child(level, role))
        for role in ("omega", "psi", "omega-diag", "psi-diag")
    )
    Y, Yd, Z, Zd = A @ omega, A @ od, A.T @ psi, A.T @ pd
    U2, V2, D2 = blr2_factors_from_sketches(pattern, k, *side_stacks(omega, psi, od, pd, Y, Z, Yd, Zd))
    finest = T.levels[-1]
    assert np.array_equal(U2, finest.U)
    assert np.array_equal(V2, finest.V)
    assert np.array_equal(D2, finest.D)
    _report(10, started, "flat-pattern recovery exact; diagonal pattern matches the level step")


def test_criterion_11_serialization_roundtrip():
    started = time.perf_counter()
    stream = RngStream(11).child("accept-ser")
    shapes = [(1, 1), (2, 2), (3, 1), (4, 2), (2, 5)]
    for trial in range(20):
        L, k = shapes[trial % len(shapes)]
        T = random_telescoping(L, k, stream.child(trial))
        T2 = deserialize(serialize(T))
        assert np.array_equal(T.root, T2.root)
        for a, b in zip(T.levels, T2.levels):
            assert np.array_equal(a.U, b.U)
            assert np.array_equal(a.V, b.V)
            assert np.array_equal(a.D, b.D)
    blob = bytearray(serialize(random_telescoping(2, 2, stream.child("err"))))
    corrupted = bytes([blob[0] ^ 0xFF]) + bytes(blob[1:])
    with pytest.raises(BadMagicError):
        deserialize(corrupted)
    versioned = bytes(blob[:4]) + b"\x02\x00\x00\x00" + bytes(blob[8:])
    with pytest.raises(VersionMismatchError):
        deserialize(versioned)
    with pytest.raises(TruncatedPayloadError):
        deserialize(bytes(blob[:-1]))
    _report(11, started, "20/20 bit-exact roundtrips; corrupt headers raise distinct errors")
