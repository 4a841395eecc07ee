"""Wide products in column panels.

With ``PANEL_BYTES`` patched down to a few KiB every product below runs in
many panels, and must still match its dense reference.  At full size each
product's traced peak must stay within its output plus a few panels.
"""

import tracemalloc

import numpy as np
import pytest

from hsskit import (
    BLR2Pattern,
    CountingOracle,
    MatvecConfig,
    MatvecOracle,
    RngStream,
    banded_inverse_oracle,
    blr2_apply,
    blr2_from_matvecs,
    blr2_reconstruct,
    dense_from_oracle,
    grid_schur_oracle,
    hss_apply,
    hss_from_matvecs_fresh,
    random_blr2_matrix,
    random_telescoping,
    reconstruct_dense,
)
from hsskit import structures

from helpers import grid_schur_dense, peak_bytes, random_banded_matrix

SMALL_PANEL_BYTES = 12 << 10
WIDTHS = [None, 1, 31, 32, 33, 300]  # None: a vector operand


@pytest.fixture
def small_panels(monkeypatch):
    monkeypatch.setattr(structures, "PANEL_BYTES", SMALL_PANEL_BYTES)


def _operand(rows, width, seed):
    shape = rows if width is None else (rows, width)
    return np.random.default_rng(seed).standard_normal(shape)


def _assert_close(y, expected):
    assert y.shape == expected.shape
    assert np.linalg.norm(y - expected) <= 1e-13 * np.linalg.norm(expected)


def _held_after(fn):
    """(fn(), bytes still allocated when fn returns beyond what was held
    before)."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[0] - held
    finally:
        tracemalloc.stop()


def _recording(oracle, widths):
    """The oracle, recording the width of each forward call."""
    def apply(x):
        widths.append(x.shape[1])
        return oracle.apply(x)

    return MatvecOracle(oracle.dim, apply, oracle.apply_transpose)


class TestPanelBoundaries:
    """At 12 KiB the applies run 32-column panels (their floor), so widths
    31, 32, 33 and 300 sit on and around the panel boundary."""

    @pytest.mark.parametrize("width", WIDTHS)
    def test_hss_apply_and_its_transpose(self, small_panels, width):
        T = random_telescoping(3, 4, RngStream(0))
        dense = reconstruct_dense(T)
        x = _operand(T.dim, width, 1)
        _assert_close(hss_apply(T, x), dense @ x)
        _assert_close(hss_apply(T.T, x), dense.T @ x)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_blr2_apply(self, small_panels, width):
        pat = BLR2Pattern.tridiagonal(8, 8)
        A = random_blr2_matrix(pat, 2, seed=3)
        F = blr2_from_matvecs(MatvecOracle.from_dense(A), pat, 2, pat.width_floor(2), seed=4)
        x = _operand(F.dim, width, 5)
        _assert_close(blr2_apply(F, x), blr2_reconstruct(F) @ x)

    @pytest.mark.parametrize("width", [None, 1, 16, 300])
    def test_grid_oracle(self, small_panels, width):
        # 16 grid rows: 48-column panels (16 N bytes a column), so width
        # 300 runs in seven.
        S = grid_schur_dense(16)
        x = _operand(16, width, 6)
        _assert_close(grid_schur_oracle(16).apply(x), S @ x)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_banded_oracle(self, small_panels, width):
        # 34-column panels (its floor): widths up to 33 are one product and
        # width 300 runs in nine.  n = 100 pads to four 32-row blocks.
        n, bw = 100, 17
        x = _operand(n, width, 12)
        want = np.linalg.solve(random_banded_matrix(n, bw, 13), x)
        _assert_close(banded_inverse_oracle(n, bw, 13).apply(x), want)

    def test_dense_from_oracle_probes_identity_panels(self, small_panels):
        A = np.random.default_rng(7).standard_normal((100, 100))
        widths = []
        B = dense_from_oracle(_recording(MatvecOracle.from_dense(A), widths))
        assert np.array_equal(B, A)
        assert widths == [7] * 14 + [2]  # 16 N bytes a column: probe and reply

    def test_blr2_core_probe_keeps_the_query_split(self, small_panels, monkeypatch):
        pat = BLR2Pattern.tridiagonal(16, 8)
        k, s = 2, pat.width_floor(2)
        A = random_blr2_matrix(pat, k, seed=8)
        widths = []
        counting = CountingOracle(_recording(MatvecOracle.from_dense(A), widths))
        F = blr2_from_matvecs(counting, pat, k, s, seed=9)
        assert counting.counter.forward_count == 2 * s + pat.block_count * k
        assert counting.counter.transpose_count == 2 * s
        assert widths == [s, s, 12, 12, 8]  # sketches, then 12-column core panels
        monkeypatch.undo()
        whole = blr2_from_matvecs(MatvecOracle.from_dense(A), pat, k, s, seed=9)
        for got, want in zip((F.U, F.V, F.D), (whole.U, whole.V, whole.D)):
            assert np.array_equal(got, want)
        _assert_close(F.X, whole.X)


class TestPanelMemory:
    """Traced peaks, each bounded by the output's bytes plus a fixed multiple
    of PANEL_BYTES."""

    def test_hss_apply_at_width_128(self):
        T = random_telescoping(9, 8, RngStream(10))  # N = 8192
        x = _operand(T.dim, 128, 11)
        for op in (T, T.T):
            y, peak = peak_bytes(lambda: hss_apply(op, x))
            assert peak <= y.nbytes + 4 * structures.PANEL_BYTES

    def test_banded_oracle_at_width_128(self):
        # At n = 8192 the panels run through one scratch of 34 columns of
        # N + 2 h N / nb rows, 3.2 MiB, each written by its last product
        # into the reply; a single panel of all 128 columns would need a
        # 12 MiB scratch.
        oracle = banded_inverse_oracle(8192, 17, 14)
        x = _operand(8192, 128, 15)
        y, peak = peak_bytes(lambda: oracle.apply(x))
        assert peak <= y.nbytes + 2 * structures.PANEL_BYTES

    def test_banded_oracle_at_width_34(self):
        # A query of a k = 8 build is one panel: its scratch holds the
        # operand's blocks and the seams, N + 2 h N / nb rows.
        oracle = banded_inverse_oracle(8192, 17, 14)
        x = _operand(8192, 34, 15)
        y, peak = peak_bytes(lambda: oracle.apply(x))
        assert peak <= y.nbytes + 2 * structures.PANEL_BYTES

    def test_banded_oracle_holds_at_most_5_mib(self):
        # The block products [W_i | -P_i | -Q_i] (3 MiB at n = 8192), the
        # seam rows R_i and the seam maps, but no inverse diagonal block.
        _, held = _held_after(lambda: banded_inverse_oracle(8192, 17, 14))
        assert held <= 5 << 20

    def test_dense_grid_extraction(self):
        oracle = grid_schur_oracle(512)
        A, peak = peak_bytes(lambda: dense_from_oracle(oracle))
        assert peak <= A.nbytes + 4 * structures.PANEL_BYTES

    @pytest.mark.parametrize("n,probes", [(512, [256] * 2), (1024, [128] * 8)])
    def test_dense_grid_extraction_probes_one_fft_panel_per_call(self, n, probes, monkeypatch):
        # The probes and the grid oracle's panels follow one rule (16 N
        # bytes a column), so each probe call is one forward FFT and holds
        # at most two panels' bytes beside the result.
        rfft, ffts = np.fft.rfft, []
        monkeypatch.setattr(np.fft, "rfft", lambda *a, **kw: ffts.append(1) or rfft(*a, **kw))
        oracle = grid_schur_oracle(n)
        widths = []
        A, peak = peak_bytes(lambda: dense_from_oracle(_recording(oracle, widths)))
        assert widths == probes
        assert len(ffts) == len(probes)
        assert peak <= A.nbytes + 2 * structures.PANEL_BYTES

    def test_blr2_build_stays_below_the_dense_core_probe(self):
        n, m, k = 2048, 16, 8
        pat = BLR2Pattern.diagonal(n // m, m)
        oracle = banded_inverse_oracle(n, 2 * k + 1, 0)
        _, peak = peak_bytes(lambda: blr2_from_matvecs(oracle, pat, k, pat.width_floor(k), seed=0))
        assert peak < n * pat.block_count * k * 8

    def test_tridiagonal_blr2_build_runs_the_step_in_chunks(self):
        # s = 58: chunks of 77 rows, three per group.  The build peaks in
        # the step, beside its eight sketches: 18.2 MB with the chunks,
        # 24.8 MB when each side's group went through the kernels whole.
        n, m, k, s = 2048, 16, 8, 58
        pat = BLR2Pattern.tridiagonal(n // m, m)
        oracle = banded_inverse_oracle(n, 2 * k + 1, 0)
        _, peak = peak_bytes(lambda: blr2_from_matvecs(oracle, pat, k, s, seed=0))
        assert peak <= 8 * n * s * 8 + 6 * structures.PANEL_BYTES

    def test_fresh_driver_drops_a_levels_sketches_before_querying_the_next(self):
        n, k, s = 2048, 8, 34
        base = banded_inverse_oracle(n, 2 * k + 1, 0)
        held = []

        def traced(product):
            def call(x):
                held.append(tracemalloc.get_traced_memory()[0])
                return product(x)

            return call

        oracle = MatvecOracle(n, traced(base.apply), traced(base.apply_transpose))
        peak_bytes(lambda: hss_from_matvecs_fresh(oracle, MatvecConfig(7, k, s, 0)))
        # Calls 0-3 query level L and calls 4-7 level L - 1.  Level L's eight
        # sketches (four test matrices, four images) take 8 n s floats and
        # must be gone by call 4.
        assert held[4] - held[0] < 4 * n * s * 8
