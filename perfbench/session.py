"""Workloads, timed operations and correctness gates of the hsskit benchmark.

One :class:`Session` is one closed-loop caller: it runs one operation at a
time, in rounds, against the operators of one workload.  Every operation is
timed around a call into hsskit's public functions; its outputs are then
checked, outside the timed region, by the gates below.  A gate that fails or
an exception counts the operation as failed.

Gates:

  - each build's forward/transpose query split equals its formula;
  - each error is identical whenever a build repeats a sketch seed;
  - the probe error estimate agrees with the exact error within
    ``PROBE_FACTOR`` wherever a dense reference exists;
  - the HSSF round trip is bit-exact;
  - <y, T x> equals <T^T y, x> to rounding;
  - ``hss_apply`` matches ``reconstruct_dense(T) @ X``;
  - the sweep CSV is byte-identical across repetitions, and each of its rows
    has the query split of its formula.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np

import hsskit as hk
from tracer import CLOCK, Tracer, instrument, layer_totals, operation_spans, subtree_self_sums

K = 8
S = 34
BANDWIDTH = 17
BLR2_BLOCK = 16
BLR2_S = 58
SWEEP_S = (26, 34, 42)
SKETCH_SEEDS = 4  # builds cycle through this many sketch seeds per run
PROBES = 128
PROBE_FACTOR = 1.5  # stated agreement of the probe estimate with the exact error
ROUNDING_TOL = 1e-11  # relative tolerance of the adjoint and apply gates

BUILDS = ("fresh", "reused_svd", "reused_qr")
# The applies, the HSSF round trip and the width-128 products at n_ref are
# short: each runs at least REPEAT_MIN times per round and until REPEAT_S
# seconds are spent, so that even the sub-millisecond ones get enough samples
# for a steady mean.  REPEATED are those with an end-to-end metric.
REPEATED = ("apply_w1", "apply_w128", "apply_t_w128", "hssf_roundtrip")
REPEAT_MIN = 3
REPEAT_S = 0.1
# The explicit and BLR2 builds and the sweep each run until REF_S seconds are
# spent per round, many times on the small dense-reference operator.
REF_S = 0.5
# A shared host switches between a fast and a slow speed (1.3x to 1.45x
# apart) that each last for seconds, and the share of time in each differs
# from run to run.  A fixed, hsskit-free reference computation
# (``Calibration``) runs in a burst of CALIBRATION_S seconds between every two
# groups of operations.  Each sample is divided by the mean of the median
# reference times of the bursts just before and just after it.  An end-to-end
# timing is the mean of these ratios, less the TRIM share at each end, times
# CALIBRATION_REF_S: the time at the speed at which the reference takes
# CALIBRATION_REF_S seconds.
# Operations slow down by 1.1x to 1.85x in the slow state, so a run's ratios
# still have two modes; a trimmed mean moves smoothly with the share of slow
# time, where a median jumps from one mode to the other.
CALIBRATION_REF_S = 0.01
CALIBRATION_S = 0.05
TRIM = 0.1  # share of ratios left out at each end
# Matrix seed of the dense-reference operator, as in the README sweep config.
# Its error varies more across n <= 1024 banded operators than across sketch
# seeds, so a run-seeded operator would make rel_err_* spread between runs.
REF_MATRIX_SEED = 0

# (name, unit) of the end-to-end metrics, in the order they are printed.
END_TO_END = (
    ("setup_s", "s"),
    ("build_fresh_s", "s"),
    ("build_reused_svd_s", "s"),
    ("build_reused_qr_s", "s"),
    ("build_explicit_s", "s"),
    ("build_blr2_s", "s"),
    ("apply_w1_s", "s"),
    ("apply_w128_s", "s"),
    ("apply_t_w128_s", "s"),
    ("hssf_roundtrip_s", "s"),
    ("sweep_s", "s"),
    ("rel_err_fresh", "ratio"),
    ("rel_err_reused_svd", "ratio"),
    ("rel_err_reused_qr", "ratio"),
    ("rel_err_blr2", "ratio"),
    ("peak_rss_mb", "MB"),
)


@dataclass(frozen=True)
class Workload:
    """One input set: the main operator, its size and how often to repeat.

    ``family``/``n`` give the operator the matvec builds, applies and HSSF
    round trip run on; a banded one is seeded by the run seed.  The explicit
    and BLR2 builds and the sweep need a dense reference, so they run on the
    banded operator of size ``n_ref`` with ``REF_MATRIX_SEED``.  When that is
    also the main operator, errors are exact instead of estimated.
    """

    name: str
    family: str
    n: int
    n_ref: int
    build_reps: int
    why: str

    @property
    def L(self) -> int:
        return (self.n // K).bit_length() - 2

    @property
    def L_ref(self) -> int:
        return (self.n_ref // K).bit_length() - 2

    @property
    def exact_errors(self) -> bool:
        return self.family == "banded" and self.n == self.n_ref


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "banded-8192", "banded", 8192, 256, build_reps=1,
            why="cheap banded-inverse oracle at n=8192: per-block kernels and the "
            "level recursion dominate the builds",
        ),
        Workload(
            "grid-1024", "grid", 1024, 256, build_reps=1,
            why="expensive grid-Laplacian Schur oracle at n=1024: query traffic "
            "dominates the builds",
        ),
    )
}


def expected_queries(kind: str, L: int, k: int, s: int, blocks: int = 0):
    """(forward, transpose) query counts a build must spend."""
    if kind == "fresh":
        return 2 * s * L + 2 * k, 2 * s * L
    if kind in ("reused_svd", "reused_qr"):
        return 2 * s + 2 * k, 2 * s
    if kind == "blr2":
        return 2 * s + blocks * k, 2 * s
    raise ValueError(f"unknown build kind {kind!r}")


def _unsigned(seed: int) -> int:
    return seed & 0xFFFFFFFFFFFFFFFF


def sketch_seed(seed: int, index: int) -> int:
    return _unsigned(seed) * SKETCH_SEEDS + index


def gaussian_block(seed: int, tag: int, rows: int, cols: int) -> np.ndarray:
    """Benchmark-side Gaussian inputs, independent of hsskit's streams."""
    return np.random.default_rng([_unsigned(seed), tag]).standard_normal((rows, cols))


class ProbeEstimator:
    """Estimate ||A - T||_F / ||A||_F as ||(A - T) G||_F / ||A G||_F.

    G is a fixed Gaussian (n, probes) block; E||M G||_F^2 = probes ||M||_F^2
    (Halko, Martinsson and Tropp 2011, sec. 4.3).  A G is taken once through
    the oracle handed in, so the probes cost no counted queries.
    """

    def __init__(self, oracle, seed: int):
        self.G = gaussian_block(seed, 1, oracle.dim, PROBES)
        self.AG = oracle.apply(self.G)
        self.norm = float(np.linalg.norm(self.AG))

    def __call__(self, T) -> float:
        return float(np.linalg.norm(self.AG - hk.hss_apply(T, self.G))) / self.norm


class Calibration:
    """A fixed reference computation with the same mix as the workloads:
    a Python loop over small dense blocks, tall-skinny factorizations, a
    level-3 product and a sweep over a few megabytes of memory.  Its inputs
    do not depend on the seed, so every run does the same work."""

    def __init__(self):
        rng = np.random.default_rng(20250522)
        self.blocks = rng.standard_normal((64, 2 * S, K))
        self.tall = rng.standard_normal((1024, 2 * S))
        self.square = rng.standard_normal((128, 128))
        self.wide = rng.standard_normal((8192, 2 * S))

    def __call__(self) -> float:
        total = 0.0
        for B in self.blocks:
            Q, _ = np.linalg.qr(B)
            total += float((Q.T @ B)[0, 0])
        total += float(np.linalg.svd(self.tall, compute_uv=False)[0])
        total += float((self.square @ self.tall[:128]).sum())
        total += float((self.wide @ self.wide[: 2 * S].T).sum())
        return total


def hss_apply_flops(T, width: int) -> int:
    """Floating-point operations of one forward apply at the given width,
    counting a multiply-add as two."""
    per_column = sum(lf.U.size + lf.V.size + lf.D.size for lf in T.levels) + T.root.size
    return 2 * per_column * width


def _sweep_config(n: int, seed: int) -> dict:
    return hk.parse_config(
        f"matrix = banded\nn = {n}\nk = {K}\nbandwidth = {BANDWIDTH}\n"
        "algorithms = fresh, reused-svd, reused-qr\n"
        f"s = {', '.join(map(str, SWEEP_S))}\ntrials = 1\n"
        f"seed = {_unsigned(seed)}\nmatrix_seed = {REF_MATRIX_SEED}\n"
    )


def make_operator(family: str, n: int, seed: int):
    if family == "banded":
        return hk.banded_inverse_oracle(n, BANDWIDTH, _unsigned(seed))
    if family == "grid":
        return hk.grid_schur_oracle(n)
    raise ValueError(f"unknown operator family {family!r}")


class Session:
    """Operators, fixed inputs, samples and gate state of one workload run."""

    def __init__(self, workload: Workload, seed: int, counting=hk.CountingOracle):
        self.w = workload
        self.seed = seed
        self.counting = counting
        self.ref_base = make_operator("banded", workload.n_ref, REF_MATRIX_SEED)
        self.base = (
            self.ref_base if workload.exact_errors
            else make_operator(workload.family, workload.n, seed)
        )
        self.tracer = None
        self.use_operators(None)
        self.samples = {}
        self.scaled = {}
        self.pending = []  # (name, sample) waiting for the next burst
        self.burst = None  # median reference time of the last burst
        self.errors = {}
        self.build_counts = dict.fromkeys(BUILDS + ("blr2",), 0)
        self.queries = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.setup_probes = 0

    def use_operators(self, tracer):
        """Hand the builds the workload's operator callables, wrapped in
        ``oracle.op`` spans when a tracer is given."""
        def hand(base):
            fwd, tr = base.apply, base.apply_transpose
            if tracer is not None:
                fwd, tr = tracer.wrap("oracle.op", fwd), tracer.wrap("oracle.op", tr)
            return hk.MatvecOracle(base.dim, fwd, tr)

        self.op = hand(self.base)
        self.ref_op = hand(self.ref_base)

    # ------------------------------------------------------------------
    # set-up and warm-up (never timed)

    def prepare(self):
        """Fix the inputs, take the dense reference and run one warm-up round."""
        w, n = self.w, self.w.n
        self.A_ref = hk.dense_from_oracle(self.ref_base)
        self.probe = ProbeEstimator(self.base, self.seed)
        self.X1 = gaussian_block(self.seed, 2, n, 1)[:, 0]
        self.X128 = gaussian_block(self.seed, 3, n, 128)
        self.Y128 = gaussian_block(self.seed, 4, n, 128)
        self.X_ref = gaussian_block(self.seed, 5, w.n_ref, 128)
        self.sweep_cfg = _sweep_config(w.n_ref, self.seed)
        self.sweep_csv = None
        self.hssf = None
        self.calibration = Calibration()
        self.T0 = self.build("fresh", index=0, record=False)
        self.T_ref = self._run("build_explicit", self._explicit, record=False)
        if self.T0 is None or self.T_ref is None:
            raise RuntimeError("warm-up builds failed: " + "; ".join(self.problems))
        self.AX_ref = hk.reconstruct_dense(self.T_ref) @ self.X_ref
        self.run_round(record=False, builds=BUILDS[1:])  # fresh is warm from T0

    # ------------------------------------------------------------------
    # operation runner

    def _run(self, name, fn, record=True):
        """Time one operation; returns its output, or None if it raised."""
        self.attempted += 1
        start = CLOCK()
        try:
            if self.tracer is not None:
                with self.tracer.operation("bench." + name):
                    out = fn()
            else:
                out = fn()
        except Exception as exc:  # any error fails the operation, the run goes on
            self.fail(name, f"{type(exc).__name__}: {exc}")
            return None
        elapsed = CLOCK() - start
        if record:
            self.samples.setdefault(name, []).append(elapsed)
            self.pending.append((name, elapsed))
        return out

    def _repeat(self, step, least, seconds):
        """Call ``step()`` at least ``least`` times and until ``seconds`` are
        spent; returns its last output, or None as soon as it returns None."""
        start, reps = time.perf_counter(), 0
        while reps < least or time.perf_counter() - start < seconds:
            out = step()
            if out is None:
                return None
            reps += 1
        return out

    def _short(self, name, fn, record):
        """Repeat a short operation; returns its last output, or None."""
        return self._repeat(lambda: self._run(name, fn, record), REPEAT_MIN, REPEAT_S)

    def fail(self, name, why):
        self.failed += 1
        self.problems.append(f"{name}: {why}")

    def _gate(self, name, check):
        """Run ``check()``, which lists problems, outside the timed region;
        count the operation as failed if it lists any or raises."""
        try:
            problems = [p for p in check() if p]
        except Exception as exc:  # a gate that cannot run fails like one that fails
            problems = [f"gate raised {type(exc).__name__}: {exc}"]
        if problems:
            self.fail(name, "; ".join(problems))

    def _same(self, key, value, what):
        prev = self.errors.setdefault(key, value)
        return None if prev == value else f"{what} {value!r} differs from {prev!r}"

    # ------------------------------------------------------------------
    # operations

    def build(self, kind, index=None, record=True):
        """One matvec build of ``kind`` on the main operator, with gates."""
        if index is None:
            index = self.build_counts[kind] % SKETCH_SEEDS
            self.build_counts[kind] += 1
        counting = self.counting(self.op)
        cfg = hk.MatvecConfig(
            self.w.L, K, S, sketch_seed(self.seed, index),
            "pivoted-qr" if kind == "reused_qr" else "svd-pcps",
            "fresh" if kind == "fresh" else "reused",
        )
        build_fn = hk.hss_from_matvecs_fresh if kind == "fresh" else hk.hss_from_matvecs_reused
        T = self._run(f"build_{kind}", lambda: build_fn(counting, cfg), record)
        if T is None:
            return None

        def check():
            estimate = self.probe(T)
            if not self.w.exact_errors:
                return self._build_problems(kind, index, counting, S, estimate)
            err = hk.frobenius_error(self.A_ref, T)
            return self._build_problems(kind, index, counting, S, err) + [
                None if 1 / PROBE_FACTOR <= estimate / err <= PROBE_FACTOR
                else f"probe estimate {estimate:.3e} vs exact {err:.3e}"
            ]

        self._gate(f"build_{kind}", check)
        return T

    def _build_problems(self, kind, index, counting, s, err):
        """A build's query split against its formula, and its error against
        the error of the last build with the same sketch seed."""
        got = (counting.counter.forward_count, counting.counter.transpose_count)
        self.queries[kind] = got
        if kind == "blr2":
            want = expected_queries(kind, 0, K, s, self.w.n_ref // BLR2_BLOCK)
        else:
            want = expected_queries(kind, self.w.L, K, s)
        return [
            None if got == want else f"queries {got} != formula {want}",
            self._same((kind, index), err, "rel_err"),
        ]

    def _explicit(self):
        return hk.greedy_hss_explicit(self.A_ref, self.w.L_ref, K)

    def build_blr2(self, record=True):
        index = self.build_counts["blr2"] % SKETCH_SEEDS
        self.build_counts["blr2"] += 1
        pattern = hk.BLR2Pattern.tridiagonal(self.w.n_ref // BLR2_BLOCK, BLR2_BLOCK)
        counting = self.counting(self.ref_op)
        seed = sketch_seed(self.seed, index)
        F = self._run(
            "build_blr2", lambda: hk.blr2_from_matvecs(counting, pattern, K, BLR2_S, seed), record
        )
        if F is not None:
            self._gate("build_blr2", lambda: self._build_problems(
                "blr2", index, counting, BLR2_S, hk.frobenius_error(self.A_ref, F)))
        return F

    def sweep(self, record=True):
        records = self._run("sweep", lambda: hk.run_experiment(self.sweep_cfg), record)
        if records is None:
            return None

        def check():
            csv = hk.records_to_csv(records)
            if self.sweep_csv is None:
                self.sweep_csv = csv
            problems = [None if csv == self.sweep_csv else "sweep CSV differs between repetitions"]
            for r in records:
                want = expected_queries(r.algorithm.replace("-", "_"), r.L, r.k, r.s)
                if (r.forward_queries, r.transpose_queries) != want:
                    problems.append(f"sweep {r.algorithm} s={r.s} queries differ from {want}")
            return problems

        self._gate("sweep", check)
        return records

    def applies(self, record=True):
        T = self.T0
        self._short("apply_w1", lambda: hk.hss_apply(T, self.X1), record)
        TX = self._short("apply_w128", lambda: hk.hss_apply(T, self.X128), record)
        TtY = self._short("apply_t_w128", lambda: hk.hss_apply_transpose(T, self.Y128), record)
        if TX is None or TtY is None:
            return

        def check():
            lhs, rhs = float(np.sum(self.Y128 * TX)), float(np.sum(TtY * self.X128))
            scale = float(np.linalg.norm(self.Y128) * np.linalg.norm(TX))
            return [None if abs(lhs - rhs) <= ROUNDING_TOL * scale
                    else f"<y,Tx> = {lhs!r} but <T^T y,x> = {rhs!r}"]

        self._gate("apply_t_w128", check)

    def roundtrip(self, record=True):
        def trip():
            data = hk.serialize(self.T0)
            return data, hk.deserialize(data)

        out = self._short("hssf_roundtrip", trip, record)
        if out is None:
            return
        self.hssf, T2 = out
        self._gate("hssf_roundtrip", lambda: [
            None if hk.serialize(T2) == self.hssf else "round trip is not bit-exact"])

    def reference_ops(self, record=True):
        """Explicit and BLR2 builds, dense and fast apply at width 128."""
        self._repeat(lambda: self._run("build_explicit", self._explicit, record), 1, REF_S)
        self._repeat(lambda: self.build_blr2(record), 1, REF_S)
        self._short("dense_matmul_w128", lambda: self.A_ref @ self.X_ref, record)
        Y = self._short("ref_apply_w128", lambda: hk.hss_apply(self.T_ref, self.X_ref), record)
        if Y is not None:
            self._gate("ref_apply_w128", lambda: [
                None if np.linalg.norm(Y - self.AX_ref) <= ROUNDING_TOL * np.linalg.norm(self.AX_ref)
                else f"hss_apply differs from dense by {np.linalg.norm(Y - self.AX_ref):.3e}"])

    def calibrate(self, record=True):
        """Run a burst of the reference computation for ``CALIBRATION_S``
        seconds and scale the samples taken since the last burst."""
        start, burst = time.perf_counter(), []
        while len(burst) < REPEAT_MIN or time.perf_counter() - start < CALIBRATION_S:
            begin = CLOCK()
            self.calibration()
            burst.append(CLOCK() - begin)
        now = statistics.median(burst)
        for name, sample in self.pending:
            self.scaled.setdefault(name, []).append(sample / ((self.burst + now) / 2))
        self.pending.clear()
        self.burst = now
        if record:
            self.samples.setdefault("calibration", []).extend(burst)

    def run_round(self, record=True, builds=BUILDS):
        for _ in range(self.w.build_reps):
            for kind in builds:
                self.calibrate(record)
                self.build(kind, record=record)
        for group in (self.applies, self.roundtrip, self.reference_ops):
            self.calibrate(record)
            group(record)
        self.calibrate(record)
        self._repeat(lambda: self.sweep(record), 1, REF_S)
        self.calibrate(record)

    # ------------------------------------------------------------------
    # measurement loops

    def measure(self, seconds: float, setup_probe, setup_reps: int):
        """Run rounds for ``seconds``, and until every build has covered all
        sketch seeds.  ``setup_probe()`` returns one set-up time; it is called
        ``setup_reps`` times, spread between the rounds, so that set-up is
        sampled in more than one phase of the host's load."""
        start = time.perf_counter()
        while True:
            self.run_round()
            elapsed = time.perf_counter() - start
            done = min(self.build_counts.values()) >= SKETCH_SEEDS and elapsed >= seconds
            due = setup_reps
            if not done and seconds > 0:
                due = min(setup_reps, math.ceil(setup_reps * elapsed / seconds))
            while self.setup_probes < due:
                self.setup_probes += 1
                took = self._run("setup", setup_probe, record=False)
                if took is not None:
                    self.samples.setdefault("setup", []).append(took)
                    self.pending.append(("setup", took))
                self.calibrate()
            if done:
                return

    def timing(self, name):
        """Trimmed mean of the scaled samples of ``name`` in reference
        seconds, or None."""
        if not self.scaled.get(name):
            return None
        return trimmed_mean(self.scaled[name]) * CALIBRATION_REF_S

    def end_to_end(self) -> dict:
        """End-to-end metrics; each timing is a median in reference seconds."""
        timing = self.timing
        errs = lambda kind: _mean([self.errors.get((kind, i)) for i in range(SKETCH_SEEDS)])
        values = {
            "setup_s": timing("setup"),
            **{f"build_{k}_s": timing(f"build_{k}") for k in BUILDS + ("explicit", "blr2")},
            **{f"{n}_s": timing(n) for n in REPEATED},
            "sweep_s": timing("sweep"),
            **{f"rel_err_{k}": errs(k) for k in BUILDS + ("blr2",)},
            "peak_rss_mb": peak_rss_mb(),
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    def measure_traced(self, seconds: float):
        """Half the time untraced, half traced; returns the per-layer metrics."""
        half = seconds / 2
        for _ in self._rounds(half):
            pass
        untraced_fresh = self.timing("build_fresh")
        self.samples, self.scaled = {}, {}
        tracer = Tracer()
        self.tracer = tracer
        self.use_operators(tracer)
        patch = instrument(tracer)
        rounds, mark = [], 0
        try:
            for _ in self._rounds(half):
                rounds.append(operation_spans(tracer.spans[mark:]))
                mark = len(tracer.spans)
        finally:
            patch.restore()
            self.tracer = None
            self.use_operators(None)
        self._check_self_times(tracer.spans)
        metrics = self._layer_metrics(rounds, untraced_fresh)
        return metrics, tracer

    def _rounds(self, seconds):
        """Run rounds until ``seconds`` have passed, at least one; yields
        after each."""
        deadline = time.perf_counter() + seconds
        while True:
            self.run_round()
            yield
            if time.perf_counter() >= deadline:
                return

    def _check_self_times(self, spans):
        builds = [sp.id for sp in spans if sp.name.startswith("bench.build_")]
        for sid, total in subtree_self_sums(spans, builds).items():
            sp = spans[sid]
            self.attempted += 1
            if abs(total - (sp.end - sp.start)) > 1e-9:
                self.fail(sp.name, f"self times sum to {total!r}, span lasts {sp.end - sp.start!r}")

    def _layer_metrics(self, rounds, untraced_fresh) -> dict:
        per_round = [layer_totals(spans) for spans in rounds]
        values = {}
        for name, unit in PER_LAYER:
            span, _, field = name.rpartition(".")
            if field in ("calls", "s", "self_s"):
                per = [t.get(span, {}).get(field, 0) for t in per_round]
                values[name] = statistics.median_low(per) if field == "calls" else _median(per)
        shares = []
        for spans in rounds:
            shares.extend(_oracle_share(spans, "bench.build_fresh"))
        flops = hss_apply_flops(self.T0, 128)
        median = lambda name: statistics.median(self.samples[name])
        dense = median("dense_matmul_w128")
        values.update({
            "oracle.op.build_fresh_share": _median(shares),
            "structures.hss_apply.flops": flops,
            "structures.hss_apply.gflops": flops / median("apply_w128") / 1e9,
            "ref.dense_matmul_w128_s": dense,
            "structures.apply_vs_dense_w128": median("ref_apply_w128") / dense,
            "formats.hssf_bytes": len(self.hssf),
            "trace.overhead_frac": self.timing("build_fresh") / untraced_fresh - 1.0,
        })
        for kind in BUILDS + ("blr2",):
            fwd, tr = self.queries[kind]
            values[f"oracle.fwd_queries.{kind}"] = fwd
            values[f"oracle.tr_queries.{kind}"] = tr
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def _oracle_share(spans, root_name):
    """Per ``root_name`` span: share of its duration spent in ``oracle.op``."""
    by_id = {sp.id: sp for sp in spans}
    inside = {}
    for sp in spans:
        if sp.name != "oracle.op":
            continue
        anc = by_id.get(sp.parent)
        while anc is not None and anc.name != root_name:
            anc = by_id.get(anc.parent)
        if anc is not None:
            inside[anc.id] = inside.get(anc.id, 0.0) + sp.end - sp.start
    return [
        inside.get(sp.id, 0.0) / (sp.end - sp.start)
        for sp in spans if sp.name == root_name
    ]


def trimmed_mean(values):
    """Mean of ``values`` without the lowest and highest ``TRIM`` share."""
    ordered = sorted(values)
    cut = math.floor(len(ordered) * TRIM)
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def _median(values):
    return statistics.median(values) if values else None


def _mean(values):
    return None if not values or None in values else statistics.fmean(values)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(samples):
    """(label, value) of the highest standard percentile with at least ten
    samples beyond it, or None when there are too few samples."""
    n = len(samples)
    for p in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(round(p * n / 100, 9))  # nearest-rank percentile
        if n - rank >= 10:
            return f"p{p:g}", sorted(samples)[rank - 1]
    return None


def _names(fns, fields):
    return tuple(f"{layer}.{fn}.{field}" for layer, names in fns for fn in names for field in fields)


PER_LAYER = tuple(
    (name, "count" if name.endswith(".calls") else "s")
    for name in (
        _names([("kernels", ("gaussian", "nullspace_basis", "truncated_svd_left",
                               "right_pinv_apply", "pivoted_qr_basis"))], ("calls", "s"))
        + _names([("sketching", ("block_nullify", "pcps_basis", "recover_diagonal")),
                    ("matvec", ("sss_level_from_sketches",))], ("calls", "self_s"))
        + _names([("matvec", ("hss_from_matvecs_fresh", "hss_from_matvecs_reused"))], ("self_s",))
        + _names([("oracle", ("op",))], ("calls", "s"))
        + _names([("oracle", ("level_apply", "level_apply_transpose"))], ("calls", "self_s"))
        + _names([("oracle", ("dense_from_oracle",))], ("s",))
        + _names([("structures", ("block_apply", "block_apply_t", "hss_apply",
                                    "hss_apply_transpose", "reconstruct_dense", "block_to_dense",
                                    "hss_block_row", "hss_block_col"))], ("calls", "s"))
        + _names([("testbed", ("frobenius_error",)), ("greedy", ("sss_step_explicit",))],
                   ("calls", "self_s"))
        + _names([("blr2", ("blr2_block_nullify", "blr2_factors_from_sketches",
                              "blr2_from_matvecs"))], ("self_s",))
        + _names([("formats", ("serialize", "deserialize"))], ("s",))
        + _names([("experiment", ("run_experiment",))], ("self_s",))
    )
) + (
    ("oracle.op.build_fresh_share", "ratio"),
    *((f"oracle.{d}_queries.{kind}", "count") for kind in BUILDS + ("blr2",) for d in ("fwd", "tr")),
    ("structures.hss_apply.flops", "count"),
    ("structures.hss_apply.gflops", "GFLOP/s"),
    ("ref.dense_matmul_w128_s", "s"),
    ("structures.apply_vs_dense_w128", "ratio"),
    ("formats.hssf_bytes", "B"),
    ("trace.overhead_frac", "ratio"),
)
