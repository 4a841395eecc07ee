"""Self-tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import hsskit as hk  # noqa: E402
import session  # noqa: E402
from tracer import Span, layer_totals, operation_spans, self_times, subtree_self_sums  # noqa: E402

MINI = session.Workload("mini-256", "banded", 256, 256, build_reps=1,
                        why="small enough for a unit test")


def test_self_times_of_nested_and_overlapping_spans():
    spans = [
        Span(0, "root", 0.0, 10.0, -1, 1),
        Span(1, "a", 1.0, 4.0, 0, 1),
        Span(2, "b", 3.0, 6.0, 0, 1),   # overlaps a: the union 1..6 is covered
        Span(3, "c", 2.0, 3.0, 1, 1),
        Span(4, "d", 9.0, 12.0, 0, 1),  # runs past its parent: clipped to 9..10
    ]
    assert self_times(spans) == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0}


def test_self_times_of_a_nested_tree_sum_to_its_duration():
    spans = [
        Span(0, "root", 0.0, 10.0, -1, 1),
        Span(1, "a", 1.0, 4.0, 0, 1),
        Span(2, "c", 2.0, 3.0, 1, 1),
        Span(3, "b", 5.0, 6.0, 0, 1),
    ]
    assert self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    assert subtree_self_sums(spans, [0, 1]) == {0: 10.0, 1: 3.0}


def test_recursive_spans_count_inclusive_time_once():
    spans = [
        Span(0, "f", 0.0, 10.0, -1, 1),
        Span(1, "f", 2.0, 5.0, 0, 1),
        Span(2, "g", 3.0, 4.0, 1, 1),
    ]
    totals = layer_totals(spans)
    assert totals["f"] == {"calls": 2, "s": 10.0, "self_s": 9.0}
    assert totals["g"] == {"calls": 1, "s": 1.0, "self_s": 1.0}


def _module_attributes():
    return {
        (key, attr): obj
        for key, module in sys.modules.items()
        if module is not None and (key == "hsskit" or key.startswith("hsskit."))
        for attr, obj in vars(module).items()
    }


def test_traced_run_restores_every_module_attribute():
    before = _module_attributes()
    run = session.Session(MINI, seed=3)
    run.prepare()
    metrics, tracer = run.measure_traced(0.0)
    after = _module_attributes()
    assert before.keys() == after.keys()
    assert all(after[key] is obj for key, obj in before.items())
    assert run.failed == 0, run.problems
    assert metrics["kernels.gaussian.calls"]["value"] > 0
    assert metrics["oracle.op.calls"]["value"] > 0
    names = {sp.name for sp in tracer.spans}
    assert {"kernels.nullspace_basis", "greedy.sss_step_explicit", "formats.serialize"} <= names


def test_layer_metrics_leave_out_the_gates():
    run = session.Session(MINI, seed=3)
    run.prepare()
    metrics, tracer = run.measure_traced(0.0)  # one traced round
    trips = len(run.samples["hssf_roundtrip"])
    # the bit-exactness gate serializes once more, outside any operation
    assert sum(sp.name == "formats.serialize" for sp in tracer.spans) == trips + 1
    totals = layer_totals(operation_spans(tracer.spans))
    assert totals["formats.serialize"]["calls"] == trips
    assert totals["formats.deserialize"]["calls"] == trips
    assert metrics["formats.serialize.s"]["value"] == totals["formats.serialize"]["s"]


def test_a_gate_that_raises_fails_its_operation():
    run = session.Session(MINI, seed=3)
    run.prepare()
    run.probe = lambda T: 1 / 0
    run.build("fresh")
    assert run.failed == 1
    assert "build_fresh: gate raised ZeroDivisionError" in run.problems[0]


def test_a_failing_setup_probe_is_counted():
    run = session.Session(MINI, seed=3)
    run.prepare()
    attempted = run.attempted

    def broken():
        raise RuntimeError("no child")

    run.measure(0.0, broken, 2)
    assert run.failed == 2
    assert run.attempted > attempted + 2
    assert "setup" not in run.samples


def test_query_gate_rejects_a_miscounting_oracle():
    class MisCounting(hk.CountingOracle):
        def __init__(self, inner):
            super().__init__(inner)
            add = self.counter.add_forward
            self.counter.add_forward = lambda n: add(n + 1)

    honest = session.Session(MINI, seed=5)
    honest.prepare()
    assert honest.failed == 0, honest.problems
    liar = session.Session(MINI, seed=5, counting=MisCounting)
    liar.prepare()
    assert liar.failed > 0
    assert any("queries" in p for p in liar.problems)


def test_trimmed_mean_leaves_out_a_tenth_at_each_end():
    assert session.trimmed_mean([100.0] + [float(i) for i in range(1, 10)]) == 5.5
    assert session.trimmed_mean([1.0, 2.0, 6.0]) == 3.0


def test_a_sample_is_scaled_by_the_bursts_on_both_sides(monkeypatch):
    # bursts of 3 reference runs lasting 1 s each and then 3 s each, around
    # one 6-s operation: 6 / ((1 + 3) / 2) = 3 reference units
    ticks = iter([0, 1, 1, 2, 2, 3, 10, 16, 20, 23, 23, 26, 26, 29])
    monkeypatch.setattr(session, "CLOCK", lambda: next(ticks))
    monkeypatch.setattr(session, "CALIBRATION_S", 0.0)
    run = session.Session(MINI, seed=3)
    run.calibration = lambda: None
    run.calibrate()
    run._run("op", lambda: None)
    assert run.scaled == {}
    run.calibrate()
    assert run.samples["op"] == [6] and run.scaled["op"] == [3.0]
    assert run.timing("op") == 3.0 * session.CALIBRATION_REF_S


def test_every_sample_of_a_run_is_scaled():
    run = session.Session(MINI, seed=3)
    run.prepare()
    run.measure(0.0, lambda: 0.5, 2)
    assert run.failed == 0, run.problems
    assert run.pending == []
    for name, samples in run.samples.items():
        if name != "calibration":
            assert len(run.scaled[name]) == len(samples), name
    metrics = run.end_to_end()
    assert all(m["value"] > 0 for m in metrics.values())


def test_query_formulas():
    assert session.expected_queries("fresh", 9, 8, 34) == (628, 612)
    assert session.expected_queries("reused_qr", 9, 8, 34) == (84, 68)
    assert session.expected_queries("blr2", 0, 8, 58, blocks=64) == (628, 116)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_probe_estimate_agrees_with_frobenius_error(seed):
    n, L = 1024, 6
    oracle = hk.banded_inverse_oracle(n, session.BANDWIDTH, seed)
    A = hk.dense_from_oracle(oracle)
    estimate = session.ProbeEstimator(oracle, seed)
    for policy, method in (("fresh", "svd-pcps"), ("reused", "pivoted-qr")):
        cfg = hk.MatvecConfig(L, session.K, session.S, seed, method, policy)
        build_fn = hk.hss_from_matvecs_fresh if policy == "fresh" else hk.hss_from_matvecs_reused
        T = build_fn(oracle, cfg)
        ratio = estimate(T) / hk.frobenius_error(A, T)
        assert 1 / session.PROBE_FACTOR <= ratio <= session.PROBE_FACTOR


def test_tail_percentile_keeps_ten_samples_beyond():
    assert session.tail([1.0] * 19) is None
    assert session.tail(list(range(20)))[0] == "p50"
    label, value = session.tail([float(i) for i in range(100)])
    assert (label, value) == ("p90", 89.0)


def test_benchmark_json_matches_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(session.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(session.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(session.PER_LAYER)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "banded-8192", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert out.stdout == ""
