import numpy as np
import pytest

from hsskit import (
    CSV_HEADER,
    ConfigError,
    MatvecOracle,
    parse_config,
    records_to_csv,
    run_experiment,
    run_sweep,
)
from hsskit.experiment import run_cell

SMALL_SWEEP = """
# small deterministic sweep for contract tests
matrix = hss
n = 32
k = 2
matrix_seed = 3
algorithms = fresh, reused-svd, reused-qr
s = 8, 10, 12
trials = 10
seed = 0
"""

HARD_SWEEP = """
matrix = hard
n = 32
k = 1
delta = 0.1
algorithms = explicit, bstar
s = 5
trials = 1
"""


class TestParseConfig:
    def test_parses_and_derives_levels(self):
        cfg = parse_config(SMALL_SWEEP)
        assert cfg["matrix"] == "hss"
        assert cfg["L"] == 3
        assert cfg["algorithms"] == ("fresh", "reused-svd", "reused-qr")
        assert cfg["s"] == (8, 10, 12)
        assert cfg["timing"] == "off"

    def test_unknown_key_reports_line_number(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("matrix = hss\nn = 32\nbogus = 1\n")

    def test_bad_value_reports_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("matrix = hss\nn = thirty\n")

    def test_missing_key_rejected(self):
        with pytest.raises(ConfigError, match="algorithms"):
            parse_config("matrix = hss\nn = 32\nk = 2\ns = 8\n")

    def test_nonconforming_dimension_rejected(self):
        with pytest.raises(ConfigError, match="conform"):
            parse_config("matrix = hss\nn = 33\nk = 2\nalgorithms = fresh\ns = 8\n")

    def test_zero_rank_rejected(self):
        with pytest.raises(ConfigError, match="conform"):
            parse_config("matrix = hss\nn = 32\nk = 0\nalgorithms = fresh\ns = 8\n")

    def test_bstar_requires_hard_family(self):
        with pytest.raises(ConfigError, match="bstar"):
            parse_config("matrix = hss\nn = 32\nk = 2\nalgorithms = bstar\ns = 8\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("matrix = hss\nmatrix = hard\n")

    @pytest.mark.parametrize(
        "lists, message",
        [
            ("algorithms = ,\ns = 8", r"^line 4: 'algorithms' lists an empty or repeated entry: ','$"),
            ("algorithms = fresh, , reused-qr\ns = 8", r"^line 4: 'algorithms' lists an empty or repeated"),
            ("algorithms = fresh, fresh\ns = 8", r"^line 4: 'algorithms' lists an empty or repeated"),
            ("algorithms = fresh\ns = 8, 8", r"^line 5: 's' lists an empty or repeated entry: '8, 8'$"),
            ("algorithms = fresh\ns = 8, 08", r"^line 5: 's' lists an empty or repeated"),
        ],
        ids=["no-algorithm", "empty-algorithm", "repeated-algorithm", "repeated-width",
             "repeated-width-value"],
    )
    def test_empty_or_repeated_list_entry_names_the_line(self, lists, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(f"matrix = hss\nn = 32\nk = 2\n{lists}\n")

    def test_rejected_list_writes_no_csv(self, tmp_path):
        cfg, out = tmp_path / "sweep.cfg", tmp_path / "out.csv"
        cfg.write_text("matrix = hss\nn = 32\nk = 2\nalgorithms = ,\ns = 8\n")
        with pytest.raises(ConfigError, match="^line 4: "):
            run_sweep(cfg, out)
        assert not out.exists()

    def test_hard_family_rejects_non_power_of_two(self):
        with pytest.raises(ConfigError, match="n=24"):
            parse_config("matrix = hard\nn = 24\nk = 3\nalgorithms = explicit\ns = 11\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("matrix = banded\nn = 64\nk = 2\nbandwidth = 8\nalgorithms = fresh\ns = 8\n",
             r"^line 4: 'bandwidth': banded needs bandwidth odd and positive, got bandwidth=8$"),
            ("matrix = hard\nn = 32\nk = 1\ndelta = 1.5\nalgorithms = explicit\ns = 5\n",
             r"^line 4: 'delta': hard needs delta in \(0, 1\), got delta=1.5$"),
        ],
        ids=["banded-bandwidth", "hard-delta"],
    )
    def test_family_parameter_rule_named_with_line(self, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(text)

    def test_width_below_an_algorithms_floor_names_the_s_line(self):
        text = "matrix = hss\nn = 32\nk = 2\nalgorithms = explicit, {}\ns = 8, 5\n"
        with pytest.raises(ConfigError, match=r"^line 5: s = 5 does not suit fresh: .*floor 8\b"):
            parse_config(text.format("fresh"))
        with pytest.raises(ConfigError, match=r"^line 5: s = 5 does not suit reused-qr: .*floor 6\b"):
            parse_config(text.format("reused-qr"))
        assert parse_config(text.format("reused-qr").replace("8, 5", "8, 6"))["s"] == (8, 6)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: parse_config("matrix = hss\nn 32\n"), r"^line 2: expected 'key = value', got 'n 32'$"),
            (lambda: parse_config("matrix = dense\nn = 32\nk = 2\nalgorithms = fresh\ns = 8\n"),
             r"^matrix must be one of \('banded', 'grid', 'bie', 'hard', 'hss'\), got 'dense'$"),
            (lambda: parse_config("matrix = hss\nn = 32\nk = 2\nalgorithms = fresh, greedy\ns = 8\n"),
             r"^unknown algorithm 'greedy'$"),
            (lambda: parse_config("matrix = hss\nn = 32\nk = 2\nalgorithms = fresh\ns = 8\ntiming = yes\n"),
             r"^timing must be 'on' or 'off', got 'yes'$"),
            (lambda: parse_config("matrix = hss\nn = 32\nk = 2\nalgorithms = fresh\ns = 8\ntrials = 0\n"),
             r"^trials must be >= 1$"),
            (lambda: run_cell("greedy", MatvecOracle.from_dense(np.eye(32)), 2, 8, 0),
             r"^unknown algorithm 'greedy'$"),
        ],
        ids=["no-equals", "unknown-matrix", "unknown-algorithm", "timing", "trials", "run-cell-algorithm"],
    )
    def test_malformed_config_names_the_cause(self, call, message):
        with pytest.raises(ConfigError, match=message):
            call()

    def test_key_of_another_family_rejected(self):
        with pytest.raises(ConfigError, match=r"line 4: 'delta' does not apply to matrix = bie"):
            parse_config("matrix = bie\nn = 32\nk = 2\ndelta = 0.5\nalgorithms = fresh\ns = 8\n")


class TestRunExperiment:
    def test_row_count_contract(self):
        records = run_experiment(parse_config(SMALL_SWEEP))
        assert len(records) == 3 * 3 * 10  # algorithms x widths x trials

    def test_csv_schema_and_determinism(self):
        cfg = parse_config(SMALL_SWEEP.replace("trials = 10", "trials = 2"))
        csv_a = records_to_csv(run_experiment(cfg))
        csv_b = records_to_csv(run_experiment(cfg))
        assert csv_a == csv_b
        assert csv_a.splitlines()[0] == CSV_HEADER
        assert CSV_HEADER == "matrix,algorithm,L,k,s,trial,seed,fwd_q,tr_q,rel_err,wall_ms"

    def test_query_counts_recorded(self):
        cfg = parse_config(SMALL_SWEEP.replace("trials = 10", "trials = 1"))
        records = run_experiment(cfg)
        by_algo = {r.algorithm: r for r in records if r.s == 8}
        L, k, s = 3, 2, 8
        fresh = by_algo["fresh"]
        assert fresh.forward_queries + fresh.transpose_queries == 4 * s * L + 2 * k
        reused = by_algo["reused-svd"]
        assert reused.forward_queries + reused.transpose_queries == 4 * s + 2 * k

    def test_hard_sweep_explicit_vs_reference(self):
        records = run_experiment(parse_config(HARD_SWEEP))
        errs = {r.algorithm: r.rel_error_fro for r in records}
        assert errs["explicit"] >= errs["bstar"]
        assert errs["bstar"] == pytest.approx(0.7072165377694649, abs=1e-12)

    def test_exact_recovery_cells_are_tiny(self):
        cfg = parse_config(SMALL_SWEEP.replace("trials = 10", "trials = 1"))
        for record in run_experiment(cfg):
            assert record.rel_error_fro <= 1e-9  # exactly structured target

    def test_timing_mode_populates_wall_clock(self):
        text = SMALL_SWEEP.replace("trials = 10", "trials = 1") + "timing = on\n"
        records = run_experiment(parse_config(text))
        assert all(r.wall_ms >= 0.0 for r in records)
        assert any(r.wall_ms > 0.0 for r in records)

    def test_every_generator_family_runs(self):
        family_cfgs = [
            "matrix = banded\nn = 64\nk = 2\nbandwidth = 5\nalgorithms = fresh\ns = 8\n",
            "matrix = grid\nn = 16\nk = 2\nalgorithms = explicit\ns = 8\n",
            "matrix = bie\nn = 32\nk = 2\namplitude = 0.3\narms = 5\nalgorithms = reused-qr\ns = 8\n",
            "matrix = hard\nn = 16\nk = 1\nalgorithms = bstar\ns = 5\n",
            "matrix = hss\nn = 16\nk = 2\nalgorithms = reused-svd\ns = 8\n",
        ]
        for text in family_cfgs:
            records = run_experiment(parse_config(text))
            assert len(records) == 1
            assert 0.0 <= records[0].rel_error_fro <= 1.5


class TestRunSweep:
    def test_identical_config_gives_identical_csv_bytes(self, tmp_path):
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text(SMALL_SWEEP.replace("trials = 10", "trials = 2"))
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_sweep(cfg_path, out_a)
        run_sweep(cfg_path, out_b)
        assert out_a.read_bytes() == out_b.read_bytes()
