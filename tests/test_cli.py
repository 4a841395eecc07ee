import re

import numpy as np
import pytest

from hsskit import (
    LevelFactors,
    RngStream,
    TelescopingFactorization,
    dense_from_oracle,
    deserialize,
    frobenius_error,
    parse_config,
    random_telescoping,
    read_dense,
    reconstruct_dense,
    run_experiment,
    serialize,
    write_dense,
)
from hsskit import cli, experiment
from hsskit.cli import _source, load_pattern, main
from hsskit.testbed import FAMILIES


def test_gen_writes_dmat(tmp_path, capsys):
    out = tmp_path / "hard.dmat"
    assert main(["gen", "hard", "--n", "8", "--delta", "0.1", "--out", str(out)]) == 0
    A = read_dense(out)
    assert A.shape == (8, 8)
    assert "wrote" in capsys.readouterr().out


def test_approx_explicit_and_validate(tmp_path, capsys):
    mat = tmp_path / "m.dmat"
    fac = tmp_path / "m.hssf"
    assert main(["gen", "hss", "--n", "32", "--k", "2", "--seed", "1", "--out", str(mat)]) == 0
    assert main([
        "approx", "explicit", "--k", "2", "--in", str(mat), "--out", str(fac),
    ]) == 0
    assert main(["validate", "--in", str(fac), "--against", str(mat)]) == 0
    out = capsys.readouterr().out
    assert "relative frobenius error" in out
    T = deserialize(fac.read_bytes())
    assert frobenius_error(read_dense(mat), T) <= 1e-9


def test_approx_fresh_from_oracle_spec(tmp_path, capsys):
    fac = tmp_path / "banded.hssf"
    code = main([
        "approx", "fresh", "--k", "4", "--s", "14", "--seed", "0",
        "--in", "banded:n=128,bandwidth=9,seed=0", "--out", str(fac),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "224 sketch + 8 probe" in out
    T = deserialize(fac.read_bytes())
    assert reconstruct_dense(T).shape == (128, 128)


def test_approx_reused_qr_query_split(tmp_path, capsys):
    # One sketch of width s in each of the four roles, then the 2k root probe.
    code = main([
        "approx", "reused-qr", "--k", "4", "--s", "14", "--seed", "0",
        "--in", "banded:n=128,bandwidth=9,seed=0", "--out", str(tmp_path / "q.hssf"),
    ])
    assert code == 0
    assert "= 64 total (56 sketch + 8 probe)" in capsys.readouterr().out


def test_approx_requires_width_for_matvec_algos(tmp_path):
    with pytest.raises(SystemExit):
        main(["approx", "fresh", "--k", "2", "--in", "hss:n=32,k=2", "--out", "x.hssf"])


@pytest.mark.parametrize("family", ["banded", "grid", "hss", "bie"])
def test_gen_requires_n(tmp_path, capsys, family):
    with pytest.raises(SystemExit) as exc:
        main(["gen", family, "--out", str(tmp_path / "x.dmat")])
    assert exc.value.code == 2
    assert f"gen {family} requires --n" in capsys.readouterr().err
    assert not (tmp_path / "x.dmat").exists()


@pytest.mark.parametrize("n", [100, 2, 0])
def test_hard_spec_rejects_non_power_of_two(tmp_path, capsys, n):
    code = main([
        "approx", "explicit", "--k", "1", "--in", f"hard:n={n}",
        "--out", str(tmp_path / "x.hssf"),
    ])
    assert code == 1
    assert f"power of two >= 4, got n={n}" in capsys.readouterr().err


def test_hss_rejects_non_conforming_n(tmp_path, capsys):
    mat, fac = tmp_path / "x.dmat", tmp_path / "x.hssf"
    assert main(["gen", "hss", "--n", "100", "--k", "8", "--out", str(mat)]) == 1
    assert "n=100" in capsys.readouterr().err
    assert not mat.exists()
    code = main(["approx", "explicit", "--k", "8", "--in", "hss:n=100,k=8", "--out", str(fac)])
    assert code == 1
    assert "n=100" in capsys.readouterr().err
    assert not fac.exists()


def test_spec_rejects_unknown_key(tmp_path, capsys):
    code = main([
        "approx", "explicit", "--k", "4", "--in", "banded:n=128,bandwith=9",
        "--out", str(tmp_path / "x.hssf"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "'bandwith'" in err
    assert "n, k, bandwidth, seed" in err


def test_spec_rejects_fragment_without_equals(tmp_path, capsys):
    code = main([
        "approx", "explicit", "--k", "4", "--in", "banded:n=128,9",
        "--out", str(tmp_path / "x.hssf"),
    ])
    assert code == 1
    assert "bad oracle spec fragment '9'" in capsys.readouterr().err


def test_spec_rejects_unparsable_value(tmp_path, capsys):
    code = main([
        "approx", "explicit", "--k", "4", "--in", "banded:n=abc",
        "--out", str(tmp_path / "x.hssf"),
    ])
    assert code == 1
    assert "'n'" in capsys.readouterr().err


# One instance per registry family, as family parameters; the sweep's k is the
# family's k where it has one.
FAMILY_CASES = {
    "banded": {"n": 64, "k": 4},
    "grid": {"n": 16},
    "bie": {"n": 32, "amplitude": 0.25, "arms": 3},
    "hard": {"n": 16, "delta": 0.2},
    "hss": {"n": 32, "k": 2, "seed": 3},
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_gen_spec_and_sweep_build_the_same_matrix(tmp_path, monkeypatch, family):
    params = FAMILY_CASES[family]
    out = tmp_path / "m.dmat"
    gen_flags = [item for key, value in params.items() for item in (f"--{key}", str(value))]
    assert main(["gen", family, *gen_flags, "--out", str(out)]) == 0
    spec = f"{family}:" + ",".join(f"{key}={value}" for key, value in params.items())
    from_spec = dense_from_oracle(_source(spec)[0])
    config = {"matrix_seed" if key == "seed" else key: value for key, value in params.items()}
    config.setdefault("k", 2)
    text = "".join(f"{key} = {value}\n" for key, value in config.items())
    references = []
    monkeypatch.setattr(experiment, "frobenius_error", lambda A, approx: references.append(A) or 0.0)
    run_experiment(parse_config(f"matrix = {family}\n{text}algorithms = explicit\ns = 8\n"))
    assert len(references) == 1
    assert np.array_equal(read_dense(out), from_spec)
    assert np.array_equal(references[0], from_spec)


@pytest.mark.parametrize(
    "command",
    [["gen", "hard"], ["approx", "explicit", "--k", "1", "--in", "hard:n=16"]],
    ids=["gen", "approx"],
)
def test_levels_flag_is_rejected(tmp_path, capsys, command):
    out = tmp_path / "x.out"
    with pytest.raises(SystemExit) as exc:
        main([*command, "--L", "3", "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --L 3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("algo", ["explicit", "fresh"])
def test_approx_rejects_dim_that_fits_no_depth(tmp_path, capsys, algo):
    fac = tmp_path / "x.hssf"
    code = main(["approx", algo, "--k", "3", "--s", "11", "--in", "hss:n=32,k=2", "--out", str(fac)])
    assert code == 1
    err = capsys.readouterr().err
    assert "operator dim 32" in err and "k = 3" in err
    assert not fac.exists()


def test_sweep_cli(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "matrix = hss\nn = 32\nk = 2\nalgorithms = fresh\ns = 8\ntrials = 2\nseed = 0\n"
    )
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(cfg), "--csv", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("matrix,algorithm")
    assert len(lines) == 3


def test_sweep_below_the_fresh_floor_runs_no_cell(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("matrix = hss\nn = 32\nk = 2\nalgorithms = explicit, fresh\ns = 8, 5\n")
    cells = []
    monkeypatch.setattr(experiment, "run_cell", lambda *args: cells.append(args))
    out = tmp_path / "o.csv"
    assert main(["sweep", "--config", str(cfg), "--csv", str(out)]) == 1
    assert "line 5: s = 5 does not suit fresh" in capsys.readouterr().err
    assert not cells
    assert not out.exists()


def test_bad_config_is_reported(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("matrix = hss\nnope = 1\n")
    assert main(["sweep", "--config", str(cfg), "--csv", str(tmp_path / "o.csv")]) == 1
    assert "line 2" in capsys.readouterr().err


def test_load_pattern_variants(tmp_path):
    assert len(load_pattern("diag", 4, 2).pairs) == 4
    assert len(load_pattern("tridiag", 4, 2).pairs) == 10
    listing = tmp_path / "pairs.txt"
    listing.write_text("1 1\n2 3\n# comment\n4 4\n")
    pat = load_pattern(str(listing), 4, 2)
    assert pat.pairs == frozenset({(0, 0), (1, 2), (3, 3)})
    bad = tmp_path / "bad.txt"
    bad.write_text("5 1\n")
    with pytest.raises(ValueError):
        load_pattern(str(bad), 4, 2)
    empty = tmp_path / "empty.txt"
    empty.write_text("# no pairs\n")
    assert load_pattern(str(empty), 4, 2).pairs == frozenset()


def test_load_pattern_names_non_integer_entry(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1\n1 x\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(bad))}:2: "):
        load_pattern(str(bad), 4, 2)


def test_blr2_rejects_zero_block_size(capsys):
    args = ["blr2", "--pattern", "diag", "--m", "0", "--k", "2", "--s", "8", "--in", "hss:n=32,k=2"]
    assert main(args) == 1
    assert "--m" in capsys.readouterr().err


def test_gen_banded_and_grid(tmp_path):
    banded = tmp_path / "banded.dmat"
    assert main(["gen", "banded", "--n", "64", "--bandwidth", "9", "--seed", "0", "--out", str(banded)]) == 0
    assert read_dense(banded).shape == (64, 64)
    grid = tmp_path / "grid.dmat"
    assert main(["gen", "grid", "--n", "16", "--out", str(grid)]) == 0
    A = read_dense(grid)
    assert np.abs(A - A.T).max() <= 1e-10


def test_blr2_subcommand(tmp_path, capsys):
    mat = tmp_path / "m.dmat"
    main(["gen", "hss", "--n", "32", "--k", "2", "--seed", "4", "--out", str(mat)])
    code = main([
        "blr2", "--pattern", "diag", "--m", "4", "--k", "2", "--s", "8",
        "--seed", "1", "--in", str(mat),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "relative frobenius error" in out
    assert "core probe" in out
    # pair-list file route
    listing = tmp_path / "pairs.txt"
    listing.write_text("\n".join(f"{i} {i}" for i in range(1, 9)) + "\n")
    assert main([
        "blr2", "--pattern", str(listing), "--m", "4", "--k", "2", "--s", "8",
        "--seed", "1", "--in", str(mat),
    ]) == 0


@pytest.mark.parametrize("source", ["dmat", "hss:n=32,k=2,seed=4", "bie:n=32", "banded:n=32,k=2"])
def test_blr2_extracts_only_a_matrix_the_source_lacks(tmp_path, capsys, monkeypatch, source):
    # The error line reads the matrix a DMAT file or a dense family holds;
    # only the banded and grid specs are probed for theirs.
    mat = tmp_path / "m.dmat"
    main(["gen", "hss", "--n", "32", "--k", "2", "--seed", "4", "--out", str(mat)])
    extracted = []
    monkeypatch.setattr(cli, "dense_from_oracle", lambda o: extracted.append(o) or dense_from_oracle(o))
    args = ["blr2", "--pattern", "diag", "--m", "4", "--k", "2", "--s", "8"]
    assert main([*args, "--in", str(mat) if source == "dmat" else source]) == 0
    assert "relative frobenius error" in capsys.readouterr().out
    assert len(extracted) == source.startswith("banded")


def test_validate_reports_format_errors(tmp_path, capsys):
    broken = tmp_path / "broken.hssf"
    broken.write_bytes(b"XXXX" + b"\x00" * 12)
    mat = tmp_path / "m.dmat"
    main(["gen", "hss", "--n", "16", "--k", "2", "--out", str(mat)])
    assert main(["validate", "--in", str(broken), "--against", str(mat)]) == 1
    assert "error:" in capsys.readouterr().err


def test_validate_rejects_non_finite_bases(tmp_path, capsys):
    T = random_telescoping(3, 2, RngStream(1).child("nan"))
    mat, bad = tmp_path / "m.dmat", tmp_path / "bad.hssf"
    write_dense(reconstruct_dense(T), mat)
    U = T.levels[0].U.copy()
    U[0, 0, 0] = np.nan
    poisoned = LevelFactors(U, T.levels[0].V, T.levels[0].D)
    bad.write_bytes(serialize(TelescopingFactorization((poisoned,) + T.levels[1:], T.root)))
    assert main(["validate", "--in", str(bad), "--against", str(mat)]) == 1
    captured = capsys.readouterr()
    assert "level 1 U blocks hold a non-finite entry" in captured.err
    assert "relative frobenius error" not in captured.out


def test_validate_rejects_non_orthonormal_bases(tmp_path, capsys):
    mat = tmp_path / "m.dmat"
    fac = tmp_path / "m.hssf"
    main(["gen", "hss", "--n", "32", "--k", "2", "--seed", "1", "--out", str(mat)])
    main(["approx", "explicit", "--k", "2", "--in", str(mat), "--out", str(fac)])
    T = deserialize(fac.read_bytes())
    finest = T.levels[-1]
    scaled = LevelFactors(2.0 * finest.U, finest.V, finest.D)
    bad = tmp_path / "bad.hssf"
    bad.write_bytes(serialize(TelescopingFactorization(T.levels[:-1] + (scaled,), T.root)))
    capsys.readouterr()
    assert main(["validate", "--in", str(bad), "--against", str(mat)]) == 1
    captured = capsys.readouterr()
    assert "level 3 U blocks" in captured.err
    assert "relative frobenius error" not in captured.out
