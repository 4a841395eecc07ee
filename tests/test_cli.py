import numpy as np
import pytest

from hsskit import (
    LevelFactors,
    TelescopingFactorization,
    deserialize,
    frobenius_error,
    read_dense,
    reconstruct_dense,
    serialize,
)
from hsskit.cli import load_pattern, main


def test_gen_writes_dmat(tmp_path, capsys):
    out = tmp_path / "hard.dmat"
    assert main(["gen", "hard", "--L", "2", "--delta", "0.1", "--out", str(out)]) == 0
    A = read_dense(out)
    assert A.shape == (8, 8)
    assert "wrote" in capsys.readouterr().out


def test_approx_explicit_and_validate(tmp_path, capsys):
    mat = tmp_path / "m.dmat"
    fac = tmp_path / "m.hssf"
    assert main(["gen", "hss", "--n", "32", "--k", "2", "--seed", "1", "--out", str(mat)]) == 0
    assert main([
        "approx", "explicit", "--L", "3", "--k", "2", "--in", str(mat), "--out", str(fac),
    ]) == 0
    assert main(["validate", "--in", str(fac), "--against", str(mat)]) == 0
    out = capsys.readouterr().out
    assert "relative frobenius error" in out
    T = deserialize(fac.read_bytes())
    assert frobenius_error(read_dense(mat), T) <= 1e-9


def test_approx_fresh_from_oracle_spec(tmp_path, capsys):
    fac = tmp_path / "banded.hssf"
    code = main([
        "approx", "fresh", "--L", "4", "--k", "4", "--s", "14", "--seed", "0",
        "--in", "banded:n=128,bandwidth=9,seed=0", "--out", str(fac),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "224 sketch + 8 probe" in out
    T = deserialize(fac.read_bytes())
    assert reconstruct_dense(T).shape == (128, 128)


def test_approx_requires_width_for_matvec_algos(tmp_path):
    with pytest.raises(SystemExit):
        main(["approx", "fresh", "--L", "3", "--k", "2", "--in", "hss:n=32,k=2", "--out", "x.hssf"])


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
        "approx", "explicit", "--L", "5", "--k", "1", "--in", f"hard:n={n}",
        "--out", str(tmp_path / "x.hssf"),
    ])
    assert code == 1
    assert f"power of two >= 4, got n={n}" in capsys.readouterr().err


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


def test_validate_reports_format_errors(tmp_path, capsys):
    broken = tmp_path / "broken.hssf"
    broken.write_bytes(b"XXXX" + b"\x00" * 12)
    mat = tmp_path / "m.dmat"
    main(["gen", "hss", "--n", "16", "--k", "2", "--out", str(mat)])
    assert main(["validate", "--in", str(broken), "--against", str(mat)]) == 1
    assert "error:" in capsys.readouterr().err


def test_validate_rejects_non_orthonormal_bases(tmp_path, capsys):
    mat = tmp_path / "m.dmat"
    fac = tmp_path / "m.hssf"
    main(["gen", "hss", "--n", "32", "--k", "2", "--seed", "1", "--out", str(mat)])
    main(["approx", "explicit", "--L", "3", "--k", "2", "--in", str(mat), "--out", str(fac)])
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
