"""Command-line interface.

Subcommands::

    hsskit gen <family> [params] --out FILE        write a test matrix (DMAT)
    hsskit approx <algo> --k [--s --seed] --in SRC --out FILE
    hsskit blr2 --pattern P --m M --k K --s S --in SRC
    hsskit sweep --config CFG --csv OUT
    hsskit validate --in FILE.hssf --against FILE.dmat

``approx --in`` accepts either a DMAT file or an oracle spec of the form
"family:key=value,..." (a family of ``hsskit.testbed.FAMILIES``; gen flags are
the same parameters), so the matvec drivers never materialize the operator.
The operator's dim n and ``--k`` fix the depth L by n = 2**(L+1) * k.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import formats
from .blr2 import BLR2Pattern, blr2_from_matvecs
from .experiment import ALGORITHMS, ConfigError, run_cell, run_sweep
from .oracle import CountingOracle, MatvecOracle, dense_from_oracle
from .testbed import FAMILIES, PARAM_TYPES, frobenius_error, make_problem

APPROX_ALGOS = tuple(a for a in ALGORITHMS if a != "bstar")


def load_pattern(spec: str, block_count: int, block_size: int) -> BLR2Pattern:
    """Parse a pattern argument: "diag", "tridiag", or a path to a pair-list
    file with one 1-based "i j" pair per line."""
    if spec == "diag":
        return BLR2Pattern.diagonal(block_count, block_size)
    if spec == "tridiag":
        return BLR2Pattern.tridiagonal(block_count, block_size)
    pairs = set()
    with open(spec, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2 or not all(p.isdecimal() for p in parts):
                raise ValueError(f"{spec}:{lineno}: expected two integers 'i j', got {raw!r}")
            i, j = (int(p) for p in parts)
            if not (1 <= i <= block_count and 1 <= j <= block_count):
                raise ValueError(f"{spec}:{lineno}: pair ({i}, {j}) out of range")
            pairs.add((i - 1, j - 1))
    return BLR2Pattern(block_count, block_size, frozenset(pairs))


def _parse_spec(text: str) -> tuple:
    family, _, rest = text.partition(":")
    params = {}
    if rest:
        for piece in rest.split(","):
            key, eq, value = piece.partition("=")
            if not eq:
                raise ValueError(f"bad oracle spec fragment {piece!r}")
            params[key.strip()] = value.strip()
    return family.strip(), params


def _source(src: str) -> tuple:
    """(oracle, dense matrix or None) of a DMAT file or spec, as in ``make_problem``."""
    if src.endswith(".dmat"):
        A = formats.read_dense(src)
        return MatvecOracle.from_dense(A), A
    return make_problem(*_parse_spec(src))


def _cmd_gen(args) -> int:
    params = {k: v for k, v in vars(args).items() if k in PARAM_TYPES and v is not None}
    _, A = make_problem(args.family, params, dense=True)
    formats.write_dense(A, args.out)
    print(f"wrote {args.family} matrix {A.shape[0]}x{A.shape[1]} to {args.out}")
    return 0


def _cmd_approx(args) -> int:
    base, _ = _source(args.src)
    started = time.perf_counter()
    T, fwd, tr = run_cell(args.algo, base, args.k, args.s, args.seed)
    wall = time.perf_counter() - started
    probe_q = base.dim if args.algo == "explicit" else 2 * args.k
    formats.write_hssf(T, args.out)
    print(f"wrote factorization (L={T.depth}, k={T.rank_param}) to {args.out}")
    print(
        f"queries: {fwd} forward + {tr} transpose = {fwd + tr} total "
        f"({fwd + tr - probe_q} sketch + {probe_q} probe)"
    )
    print(f"wall time: {wall * 1e3:.1f} ms")
    return 0


def _cmd_blr2(args) -> int:
    base, A = _source(args.src)
    if args.m < 1 or base.dim % args.m:
        raise ValueError(f"--m {args.m} is not a positive divisor of the operator dim {base.dim}")
    pattern = load_pattern(args.pattern, base.dim // args.m, args.m)
    oracle = CountingOracle(base)
    F = blr2_from_matvecs(oracle, pattern, args.k, args.s, args.seed)
    err = frobenius_error(dense_from_oracle(base) if A is None else A, F)
    counter = oracle.counter
    probe_q = pattern.block_count * args.k
    print(
        f"pattern: {len(pattern.pairs)} dense blocks, at most "
        f"{pattern.max_blocks_per_line} per row/column"
    )
    print(
        f"queries: {counter.forward_count} forward + {counter.transpose_count} transpose "
        f"= {counter.total} total ({counter.total - probe_q} sketch + {probe_q} core probe)"
    )
    print(f"relative frobenius error: {err:.6e}")
    return 0


def _cmd_sweep(args) -> int:
    records = run_sweep(args.config, args.csv)
    print(f"wrote {len(records)} records to {args.csv}")
    return 0


def _cmd_validate(args) -> int:
    with open(args.src, "rb") as fh:
        T = formats.deserialize(fh.read())
    T.validate()
    A = formats.read_dense(args.against)
    err = frobenius_error(A, T)
    print(f"relative frobenius error: {err:.6e}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hsskit", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a test matrix and write it as DMAT")
    gen.add_argument("family", choices=tuple(FAMILIES))
    for name, kind in PARAM_TYPES.items():
        takers = ", ".join(family for family, spec in FAMILIES.items() if name in spec.params)
        gen.add_argument(f"--{name}", type=kind, help=f"parameter of {takers}")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    approx = sub.add_parser("approx", help="build a factorization")
    approx.add_argument("algo", choices=APPROX_ALGOS)
    approx.add_argument("--k", type=int, required=True)
    approx.add_argument("--s", type=int, default=None, help="sketch width (matvec algos)")
    approx.add_argument("--seed", type=int, default=0)
    approx.add_argument("--in", dest="src", required=True, help="DMAT file or oracle spec")
    approx.add_argument("--out", required=True)
    approx.set_defaults(func=_cmd_approx)

    blr2 = sub.add_parser("blr2", help="build a flat block low-rank approximation and report its error")
    blr2.add_argument("--pattern", required=True, help="'diag', 'tridiag', or a 1-based pair-list file")
    blr2.add_argument("--m", type=int, required=True, help="partition block size")
    blr2.add_argument("--k", type=int, required=True)
    blr2.add_argument("--s", type=int, required=True)
    blr2.add_argument("--seed", type=int, default=0)
    blr2.add_argument("--in", dest="src", required=True, help="DMAT file or oracle spec")
    blr2.set_defaults(func=_cmd_blr2)

    sweep = sub.add_parser("sweep", help="run an experiment sweep to CSV")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--csv", required=True)
    sweep.set_defaults(func=_cmd_sweep)

    validate = sub.add_parser(
        "validate", help="check a factorization's bases and compare it against a matrix"
    )
    validate.add_argument("--in", dest="src", required=True)
    validate.add_argument("--against", required=True)
    validate.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "approx" and args.algo != "explicit" and args.s is None:
        parser.error("matvec algorithms require --s")
    if args.command == "gen" and args.n is None and FAMILIES[args.family].params["n"][1] is None:
        parser.error(f"gen {args.family} requires --n")
    try:
        return args.func(args)
    except (ConfigError, formats.FormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
