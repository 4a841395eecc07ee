"""Experiment harness: flat-text configs, deterministic sweeps, CSV output.

A config is a flat key = value text file; unknown keys and malformed values
are reported with their line numbers.  A sweep runs every (algorithm, sketch
width, trial) cell against one generated problem, recording query counts and
relative Frobenius errors.  With timing off (the default) the whole pipeline
is a pure function of the config, so identical configs produce identical CSV
bytes.

Config keys::

    matrix      a problem family of hsskit.testbed.FAMILIES
    n           operator dimension (must equal 2**(L+1) * k)
    k           approximation rank
    algorithms  comma list of distinct fresh | reused-svd | reused-qr | explicit | bstar
    s           comma list of distinct sketch widths, none below a listed matvec algorithm's floor
    trials      number of trials per cell            (default 1)
    seed        base seed; trial t uses seed + t      (default 0)
    timing      on | off                              (default off)

The family keys matrix_seed (the family's seed), bandwidth, delta, amplitude
and arms follow the README's table of families; n and k also go to every
family that takes them.  A family key the chosen family lacks is an error.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .greedy import greedy_hss_explicit
from .matvec import MatvecConfig, hss_from_matvecs_fresh, hss_from_matvecs_reused
from .oracle import CountingOracle, MatvecOracle, dense_from_oracle
from .structures import tree_levels
from .testbed import FAMILIES, PARAM_TYPES, check_param, frobenius_error, make_problem, resolve_params

__all__ = [
    "ALGORITHMS",
    "CSV_HEADER",
    "ConfigError",
    "ExperimentRecord",
    "parse_config",
    "records_to_csv",
    "run_cell",
    "run_experiment",
    "run_sweep",
]

CSV_HEADER = "matrix,algorithm,L,k,s,trial,seed,fwd_q,tr_q,rel_err,wall_ms"

# Each matvec algorithm's (basis method, sketch policy), for parse_config and run_cell.
_MATVEC = {"fresh": ("svd-pcps", "fresh"), "reused-svd": ("svd-pcps", "reused"),
           "reused-qr": ("pivoted-qr", "reused")}
# bstar, the closed-form reference of the hard family, is not a factorization.
ALGORITHMS = ("explicit", *_MATVEC, "bstar")


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentRecord:
    """One sweep cell: problem identity, query counts, achieved error."""

    matrix_name: str
    algorithm: str
    L: int
    k: int
    s: int
    trial: int
    seed: int
    forward_queries: int
    transpose_queries: int
    rel_error_fro: float
    wall_ms: float


# Config keys that set a family parameter other than n and k, mapped to the registry's name.
_FAMILY_KEYS = {"matrix_seed" if p == "seed" else p: p for p in PARAM_TYPES if p not in ("n", "k")}

_KEY_PARSERS = {
    "matrix": str,
    "n": int,
    "k": int,
    "algorithms": lambda v: tuple(p.strip() for p in v.split(",")),
    "s": lambda v: tuple(int(p) for p in v.split(",")),
    "trials": int,
    "seed": int,
    "timing": str,
    **{key: PARAM_TYPES[name] for key, name in _FAMILY_KEYS.items()},
}

_REQUIRED_KEYS = ("matrix", "n", "k", "algorithms", "s")


def parse_config(text: str) -> dict:
    """Parse flat key = value config text; errors carry line numbers."""
    values, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEY_PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _KEY_PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
        if key in ("algorithms", "s") and ("" in values[key] or len(set(values[key])) < len(values[key])):
            raise ConfigError(f"line {lineno}: {key!r} lists an empty or repeated entry: {value!r}")
        lines[key] = lineno
    for key in _REQUIRED_KEYS:
        if key not in values:
            raise ConfigError(f"missing required key {key!r}")

    values.setdefault("trials", 1)
    values.setdefault("seed", 0)
    values.setdefault("timing", "off")

    family = values["matrix"]
    if family not in FAMILIES:
        raise ConfigError(f"matrix must be one of {tuple(FAMILIES)}, got {family!r}")
    takes = FAMILIES[family].params
    given = {key: values[key] for key in ("n", "k") if key in takes}
    for key, name in _FAMILY_KEYS.items():
        if key in values:
            if name not in takes:
                raise ConfigError(f"line {lines[key]}: {key!r} does not apply to matrix = {family}")
            try:
                check_param(family, name, values[key])
            except ValueError as exc:
                raise ConfigError(f"line {lines[key]}: {key!r}: {exc}") from exc
            given[name] = values[key]
    n, k = values["n"], values["k"]
    values["L"] = tree_levels(n, k)
    if values["L"] is None:
        raise ConfigError(f"n = {n} does not conform to 2**(L+1) * k for k = {k}")
    for algo in values["algorithms"]:
        if algo not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {algo!r}")
        for s in values["s"] if algo in _MATVEC else ():
            try:
                MatvecConfig(values["L"], k, s, values["seed"], *_MATVEC[algo])
            except ValueError as exc:
                raise ConfigError(f"line {lines['s']}: s = {s} does not suit {algo}: {exc}") from exc
    if values["timing"] not in ("on", "off"):
        raise ConfigError(f"timing must be 'on' or 'off', got {values['timing']!r}")
    if "bstar" in values["algorithms"] and family != "hard":
        raise ConfigError("algorithm 'bstar' is defined only for the hard matrix family")
    if values["trials"] < 1:
        raise ConfigError("trials must be >= 1")

    try:
        values["family_params"] = resolve_params(family, given)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return values


def run_cell(algorithm: str, base: MatvecOracle, k: int, s, seed: int):
    """The one map from an algorithm of :data:`ALGORITHMS` to a build on
    ``base``, whose dim fixes the depth L by n = 2**(L+1) * k.
    Returns (approximation, fwd queries, tr queries)."""
    L = tree_levels(base.dim, k)
    if L is None:
        raise ValueError(f"operator dim {base.dim} is not 2**(L+1) * k with L >= 1 for k = {k}")
    counting = CountingOracle(base)
    if algorithm == "explicit":
        approx = greedy_hss_explicit(dense_from_oracle(counting), L, k)
    elif algorithm == "bstar":
        approx = np.full((base.dim, base.dim), 0.5)
    elif algorithm in _MATVEC:
        config = MatvecConfig(L, k, s, seed, *_MATVEC[algorithm])
        build = hss_from_matvecs_fresh if config.sketch_policy == "fresh" else hss_from_matvecs_reused
        approx = build(counting, config)
    else:
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    return approx, counting.counter.forward_count, counting.counter.transpose_count


def run_experiment(config) -> list:
    """Run the sweep described by a config dict (see :func:`parse_config`).

    Returns canonically sorted ExperimentRecords, one per
    (algorithm, s, trial) cell; deterministic given the config when timing is
    off.
    """
    cfg = dict(config)
    base, A = make_problem(cfg["matrix"], cfg["family_params"], dense=True)
    L, k = cfg["L"], cfg["k"]
    timing = cfg.get("timing", "off") == "on"
    records = []
    for algorithm in cfg["algorithms"]:
        for s in cfg["s"]:
            for trial in range(cfg["trials"]):
                seed = cfg["seed"] + trial
                start = time.perf_counter()
                approx, fwd, tr = run_cell(algorithm, base, k, s, seed)
                wall_ms = (time.perf_counter() - start) * 1e3 if timing else 0.0
                err = frobenius_error(A, approx)
                records.append(ExperimentRecord(cfg["matrix"], algorithm, L, k, s, trial, seed,
                                                fwd, tr, err, wall_ms))
    records.sort(key=lambda r: (r.matrix_name, r.algorithm, r.L, r.k, r.s, r.trial))
    return records


def records_to_csv(records) -> str:
    """Render records as CSV text with the stable header."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.matrix_name},{r.algorithm},{r.L},{r.k},{r.s},{r.trial},{r.seed},"
            f"{r.forward_queries},{r.transpose_queries},{r.rel_error_fro:.17g},{r.wall_ms:.3f}"
        )
    return "\n".join(lines) + "\n"


def run_sweep(config_path, csv_path) -> list:
    """Load a config file, run the sweep, and write the CSV."""
    with open(config_path, "r", encoding="utf-8") as fh:
        cfg = parse_config(fh.read())
    records = run_experiment(cfg)
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(records_to_csv(records))
    return records
