"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload banded-8192 --seed 0 --seconds 35 --trace 0

Run from the root of a source tree: hsskit is imported from ``src/`` next to
this directory, never from an installed copy.  BLAS threads are pinned to
``BLAS_THREADS`` before numpy is imported, and the process to one CPU.  With
``--trace 0`` the last line of output is a JSON object with the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run.  Details (machine facts, sample
counts and tail percentiles) are printed before it and written, with the
spans of a traced run, under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_REPS = 7
CHILD_TIMEOUT_S = 60


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_hsskit():
    if not os.path.isfile(os.path.join(SRC, "hsskit", "__init__.py")):
        raise SystemExit(f"error: no hsskit sources under {SRC}; run from a source tree")
    sys.path[:0] = [SRC, HERE]
    import hsskit

    if os.path.dirname(os.path.dirname(os.path.abspath(hsskit.__file__))) != SRC:
        raise SystemExit(f"error: hsskit was imported from {hsskit.__file__}, not {SRC}")


def setup_time(workload: str, seed: int) -> float:
    """CPU seconds a fresh process spends from its start until it has
    imported hsskit and built the workload's operators, as it reports them."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--seconds", "0"]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        child.stdout.read()
        code = child.wait(timeout=CHILD_TIMEOUT_S)
    word, _, took = line.partition(" ")
    if word != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
    return float(took)


def _openblas_threads():
    """Thread counts reported by each loaded OpenBLAS library (Linux only)."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln})
    except OSError:
        return {}
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                getattr(lib, sym).restype = ctypes.c_int
                found[os.path.basename(path)] = getattr(lib, sym)()
                break
    return found


def _source_digest():
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "hsskit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine_facts(w, seed: int, cpu) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_pinned": cpu,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": _openblas_threads(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "workload": {"name": w.name, "family": w.family, "n": w.n, "L": w.L,
                     "n_ref": w.n_ref, "L_ref": w.L_ref},
    }


def _report(session, metrics, facts, trace: int):
    from session import tail

    samples = {}
    for name, v in sorted(session.samples.items()):
        samples[name] = {"count": len(v), "min": min(v), "median": statistics.median(v)}
        if tail(v):
            samples[name].update([tail(v)])
        samples[name]["all"] = v
    detail = {"facts": facts, "samples": samples, "scaled": session.scaled,
              "problems": session.problems, "metrics": metrics}
    for name, entry in metrics.items():
        print(f"{name:40s} {entry['value']!r:>24} {entry['unit']}")
    for name, s in samples.items():
        extra = " ".join(f"{k}={v:.6g}" for k, v in s.items() if k.startswith("p") and k != "all")
        print(f"  samples {name:22s} n={s['count']:<5d} min={s['min']:.6g} "
              f"median={s['median']:.6g} {extra}")
    for problem in session.problems:
        print(f"  FAILED {problem}")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{facts['workload']['name']}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print("facts " + json.dumps(facts, sort_keys=True))


def pin_cpu():
    """Keep this process, and the set-up probes it starts, on one CPU, so that
    each reference burst runs where the operations next to it run; returns
    that CPU, or None where affinity cannot be set."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv=None) -> int:
    args = _args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    cpu = pin_cpu()
    _import_hsskit()
    from session import END_TO_END, PER_LAYER, WORKLOADS, Session

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        Session(workload, args.seed)
        print(f"ready {time.process_time()!r}", flush=True)
        return 0

    session = Session(workload, args.seed)
    try:
        session.prepare()
        if args.trace:
            metrics, tracer = session.measure_traced(args.seconds)
            os.makedirs(OUT, exist_ok=True)
            tracer.dump(os.path.join(OUT, f"{workload.name}.spans.jsonl"))
        else:
            probe = lambda: setup_time(args.workload, args.seed)
            session.measure(args.seconds, probe, SETUP_REPS)
            metrics = session.end_to_end()
    except Exception as exc:  # a broken run still ends with its counts
        traceback.print_exc()
        session.attempted += 1
        session.fail("run", f"{type(exc).__name__}: {exc}")
        names = PER_LAYER if args.trace else END_TO_END
        metrics = {name: {"value": None, "unit": unit} for name, unit in names}
    _report(session, metrics, machine_facts(workload, args.seed, cpu), args.trace)
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
