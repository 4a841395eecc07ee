"""hsskit runs on numpy alone: no import, build or sweep loads scipy.

Each check runs in a fresh interpreter, where no other test has imported
scipy yet.
"""

import json
import os
import subprocess
import sys

import hsskit

SRC = os.path.dirname(os.path.dirname(os.path.abspath(hsskit.__file__)))

SCRIPT = """
import json
import sys

import numpy as np

import hsskit as hk


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


L, k = 4, 2
loaded = {"import": scipy_modules()}
banded = hk.banded_inverse_oracle(64, 5, 0)
grid = hk.grid_schur_oracle(64)
loaded["oracles"] = scipy_modules()
fresh = hk.hss_from_matvecs_fresh(banded, hk.MatvecConfig(L, k, 8, seed=1))
hk.hss_from_matvecs_reused(grid, hk.MatvecConfig(L, k, 8, seed=2, sketch_policy="reused"))
hk.greedy_hss_explicit(hk.dense_from_oracle(banded), L, k)
hk.blr2_from_matvecs(banded, hk.BLR2Pattern.tridiagonal(8, 8), k, 28, seed=3)
hk.hss_apply(fresh, np.ones((64, 3)))
assert hk.serialize(hk.deserialize(hk.serialize(fresh))) == hk.serialize(fresh)
loaded["builds"] = scipy_modules()
hk.hss_from_matvecs_reused(
    banded, hk.MatvecConfig(L, k, 6, seed=4, basis_method="pivoted-qr", sketch_policy="reused")
)
loaded["reused-qr"] = scipy_modules()
records = hk.run_experiment(hk.parse_config(
    "matrix = banded\\nn = 64\\nk = 2\\nalgorithms = explicit, fresh, reused-svd, reused-qr\\ns = 8\\n"
))
assert "reused-qr" in {r.algorithm for r in records}
loaded["sweep"] = scipy_modules()
print(json.dumps(loaded))
"""


def test_no_build_or_sweep_loads_scipy():
    path = filter(None, [SRC, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    loaded = json.loads(out.stdout.splitlines()[-1])
    assert loaded == {stage: [] for stage in ("import", "oracles", "builds", "reused-qr", "sweep")}
