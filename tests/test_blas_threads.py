"""Results do not depend on the number of BLAS threads.

OpenBLAS splits a dot product across threads above 10,000 entries, which
changes how it rounds. Each method solves the same complex symmetric problem
with N > 10,000 in two fresh interpreters, one with one BLAS thread and one
with two, and every result must agree bit for bit.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SOLVE = """
import hashlib, json
import numpy as np
from shiftkrylov import METHODS, SparseSymMatrix, solve_all

# a complex symmetric chain: hopping -1, random on-site energies plus 0.2i
n = 12_000
rng = np.random.default_rng(3)
i = np.arange(n - 1)
rows = np.concatenate([i, i + 1, np.arange(n)])
cols = np.concatenate([i + 1, i, np.arange(n)])
vals = np.concatenate([np.full(2 * (n - 1), -1.0), rng.uniform(-1.0, 1.0, n) + 0.2j])
A = SparseSymMatrix.from_coo(n, rows, cols, vals)
b = rng.standard_normal(n)
out = {}
for method in METHODS:
    x, report = solve_all(A, b, [-0.5 + 0.1j, 0.3 + 0.05j, 1.2 + 0.2j], method=method,
                          tol=1e-10, max_iter=40, record_history=True)
    out[method] = {
        "solutions": hashlib.sha256(x.tobytes()).hexdigest(),
        "iters": report.iters.tolist(),
        "estimates": [float(e).hex() for e in report.final_rel_estimate],
        "history": [[(k, float(e).hex()) for k, e in h] for h in report.history],
    }
print(json.dumps(out))
"""


def _cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _solve(threads):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", SOLVE], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.skipif(_cpus() < 2, reason="needs two CPUs for two BLAS threads")
def test_results_are_bitwise_equal_for_one_and_two_blas_threads():
    one, two = _solve(1), _solve(2)
    differ = [(method, what) for method in one for what in one[method]
              if one[method][what] != two[method][what]]
    assert differ == []
