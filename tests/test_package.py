import inspect
import os
import subprocess
import sys
from pathlib import Path

import shiftkrylov
from shiftkrylov import cli, lanczos

PUBLIC = {
    "solve_all", "SolveReport", "METHODS", "true_residual",
    "SparseSymMatrix", "ShiftSet", "FlopCounter", "BreakdownError",
    "read_matrix_market", "write_matrix_market", "read_shifts", "read_rhs", "default_rhs",
    "write_history_csv", "write_summary", "ParseError",
    "DenseOracle", "SingularMatrixError",
    "generate_hamiltonian_analog", "main",
}


def test_all_is_the_public_surface():
    assert len(shiftkrylov.__all__) == len(PUBLIC) == 20
    assert set(shiftkrylov.__all__) == PUBLIC
    for name in shiftkrylov.__all__:
        assert getattr(shiftkrylov, name) is not None


def test_import_loads_every_submodule():
    # a fresh interpreter, so that no other test has imported a submodule first
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, shiftkrylov\n"
         "print(' '.join(sorted(m for m in sys.modules if m.startswith('shiftkrylov.'))))"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    for mod in ("cli", "core", "io", "lanczos", "oracle", "solvers"):
        assert f"shiftkrylov.{mod}" in loaded


def test_no_config_layer_and_no_tolerance_knobs():
    for name in ("RunConfig", "config_from_args", "run"):
        assert not hasattr(cli, name) and not hasattr(shiftkrylov, name)
    assert list(inspect.signature(lanczos.lanczos_init).parameters) == ["A", "b"]
    assert list(inspect.signature(lanczos.lanczos_step).parameters) == ["state", "A", "counter"]
