"""Multi-shift Krylov solvers for complex symmetric shifted linear systems.

Solves whole families ``(A + sigma_l I) x = b`` from a single complex
symmetric Lanczos run: a quasi-minimal-residual method driven by Givens
rotations, a cheaper bidiagonal-weight variant, a basis-norm-weighted
variant, and a Galerkin baseline, plus a dense oracle, Matrix Market I/O and
a benchmark CLI.

The names below are the public surface. Kernels, the Lanczos recurrence and
the per-method updates are imported from their modules (``shiftkrylov.core``,
``shiftkrylov.lanczos``, ``shiftkrylov.solvers``).
"""

from . import cli, core, io, lanczos, oracle, solvers
from .cli import generate_hamiltonian_analog, main
from .core import BreakdownError, FlopCounter, ShiftSet, SparseSymMatrix
from .io import (
    ParseError,
    default_rhs,
    read_matrix_market,
    read_rhs,
    read_shifts,
    write_history_csv,
    write_matrix_market,
    write_summary,
)
from .oracle import DenseOracle, SingularMatrixError
from .solvers import METHODS, SolveReport, solve_all, true_residual

__version__ = "0.1.0"

__all__ = [
    "BreakdownError",
    "DenseOracle",
    "FlopCounter",
    "METHODS",
    "ParseError",
    "ShiftSet",
    "SingularMatrixError",
    "SolveReport",
    "SparseSymMatrix",
    "default_rhs",
    "generate_hamiltonian_analog",
    "main",
    "read_matrix_market",
    "read_rhs",
    "read_shifts",
    "solve_all",
    "true_residual",
    "write_history_csv",
    "write_matrix_market",
    "write_summary",
]
