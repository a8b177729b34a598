"""Multi-shift Krylov solvers for complex symmetric shifted linear systems.

Solves whole families ``(A + sigma_l I) x = b`` from a single complex
symmetric Lanczos run: a quasi-minimal-residual method driven by Givens
rotations, a cheaper bidiagonal-weight variant, a basis-norm-weighted
variant, and a Galerkin baseline, plus dense oracles, Matrix Market I/O and
a benchmark CLI.
"""

from .cli import RunConfig, generate_hamiltonian_analog, run
from .core import (
    BreakdownError,
    FlopCounter,
    ShiftSet,
    SparseSymMatrix,
    bilinear_dot,
    principal_sqrt,
    spmv,
)
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
from .lanczos import (
    LanczosRecord,
    LanczosState,
    LanczosStep,
    lanczos_init,
    lanczos_step,
    run_diagnostic,
)
from .oracle import (
    DenseOracle,
    SingularMatrixError,
    brute_force_wqmr,
    build_elimination_weight,
    dense_solve,
    dense_tridiagonal,
)
from .solvers import (
    METHODS,
    SolveReport,
    cocg_galerkin_update,
    estimate_residual_qmr,
    estimate_residual_qmr_b,
    qmr_sym_b_update,
    qmr_sym_omega_update,
    qmr_sym_update,
    solve_all,
    true_residual,
)

__version__ = "0.1.0"

__all__ = [
    "BreakdownError",
    "DenseOracle",
    "FlopCounter",
    "LanczosRecord",
    "LanczosState",
    "LanczosStep",
    "METHODS",
    "ParseError",
    "RunConfig",
    "ShiftSet",
    "SingularMatrixError",
    "SolveReport",
    "SparseSymMatrix",
    "bilinear_dot",
    "brute_force_wqmr",
    "build_elimination_weight",
    "cocg_galerkin_update",
    "default_rhs",
    "dense_solve",
    "dense_tridiagonal",
    "estimate_residual_qmr",
    "estimate_residual_qmr_b",
    "generate_hamiltonian_analog",
    "lanczos_init",
    "lanczos_step",
    "principal_sqrt",
    "qmr_sym_b_update",
    "qmr_sym_omega_update",
    "qmr_sym_update",
    "read_matrix_market",
    "read_rhs",
    "read_shifts",
    "run",
    "run_diagnostic",
    "solve_all",
    "spmv",
    "true_residual",
    "write_history_csv",
    "write_matrix_market",
    "write_summary",
]
