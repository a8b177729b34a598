"""Complex symmetric Lanczos recurrence.

One run of this three-term recurrence supplies the basis vectors and
tridiagonal coefficients consumed by every per-shift solver: shifting the
matrix by ``sigma*I`` leaves the Krylov space unchanged, so the basis is
generated once and shared.

The recurrence orthogonalizes under the bilinear product ``u^T v`` and
normalizes each vector to ``v^T v = 1`` (not unit 2-norm). Only the two most
recent vectors are retained; each new one is formed in the array the matvec
returns and normalized there, by one multiply with ``1 / beta_n`` on a complex
basis (a division on a real one). Its 2-norm is published with it, as
``||v~|| / |beta_n|`` from the norm the step takes anyway.

Termination and breakdown are distinguished by two relative thresholds:
``||v~|| <= TERMINATION_TOL * ||b||`` signals an invariant subspace (lucky
termination, every shifted system is then solvable exactly within it), while
``|v~^T v~| <= BREAKDOWN_TOL * ||v~||^2`` with a non-negligible ``v~`` is a
serious breakdown of the bilinear pairing and aborts the process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    BreakdownError,
    FlopCounter,
    SparseSymMatrix,
    _norm2,
    bilinear_dot,
    principal_sqrt,
    spmv,
)

__all__ = [
    "BREAKDOWN_TOL",
    "TERMINATION_TOL",
    "LanczosState",
    "LanczosStep",
    "lanczos_init",
    "lanczos_step",
]

# Relative degeneracy thresholds, both at machine-epsilon scale.
BREAKDOWN_TOL = 1e-14
TERMINATION_TOL = 1e-14


@dataclass
class LanczosState:
    """Rolling state of the recurrence: the two newest basis vectors and the
    last ``beta``, which the next step needs as its ``beta_{n-1}``."""

    v_prev: np.ndarray
    v_curr: np.ndarray
    beta_prev: complex
    g1: complex
    bnorm2: float
    n: int = 0
    finished: bool = False


class LanczosStep(NamedTuple):
    """Data published by one step ``n``: everything a per-shift update needs.

    ``lucky`` marks an invariant subspace; then ``beta == 0`` and ``v_next``
    is the zero vector. ``v_next_norm`` is the 2-norm of ``v_next``, taken
    as ``||v~|| / |beta_n|`` from the norm the step already computed (``0.0``
    on lucky termination); it agrees with a direct norm of ``v_next`` to a
    few units in the last place. A named tuple: immutable like a frozen
    dataclass, and built by keyword or position at a fraction of its cost.
    """

    n: int
    alpha: complex
    beta_prev: complex
    beta: complex
    v: np.ndarray
    v_next: np.ndarray
    v_next_norm: float
    lucky: bool


def lanczos_init(A: SparseSymMatrix, b) -> LanczosState:
    """Start the recurrence: ``v_1 = b / (b^T b)^{1/2}``, ``g_1 = (b^T b)^{1/2}``.

    Real ``A`` and real ``b`` keep the whole basis in float64. Raises
    :class:`BreakdownError` when ``b^T b`` is negligible relative to
    ``||b||^2`` (the bilinear pairing is degenerate at the start, e.g.
    ``b = (1+1j, 1-1j)``).
    """
    b = np.asarray(b)
    if b.shape != (A.n,):
        raise ValueError(f"rhs length {b.shape} does not match matrix dimension {A.n}")
    real_path = A.is_real and b.dtype.kind != "c"
    if not real_path:
        b = b.astype(np.complex128)
    bnorm2 = _norm2(b)
    if bnorm2 == 0.0:
        raise ValueError("rhs must be nonzero")
    btb = bilinear_dot(b, b)
    if abs(btb) <= BREAKDOWN_TOL * bnorm2**2:
        raise BreakdownError("bilinear", 0, f"|b^T b| = {abs(btb):.3e} vs ||b||^2 = {bnorm2**2:.3e}")
    g1 = principal_sqrt(btb)
    v1 = b / g1
    return LanczosState(
        v_prev=np.zeros_like(v1),
        v_curr=v1,
        beta_prev=0.0,
        g1=g1,
        bnorm2=bnorm2,
    )


def lanczos_step(
    state: LanczosState, A: SparseSymMatrix, counter: FlopCounter | None = None
) -> LanczosStep:
    """Advance one step: compute ``alpha_n``, ``v~ = A v_n - alpha_n v_n -
    beta_{n-1} v_{n-1}``, ``beta_n = (v~^T v~)^{1/2}`` (principal branch) and
    the normalized ``v_{n+1}``. ``v~`` is formed and normalized in place in
    the array the matvec returns, with the roundings of the expression
    ``(A v_n - alpha_n v_n - beta_{n-1} v_{n-1}) * (1 / beta_n)`` on a
    complex basis and ``(...) / beta_n`` on a real one. ``||v~||`` is taken
    by BLAS ``dznrm2`` (``dnrm2`` on a real basis), whose bits do not depend
    on the BLAS thread count; it feeds the termination and breakdown tests
    and the published ``||v_{n+1}|| = ||v~|| / |beta_n|``, so no reader of
    the step takes that norm again.

    Returns the step data and advances the state; each step's ``v_next`` is
    a new array, so the vectors of earlier steps stay as they were. On lucky
    termination the state is marked finished and further calls raise
    ``RuntimeError``; a serious breakdown raises :class:`BreakdownError` and
    leaves the state unusable.
    """
    if state.finished:
        raise RuntimeError("Lanczos process already terminated")
    n = state.n + 1
    v = state.v_curr
    vt = spmv(A, v, counter=counter)  # a fresh array: v~ is formed in it
    alpha = bilinear_dot(v, vt)
    buf = np.empty_like(vt)  # one buffer for both scaled vectors
    vt -= np.multiply(alpha, v, out=buf)
    vt -= np.multiply(state.beta_prev, state.v_prev, out=buf)
    vt_norm = _norm2(vt)
    if vt_norm <= TERMINATION_TOL * state.bnorm2:
        beta = 0.0
        v_next = np.zeros_like(vt)
        v_next_norm = 0.0
        lucky = True
        state.finished = True
    else:
        vtvt = bilinear_dot(vt, vt)
        if abs(vtvt) <= BREAKDOWN_TOL * vt_norm**2:
            raise BreakdownError(
                "bilinear", n, f"|v~^T v~| = {abs(vtvt):.3e} vs ||v~||^2 = {vt_norm**2:.3e}"
            )
        beta = principal_sqrt(vtvt)
        if vt.dtype.kind == "c":
            vt *= 1.0 / beta  # NumPy divides complex arrays without SIMD
        else:
            vt /= beta
        v_next = vt
        v_next_norm = vt_norm / abs(beta)
        lucky = False
    step = LanczosStep(n, alpha, state.beta_prev, beta, v, v_next, v_next_norm, lucky)
    state.v_prev = v
    state.v_curr = v_next
    state.beta_prev = beta
    state.n = n
    return step
