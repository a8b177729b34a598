"""Complex symmetric Lanczos recurrence.

One run of this three-term recurrence supplies the basis vectors and
tridiagonal coefficients consumed by every per-shift solver: shifting the
matrix by ``sigma*I`` leaves the Krylov space unchanged, so the basis is
generated once and shared.

The recurrence orthogonalizes under the bilinear product ``u^T v`` and
normalizes each vector to ``v^T v = 1`` (not unit 2-norm). Only the two most
recent vectors are retained. One function, :func:`_normalize`, turns ``b``
into ``v_1`` and each new ``v~`` into ``v_{n+1}``, in place, from the one
2-norm it takes, which also gives the published ``||v_{n+1}|| = ||v~|| / |beta_n|``.

Termination and breakdown are distinguished by two relative thresholds, both
on the scale of ``v~`` itself, which is that of ``A`` and not that of ``b``:
``||v~|| <= TERMINATION_TOL * (|alpha_n| ||v_n|| + |beta_{n-1}| ||v_{n-1}||)``
(``v~`` cancelled to rounding against its terms) signals an invariant
subspace (lucky termination, every shifted system is then solvable exactly
within it), while ``|v~^T v~| <= BREAKDOWN_TOL * ||v~||^2`` is a serious
breakdown of the bilinear pairing and aborts the process.
"""

from __future__ import annotations

import math
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
    """Rolling state of the recurrence: the two newest basis vectors, their
    published 2-norms ``v_norms`` (``||v_prev||``, ``||v_curr||``) and the
    last ``beta``, which the next step needs as its ``beta_{n-1}``."""

    v_prev: np.ndarray
    v_curr: np.ndarray
    beta_prev: complex
    g1: complex
    bnorm2: float
    v_norms: tuple
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


def _normalize(x: np.ndarray, n: int, floor: float):
    """Scale ``x`` in place to ``x^T x = 1``: ``b`` at step ``n = 0``, else step ``n``'s ``v~``.

    Returns ``None``, leaving ``x`` as it is, if ``||x|| <= floor``, else
    ``(beta, ||x||)``, ``beta = (x^T x)^{1/2}`` on the principal branch, after
    one multiply with ``1 / beta`` (complex ``x``) or a division by ``beta``
    (real ``x``). ``||x||`` is BLAS ``dznrm2`` or ``dnrm2``; a norm outside
    ``[2^-250, 2^250]`` is first multiplied by the power of two ``2^e``,
    ``|e| <= 1022``, that brings it nearest ``[1/2, 1)`` (into ``[2^-52, 4)``
    at worst), so that ``x^T x`` neither over- nor underflows.
    """
    xnorm = _norm2(x)
    if not math.isfinite(xnorm):
        raise ValueError(f"||v|| = {xnorm} at Lanczos step {n}: the input exceeds float64 range")
    if xnorm <= floor:
        return None
    e = 0 if 2.0**-250 <= xnorm <= 2.0**250 else max(-1022, min(1022, -math.frexp(xnorm)[1]))
    norm = math.ldexp(xnorm, e)
    if e:
        x *= math.ldexp(1.0, e)
    xtx = bilinear_dot(x, x)
    if abs(xtx) <= BREAKDOWN_TOL * norm * norm:
        raise BreakdownError("bilinear", n, f"|v^T v| = {abs(xtx) / (norm * norm):.3e} ||v||^2")
    beta = principal_sqrt(xtx)
    if x.dtype.kind == "c":
        x *= 1.0 / beta  # NumPy divides complex arrays without SIMD
    else:
        x /= beta
    return (beta * math.ldexp(1.0, -e) if e else beta), xnorm


def lanczos_init(A: SparseSymMatrix, b) -> LanczosState:
    """Start the recurrence: ``v_1 = b / (b^T b)^{1/2}``, ``g_1 = (b^T b)^{1/2}``.

    Real ``A`` and real ``b`` keep the whole basis in float64. Raises
    :class:`BreakdownError` when ``b^T b`` is negligible relative to
    ``||b||^2`` (the bilinear pairing is degenerate at the start, e.g.
    ``b = (1+1j, 1-1j)``), and ``ValueError`` when ``||b||`` is zero or not
    finite; their messages name ``b`` as the vector ``v`` of step 0.
    """
    b = np.asarray(b)
    if b.shape != (A.n,):
        raise ValueError(f"rhs length {b.shape} does not match matrix dimension {A.n}")
    v1 = b.astype(np.float64 if A.is_real and b.dtype.kind != "c" else np.complex128)
    normalized = _normalize(v1, 0, 0.0)
    if normalized is None:
        raise ValueError("rhs must be nonzero")
    g1, bnorm2 = normalized
    return LanczosState(
        v_prev=np.zeros_like(v1),
        v_curr=v1,
        beta_prev=0.0,
        g1=g1,
        bnorm2=bnorm2,
        v_norms=(0.0, bnorm2 / abs(g1)),
    )


def lanczos_step(
    state: LanczosState, A: SparseSymMatrix, counter: FlopCounter | None = None
) -> LanczosStep:
    """Advance one step: compute ``alpha_n`` and ``v~ = A v_n - alpha_n v_n -
    beta_{n-1} v_{n-1}`` in the array the matvec returns, and normalize it
    there into ``v_{n+1}`` (:func:`_normalize`): ``beta_n = (v~^T v~)^{1/2}``
    and the published ``||v_{n+1}|| = ||v~|| / |beta_n|`` come from the one
    norm it takes, so no reader of the step takes that norm again.

    Returns the step data and advances the state; each step's ``v_next`` is
    a new array, so the vectors of earlier steps stay as they were. On lucky
    termination the state is marked finished and further calls raise
    ``RuntimeError``; a serious breakdown raises :class:`BreakdownError`, and
    a ``v~`` whose 2-norm is not finite ``ValueError``; both leave the state unusable.
    """
    if state.finished:
        raise RuntimeError("Lanczos process already terminated")
    n = state.n + 1
    v = state.v_curr
    vt = spmv(A, v, counter=counter)  # a fresh array: v~ is formed in it
    buf = np.empty_like(vt)  # one buffer for both scaled vectors
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is the ValueError below
        alpha = bilinear_dot(v, vt)
        vt -= np.multiply(alpha, v, out=buf)
        vt -= np.multiply(state.beta_prev, state.v_prev, out=buf)
    prev_norm, v_norm = state.v_norms
    floor = TERMINATION_TOL * (abs(alpha) * v_norm + abs(state.beta_prev) * prev_norm)
    normalized = _normalize(vt, n, floor)
    if normalized is None:
        beta = 0.0
        v_next = np.zeros_like(vt)
        v_next_norm = 0.0
        lucky = True
        state.finished = True
    else:
        beta, vt_norm = normalized
        v_next = vt
        v_next_norm = vt_norm / abs(beta)
        lucky = False
    step = LanczosStep(n, alpha, state.beta_prev, beta, v, v_next, v_next_norm, lucky)
    state.v_prev = v
    state.v_curr = v_next
    state.beta_prev = beta
    state.v_norms = (v_norm, v_next_norm)
    state.n = n
    return step
