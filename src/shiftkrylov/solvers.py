"""Per-shift update engines over one shared Lanczos stream.

Four method kernels consume the same Lanczos step data, one state object per
shift:

* ``qmr-sym`` -- quasi-minimal residual via Givens rotations on the shifted
  tridiagonal column; three-term direction recurrence (6N+3 update ops per
  shift per step).
* ``qmr-sym-b`` -- the bidiagonal-weight variant: a single elimination scalar
  replaces the rotations and the direction recurrence drops to two terms
  (4N+2 ops per shift per step).
* ``qmr-sym-omega`` -- rotation variant with the active column scaled
  row-wise by the basis 2-norms ``omega_i = ||v_i||``, minimizing the
  2-norm-weighted quasi-residual.
* ``cocg`` -- Galerkin baseline. Its iterates coincide with the shifted
  conjugate-orthogonal CG iterates, which this implementation realizes
  through the *same* two-term recurrences as ``qmr-sym-b`` (the projected
  Galerkin system and the bidiagonal-weight least-squares problem have the
  same solution). It is kept as a distinct method because its reported
  residuals are computed explicitly as ``||b - (A + sigma I) x||`` instead of
  through the recurrence shortcut, giving an independent reporting route.
  After the per-shift updates of a step, the explicit residuals of all its
  updated shifts come from one sparse block product ``A X^T`` per block of
  at most ``2**14`` iterate entries (:func:`true_residual`), not from one
  matvec per shift.

The multi-shift driver :func:`solve_all` runs one Lanczos step per iteration,
then applies the chosen kernel to every shift that has not yet converged
(deflation) or broken down. Each shift's arithmetic is self-contained, so
results are independent of how the per-shift loop is scheduled and of which
other shifts share a residual block.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

# spmv stays a name of this module: perfbench/spans.py wraps solvers.spmv
from .core import BreakdownError, FlopCounter, ShiftSet, SparseSymMatrix, spmv  # noqa: F401
from .lanczos import LanczosStep, lanczos_init, lanczos_step

__all__ = [
    "METHODS",
    "ShiftSystemState",
    "SolveReport",
    "cocg_galerkin_update",
    "estimate_residual_qmr",
    "estimate_residual_qmr_b",
    "make_shift_state",
    "qmr_sym_b_update",
    "qmr_sym_omega_update",
    "qmr_sym_update",
    "solve_all",
    "true_residual",
]

METHODS = ("cocg", "qmr-sym", "qmr-sym-b", "qmr-sym-omega")

# Nominal least-squares scalar-op charges per shift update.
_LSQ_OPS_ROTATION = 26
_LSQ_OPS_ELIMINATION = 8

# Iterate entries per explicit-residual block: solve_all hands
# max(1, _BLOCK_ELEMS // N) shifts at a time to true_residual, which bounds
# the block's temporaries to a few times this many complex entries.
_BLOCK_ELEMS = 2**14


@dataclass(slots=True)
class ShiftSystemState:
    """Per-shift solver state; field usage depends on the method.

    The rotation methods keep the last two direction vectors, rotated-column
    diagonals and Givens pairs; the elimination methods keep one direction
    vector, one diagonal and the last elimination scalar. ``g`` always holds
    the current quasi-residual scalar (``g_{n+1}`` respectively
    ``g~_{n+1}`` after an update). Once ``converged`` or ``broken`` is set
    the state is frozen.
    """

    sigma: complex
    method: str
    x: np.ndarray
    g: complex
    real_path: bool
    p_prev: np.ndarray | None = None
    p_prev2: np.ndarray | None = None
    diag_prev: complex = 0.0
    diag_prev2: complex = 0.0
    rot_prev: tuple | None = None
    rot_prev2: tuple | None = None
    f_prev: complex | None = None
    w: np.ndarray | None = None
    converged: bool = False
    broken: bool = False
    failure: str | None = None
    niter: int = 0
    res: float = np.inf
    history: list | None = None


def make_shift_state(
    sigma,
    method: str,
    g1,
    v1: np.ndarray,
    real_path: bool,
    record_history: bool = False,
    omega1: float | None = None,
) -> ShiftSystemState:
    """Initial state for one shift: ``x_0 = 0``, quasi-residual ``g_1``.

    For ``qmr-sym`` on the complex path the residual-estimate vector starts
    as ``w_1 = v_1``; the omega variant scales ``g_1`` by ``omega_1`` and
    starts from ``w_1 = v_1 / omega_1``.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    sigma = complex(sigma)
    x = np.zeros(len(v1), dtype=np.complex128)
    g = complex(g1)
    w = None
    if method == "qmr-sym" and not real_path:
        w = v1.astype(np.complex128)
    elif method == "qmr-sym-omega":
        if omega1 is None:
            omega1 = float(np.linalg.norm(v1))
        g = omega1 * g
        w = v1.astype(np.complex128) / omega1
    return ShiftSystemState(
        sigma=sigma,
        method=method,
        x=x,
        g=g,
        real_path=real_path,
        w=w,
        history=[] if record_history else None,
    )


def _givens(t_n: complex, t_np1: complex) -> tuple[float, complex]:
    """Rotation zeroing the subdiagonal entry: ``c`` real nonnegative,
    ``sbar = (t_{n+1,n} / t_{n,n}) c``. The pivot ``t_{n,n}`` must be
    nonzero; the caller checks."""
    den = math.hypot(abs(t_n), abs(t_np1))
    c = abs(t_n) / den
    sbar = (t_np1 / t_n) * c
    return float(c), complex(sbar)


def _rotation_update(
    state: ShiftSystemState,
    step_n: int,
    t_nm1: complex,
    t_n: complex,
    t_np1: complex,
    v: np.ndarray,
    v_next_scaled: np.ndarray | None,
    counter: FlopCounter | None,
) -> None:
    """Shared body of the rotation-based updates (identity and omega
    weights): apply the previous two rotations to the active column, compute
    the new rotation, and advance g, p, x and w."""
    t_nm2 = 0.0 + 0.0j
    if state.rot_prev2 is not None:
        c2, s2 = state.rot_prev2
        t_nm2 = s2 * t_nm1
        t_nm1 = c2 * t_nm1
    if state.rot_prev is not None:
        c1, s1 = state.rot_prev
        t_nm1, t_n = c1 * t_nm1 + s1 * t_n, -np.conj(s1) * t_nm1 + c1 * t_n
    if t_n == 0:
        raise BreakdownError("rotation", step_n, f"zero pivot for shift {state.sigma}")
    c, sbar = _givens(t_n, t_np1)
    s = np.conj(sbar)
    t_final = c * t_n + s * t_np1
    g_old = state.g
    g_rot = c * g_old
    state.g = -sbar * g_old

    p = v.astype(np.complex128, copy=True)
    if state.p_prev is not None:
        p -= (t_nm1 / state.diag_prev) * state.p_prev
    if state.p_prev2 is not None:
        p -= (t_nm2 / state.diag_prev2) * state.p_prev2
    state.x += (g_rot / t_final) * p

    if state.w is not None:
        state.w = -s * state.w + c * v_next_scaled

    state.p_prev2, state.p_prev = state.p_prev, p
    state.diag_prev2, state.diag_prev = state.diag_prev, t_final
    state.rot_prev2, state.rot_prev = state.rot_prev, (c, s)
    state.niter = step_n
    if counter is not None:
        counter.add_shift_update(6 * len(v) + 3)
        counter.add_least_squares(_LSQ_OPS_ROTATION)


def qmr_sym_update(
    state: ShiftSystemState,
    alpha,
    beta_prev,
    beta,
    v: np.ndarray,
    v_next: np.ndarray,
    counter: FlopCounter | None = None,
) -> ShiftSystemState:
    """One quasi-minimal-residual step for a single shift.

    Forms the active column ``(beta_{n-1}, alpha_n + sigma, beta_n)``,
    rotates it through the stored Givens pairs, computes the new rotation and
    updates solution, directions and the residual-estimate vector
    ``w_{n+1} = -s_n w_n + c_n v_{n+1}``.
    """
    _rotation_update(
        state,
        state.niter + 1,
        complex(beta_prev),
        complex(alpha) + state.sigma,
        complex(beta),
        v,
        v_next if state.w is not None else None,
        counter,
    )
    return state


def _scaled_next(v_next: np.ndarray, omega_np1: float) -> np.ndarray:
    """``v_{n+1} / omega_{n+1}``, the omega variant's estimate direction."""
    # omega_np1 vanishes only on lucky termination, where v_next is zero anyway
    return v_next / (omega_np1 if omega_np1 > 0 else 1.0)


def qmr_sym_omega_update(
    state: ShiftSystemState,
    alpha,
    beta_prev,
    beta,
    v: np.ndarray,
    v_next: np.ndarray,
    omegas: tuple,
    counter: FlopCounter | None = None,
    v_next_scaled: np.ndarray | None = None,
) -> ShiftSystemState:
    """Rotation step on the row-scaled column.

    ``omegas = (omega_{n-1}, omega_n, omega_{n+1})`` are the 2-norms of the
    corresponding basis vectors; the residual-estimate recurrence tracks
    ``w~_{n+1} = -s_n w~_n + c_n v_{n+1} / omega_{n+1}`` so that the
    estimate ``|g_{n+1}| ||w~_{n+1}||`` equals the true residual norm.
    A caller updating many shifts (as :func:`solve_all` does) passes
    ``v_next_scaled = v_{n+1} / omega_{n+1}`` computed once per step;
    otherwise it is computed here.
    """
    om_nm1, om_n, om_np1 = omegas
    if v_next_scaled is None:
        v_next_scaled = _scaled_next(v_next, om_np1)
    _rotation_update(
        state,
        state.niter + 1,
        om_nm1 * complex(beta_prev),
        om_n * (complex(alpha) + state.sigma),
        om_np1 * complex(beta),
        v,
        v_next_scaled,
        counter,
    )
    return state


def _elimination_update(
    state: ShiftSystemState,
    alpha,
    beta_prev,
    beta,
    v: np.ndarray,
    counter: FlopCounter | None,
) -> None:
    """Shared two-term recurrence of the bidiagonal-weight and Galerkin
    methods. Breaks down on an exactly zero pivot, which happens precisely
    when the shifted leading tridiagonal block is singular."""
    step_n = state.niter + 1
    t_nm1 = complex(beta_prev)
    t_n = complex(alpha) + state.sigma
    t_np1 = complex(beta)
    if state.f_prev is not None:
        t_n = state.f_prev * t_nm1 + t_n
    if t_n == 0:
        raise BreakdownError("pivot", step_n, f"zero elimination pivot for shift {state.sigma}")
    f = -t_np1 / t_n
    g_cur = state.g
    state.g = f * g_cur

    p = v.astype(np.complex128, copy=True)
    if state.p_prev is not None:
        p -= (t_nm1 / state.diag_prev) * state.p_prev
    state.x += (g_cur / t_n) * p

    state.p_prev = p
    state.diag_prev = t_n
    state.f_prev = f
    state.niter = step_n
    if counter is not None:
        counter.add_shift_update(4 * len(v) + 2)
        counter.add_least_squares(_LSQ_OPS_ELIMINATION)


def qmr_sym_b_update(
    state: ShiftSystemState,
    alpha,
    beta_prev,
    beta,
    v: np.ndarray,
    counter: FlopCounter | None = None,
) -> ShiftSystemState:
    """One bidiagonal-weight step: eliminate the subdiagonal with a single
    scalar ``f_n = -t_{n+1,n} / t_{n,n}``, propagate ``g~_{n+1} = f_n g~_n``
    and advance the two-term direction/solution recurrences."""
    _elimination_update(state, alpha, beta_prev, beta, v, counter)
    return state


def cocg_galerkin_update(
    state: ShiftSystemState,
    alpha,
    beta_prev,
    beta,
    v: np.ndarray,
    counter: FlopCounter | None = None,
) -> ShiftSystemState:
    """One Galerkin-baseline step.

    The iterate solves the projected system ``(T_n + sigma I_n) y = g_1 e_1``
    and therefore equals the shifted conjugate-orthogonal-CG iterate; the
    recurrences are the same as :func:`qmr_sym_b_update`. Reported residuals
    for this method are computed explicitly by the driver rather than from
    the recurrence scalars.
    """
    _elimination_update(state, alpha, beta_prev, beta, v, counter)
    return state


def estimate_residual_qmr(state: ShiftSystemState) -> float:
    """Residual 2-norm estimate ``|g_{n+1}| * ||w_{n+1}||`` for the rotation
    method. On the real path the norm factor is identically one and the
    estimate is returned as exactly ``|g_{n+1}|``."""
    if state.w is None:
        return abs(state.g)
    return abs(state.g) * float(np.linalg.norm(state.w))


def estimate_residual_qmr_b(state: ShiftSystemState, v_next: np.ndarray) -> float:
    """Residual 2-norm estimate ``|g~_{n+1}| * ||v_{n+1}||`` for the
    bidiagonal-weight method. On the real path basis vectors have unit
    2-norm and the estimate is exactly ``|g~_{n+1}|``. The driver computes
    ``||v_{n+1}||`` once per iteration and shares it across shifts."""
    if state.real_path:
        return abs(state.g)
    return abs(state.g) * float(np.linalg.norm(v_next))


def true_residual(A: SparseSymMatrix, sigma, b, x, counter: FlopCounter | None = None):
    """Explicit residual norm ``||b - (A + sigma I) x||_2``.

    For one shift, ``sigma`` is a scalar, ``x`` has shape ``(N,)`` and the
    norm is returned as a ``float``. For a block, ``sigma`` has shape
    ``(k,)`` and ``x`` shape ``(k, N)``, one iterate per row; the ``k`` norms
    come back as an array from one sparse product ``A X^T`` over the whole
    block (no copy is needed when ``x`` is the transpose of a C-contiguous
    ``(N, k)`` array). A real ``A`` multiplies complex iterates as a float64
    view with ``2k`` real columns. Each norm is taken over its own
    contiguous row, so a shift's value does not depend on which other rows
    share its block. Each row is charged as one matvec.
    """
    b = np.asarray(b)
    x = np.asarray(x)
    X = np.atleast_2d(x)
    sigmas = np.atleast_1d(np.asarray(sigma))
    if b.shape != (A.n,) or X.ndim != 2 or X.shape[1] != A.n or sigmas.shape != (len(X),):
        raise ValueError("dimension mismatch")
    XT = np.ascontiguousarray(X.T, dtype=np.result_type(X, np.float64))
    if A.is_real and XT.dtype.kind == "c":
        RT = (A.csr @ XT.view(np.float64)).view(np.complex128)
    else:
        RT = A.csr @ XT
    # R^T = (b - A X^T) - X^T diag(sigma), formed in the product's buffer
    # when the dtypes allow; every entry is rounded as in b - A x - sigma x
    dtype = np.result_type(RT, b, sigmas, XT)
    RT = np.subtract(b[:, None], RT, out=RT if RT.dtype == dtype else None, dtype=dtype)
    RT -= XT * sigmas
    if counter is not None:
        counter.add_matvec(len(X) * A.nnz, real=A.is_real and X.dtype.kind != "c")
    R = np.ascontiguousarray(RT.T)
    if R.dtype.kind == "c":
        R = R.view(np.float64)
    norms = np.sqrt(np.einsum("ij,ij->i", R, R))
    return float(norms[0]) if x.ndim == 1 else norms


@dataclass
class SolveReport:
    """Outcome of one multi-shift solve.

    ``status[l]`` is ``"converged"``, ``"breakdown"`` or ``"unconverged"``;
    ``iters[l]`` counts the updates applied to shift ``l`` (its deflation
    step when converged). Estimates and true residuals are relative to
    ``||b||``. ``history`` (when recorded) holds per-shift lists of
    ``(iteration, relative_estimate)`` pairs, one entry per iteration the
    shift was active.
    """

    method: str
    n: int
    m: int
    tol: float
    bnorm: float
    iterations: int
    lucky: bool
    wall_time: float
    shifts: np.ndarray
    status: list
    iters: np.ndarray
    final_rel_estimate: np.ndarray
    flops: FlopCounter
    final_rel_true: np.ndarray | None = None
    failure: list = field(default_factory=list)
    history: list | None = None

    @property
    def all_converged(self) -> bool:
        return all(s == "converged" for s in self.status)

    @property
    def any_breakdown(self) -> bool:
        return any(s == "breakdown" for s in self.status)


@dataclass(slots=True)
class _SharedStep:
    """Per-iteration data shared read-only by all shift updates."""

    step: LanczosStep
    v_next_norm: float
    omegas: tuple | None
    v_next_scaled: np.ndarray | None  # v_{n+1} / omega_{n+1}, omega method only
    bnorm: float


def _apply_update(state: ShiftSystemState, shared: _SharedStep, counter: FlopCounter | None):
    step = shared.step
    if state.method == "qmr-sym":
        qmr_sym_update(state, step.alpha, step.beta_prev, step.beta, step.v, step.v_next, counter)
    elif state.method == "qmr-sym-b":
        qmr_sym_b_update(state, step.alpha, step.beta_prev, step.beta, step.v, counter)
    elif state.method == "qmr-sym-omega":
        qmr_sym_omega_update(
            state,
            step.alpha,
            step.beta_prev,
            step.beta,
            step.v,
            step.v_next,
            shared.omegas,
            counter,
            v_next_scaled=shared.v_next_scaled,
        )
    else:  # cocg
        cocg_galerkin_update(state, step.alpha, step.beta_prev, step.beta, step.v, counter)


def _estimate(state: ShiftSystemState, shared: _SharedStep) -> float:
    if state.method == "qmr-sym-b":
        if state.real_path:
            return abs(state.g)
        return abs(state.g) * shared.v_next_norm
    return estimate_residual_qmr(state)


def _record(state: ShiftSystemState, res: float, bnorm: float):
    state.res = res
    if state.history is not None:
        state.history.append((state.niter, res / bnorm))


def _advance_shift(state: ShiftSystemState, shared: _SharedStep, counter: FlopCounter | None):
    """Update one shift and record its new residual estimate; a per-shift
    breakdown freezes the state at the previous step. ``cocg`` residuals are
    recorded afterwards by :func:`_residual_norms` over all updated shifts."""
    try:
        _apply_update(state, shared, counter)
    except BreakdownError as exc:
        state.broken = True
        state.failure = str(exc)
        return
    if state.method != "cocg":
        _record(state, _estimate(state, shared), shared.bnorm)


def _residual_norms(A: SparseSymMatrix, b: np.ndarray, states: list, counter) -> np.ndarray:
    """Explicit residual norms of the states' current iterates, through one
    :func:`true_residual` block per ``max(1, _BLOCK_ELEMS // N)`` states."""
    k = max(1, _BLOCK_ELEMS // A.n)
    norms = np.empty(len(states))
    for lo in range(0, len(states), k):
        block = states[lo : lo + k]
        # stacked column-wise, so the (k, N) block is a transposed view
        # and true_residual multiplies it without another copy
        X = np.stack([st.x for st in block], axis=1).T
        norms[lo : lo + k] = true_residual(
            A, np.array([st.sigma for st in block]), b, X, counter=counter
        )
    return norms


def _check_finite(values: np.ndarray, name: str):
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        raise ValueError(f"{name}[{bad[0]}] = {values[bad[0]]} is not finite")


def solve_all(
    A: SparseSymMatrix,
    b,
    shifts,
    method: str = "qmr-sym",
    tol: float = 1e-12,
    max_iter: int | None = None,
    record_history: bool = False,
    true_residuals: bool = False,
    counter: FlopCounter | None = None,
    workers: int = 1,
    callback=None,
):
    """Solve ``(A + sigma_l I) x = b`` for every shift over one Lanczos run.

    Parameters
    ----------
    A : SparseSymMatrix
        Symmetric (``A^T = A``) system matrix.
    b : array
        Right-hand side shared by all shifts.
    shifts : ShiftSet or sequence of complex
        The shifts ``sigma_l``.
    method : str
        One of ``"cocg"``, ``"qmr-sym"``, ``"qmr-sym-b"``, ``"qmr-sym-omega"``.
    tol : float
        Relative residual target: a shift is deflated once its estimate
        satisfies ``||r|| <= tol * ||b||``.
    max_iter : int, optional
        Iteration cap; defaults to ``2 * A.n``.
    record_history : bool
        Keep per-iteration relative residual estimates per shift.
    true_residuals : bool
        Append an explicit end-of-solve residual verification pass.
    counter : FlopCounter, optional
        Accumulates operation counts; a fresh counter is used if omitted.
    workers : int
        Size of the thread pool for the per-shift loop. Every shift's
        arithmetic is self-contained, so results do not depend on this.
    callback : callable, optional
        Invoked after each iteration as ``callback(n, states)`` with the live
        per-shift states (read-only use).

    Returns
    -------
    (solutions, report) : (ndarray, SolveReport)
        ``solutions[l]`` is the final iterate for shift ``l`` (frozen at its
        deflation step). The report carries per-shift statuses, iteration
        counts, residual data and counters.

    A non-finite shift or right-hand-side entry raises ``ValueError`` naming
    its index. A degenerate right-hand side raises :class:`BreakdownError` from
    initialization; breakdowns during the run are reported per shift in the
    report instead of raising. Hitting ``max_iter`` leaves the affected
    shifts marked ``"unconverged"``.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if not isinstance(shifts, ShiftSet):
        shifts = ShiftSet(np.asarray(shifts, dtype=np.complex128))
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter is None:
        max_iter = 2 * A.n
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    b_arr = np.asarray(b)
    _check_finite(shifts.shifts, "shifts")
    _check_finite(b_arr, "b")
    counter = counter if counter is not None else FlopCounter()

    t0 = time.perf_counter()
    lstate = lanczos_init(A, b_arr)
    bnorm = lstate.bnorm2
    real_path = lstate.v_curr.dtype.kind != "c"
    omega_method = method == "qmr-sym-omega"
    omega1 = float(np.linalg.norm(lstate.v_curr)) if omega_method else None

    states = [
        make_shift_state(
            sigma,
            method,
            lstate.g1,
            lstate.v_curr,
            real_path,
            record_history=record_history,
            omega1=omega1,
        )
        for sigma in shifts
    ]
    # the starting residual is b itself (x_0 = 0); shifts already inside the
    # tolerance never enter the update loop
    for st in states:
        st.res = bnorm
        if st.res <= tol * bnorm:
            st.converged = True

    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    iterations = 0
    lucky = False
    lanczos_failure = None
    omega_nm1 = None
    omega_n = omega1
    try:
        for n in range(1, max_iter + 1):
            active = [st for st in states if not st.converged and not st.broken]
            if not active:
                break
            try:
                step = lanczos_step(lstate, A, counter=counter)
            except BreakdownError as exc:
                lanczos_failure = str(exc)
                for st in active:
                    st.broken = True
                    st.failure = lanczos_failure
                break
            iterations = n
            v_next_norm = float(np.linalg.norm(step.v_next))
            # omega_{n-1} multiplies beta_{n-1}, which is zero at step 1
            omegas = (
                (omega_nm1 if omega_nm1 is not None else 1.0, omega_n, v_next_norm)
                if omega_method
                else None
            )
            shared = _SharedStep(
                step=step,
                v_next_norm=v_next_norm,
                omegas=omegas,
                v_next_scaled=_scaled_next(step.v_next, v_next_norm) if omega_method else None,
                bnorm=bnorm,
            )
            if pool is not None and len(active) > 1:
                chunks = np.array_split(np.arange(len(active)), workers)
                locals_ = [counter.__class__() for _ in chunks]

                def run_chunk(idx, cnt):
                    for k in idx:
                        _advance_shift(active[k], shared, cnt)

                futures = [
                    pool.submit(run_chunk, chunk, cnt)
                    for chunk, cnt in zip(chunks, locals_)
                    if len(chunk)
                ]
                for fut in futures:
                    fut.result()
                for cnt in locals_:
                    counter.merge(cnt)
            else:
                for st in active:
                    _advance_shift(st, shared, counter)
            if method == "cocg":
                updated = [st for st in active if not st.broken]
                for st, res in zip(updated, _residual_norms(A, b_arr, updated, counter)):
                    _record(st, float(res), bnorm)
            for st in active:
                if not st.broken and st.res <= tol * bnorm:
                    st.converged = True
            if callback is not None:
                callback(n, states)
            if step.lucky:
                lucky = True
                break
            if omega_method:
                omega_nm1, omega_n = omega_n, v_next_norm
    finally:
        if pool is not None:
            pool.shutdown()

    wall = time.perf_counter() - t0
    status = []
    for st in states:
        if st.broken:
            status.append("breakdown")
        elif st.converged:
            status.append("converged")
        else:
            status.append("unconverged")
    solutions = np.vstack([st.x for st in states])
    final_rel_true = None
    if true_residuals:
        final_rel_true = _residual_norms(A, b_arr, states, counter) / bnorm
    report = SolveReport(
        method=method,
        n=A.n,
        m=len(states),
        tol=tol,
        bnorm=bnorm,
        iterations=iterations,
        lucky=lucky,
        wall_time=wall,
        shifts=shifts.shifts.copy(),
        status=status,
        iters=np.array([st.niter for st in states], dtype=np.int64),
        final_rel_estimate=np.array(
            [st.res / bnorm if np.isfinite(st.res) else np.inf for st in states]
        ),
        flops=counter.snapshot(),
        final_rel_true=final_rel_true,
        failure=[st.failure for st in states],
        history=[st.history for st in states] if record_history else None,
    )
    return solutions, report
