"""Batched multi-shift update engine over one shared Lanczos stream.

Four methods consume the same Lanczos step data:

* ``qmr-sym`` -- quasi-minimal residual via Givens rotations on the shifted
  tridiagonal column, three-term directions (6N+3 ops per shift per step).
* ``qmr-sym-b`` -- the bidiagonal-weight variant: one elimination scalar
  replaces the rotations, two-term directions (4N+2 ops per shift per step).
* ``qmr-sym-omega`` -- the rotations on the column scaled row-wise by the
  basis 2-norms ``omega_i = ||v_i||``, minimizing the weighted quasi-residual.
* ``cocg`` -- the Galerkin baseline, whose shifted conjugate-orthogonal CG
  iterates the recurrences of ``qmr-sym-b`` produce. A shift deflates only
  once its explicit residual ``||b - (A + sigma I) x||`` (:func:`true_residual`)
  meets the tolerance too, and that residual is reported.

All shifts of a solve live in one :class:`ShiftBatch`, one row per shift of
the ``m x N`` arrays ``X``, ``P1`` (``P2``) and, for rotations on a complex
basis, ``W``; scalar state lives in ``m``-vectors, and the active shifts form
a contiguous prefix of the rows. Each method is one row of the table
``_METHODS``, and :func:`solve_all` runs one loop for all four. An update
runs its scalar recurrence once per Lanczos step over the active prefix and
emits per shift the coefficients of ``p_n = v_n - a_n p_{n-1} - b_n p_{n-2}``
(``b_n = 0`` for the two-term methods) and ``x_n = x_{n-1} + d_n p_n``. The
batch's :class:`_Window` keeps ``v_n``. A sweep of it runs backward over
the coefficients to express one kind of target in its basis vectors, ``x``
alone or ``x`` and the directions, and GEMMs of at least two shifts each
apply them over bounded column panels, in the stream's thread (the deferred
assembly of Frommer and Simoncini, "Matrix functions", *Model Order
Reduction*, 2008). A shift that deflates or breaks down keeps its
coefficients, zero after its last step, and is assembled with the next
window flush or at the end; ``X`` is then put in shift order in place. The
directions are only made when a window fills, so memory is ``O(mN + cN +
cm)`` for windows of ``c`` steps. A callback and a recorded history only
observe: the solve has the same bits without them. Every product rounds a
shift's row independently of the rows computed with it (see the notes at the
products), so a shift's results do not depend on which other shifts are
solved with it.
"""

from __future__ import annotations

import math
import operator
import time
from collections import namedtuple
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
from scipy.linalg.blas import zaxpy

from .core import (_DOT_CHUNK, BreakdownError, FlopCounter, ShiftSet, SparseSymMatrix,
                   _csr_product, _norm2)

# spmv stays a name of this module: perfbench/spans.py wraps solvers.spmv
from .core import spmv  # noqa: F401
from .lanczos import LanczosStep, lanczos_init, lanczos_step

__all__ = [
    "METHODS",
    "ShiftBatch",
    "SolveReport",
    "cocg_galerkin_update",
    "estimate_residual_qmr",
    "qmr_sym_b_update",
    "qmr_sym_omega_update",
    "qmr_sym_update",
    "solve_all",
    "true_residual",
]

# Nominal least-squares scalar-op charges per shift update.
_LSQ_OPS_ROTATION = 26
_LSQ_OPS_ELIMINATION = 8

# Iterate entries per row block of the explicit residuals, max(1, _BLOCK_ELEMS // N)
# shifts at a time, and output entries per flush product: max(2, _BLOCK_ELEMS //
# (targets N)) shifts, each with x and its carried directions as targets, over
# column panels of the window where those rows over the whole length would
# exceed it. This bounds the temporaries to a few times this many complex entries.
_BLOCK_ELEMS = 2**14

# Basis entries per assembly window: c = max(_MIN_WINDOW, _WINDOW_ELEMS // N)
# steps on a real basis, 2c on a complex one. At N = 13,824 complex windows of
# 18 steps (two shifts per GEMM) flushed in 0.11-0.15 ms per step what windows
# of 9 steps (one shift per GEMM) flushed in 0.20-0.36 ms; on the real
# lattice-band a doubled window cost 1.5 MiB of peak RSS.
_WINDOW_ELEMS = 2**17
# Steps per window at least, so that a long basis is not flushed every step
# or every few: at N = 2^18 one-step windows made a solve 1.2 to 1.7 times as
# slow as windows of 8 steps, which keep 8N basis entries.
_MIN_WINDOW = 8
# Steps per window at most. Beyond 384 steps OpenBLAS's dgemm splits the
# inner dimension in its regular kernel but not in its small-matrix kernel,
# so a row's bits would depend on how many rows share its product.
_MAX_WINDOW = 256
# A row of W, w = phi u, takes phi into u once |phi| falls below this, so that
# u, which grows as 1/|phi|, stays far from overflow.
_FOLD = 2.0**-30


class ShiftBatch:
    """State of every shift of one solve by ``method``, one row per shift.

    ``window`` is the solve's :class:`_Window`. ``X`` changes only when it is
    flushed and at :meth:`finish`: between flushes it holds the iterates at
    the window's start, and :meth:`iterates` assembles copies of the current
    ones. Rows ``:na`` are the active shifts; the ``pending`` rows after them
    left through :meth:`retire` within the window and are assembled when it
    is flushed (their coefficients after their last step are zero);
    ``perm[r]`` is the shift in row ``r`` and ``row[l]`` the row of shift ``l``.
    ``P1``/``P2`` are ``None`` (zero) until the first full window, whose
    flush makes them with the ``na`` rows of that moment.
    """

    def __init__(self, method, shifts, g1, v1, max_iter, record_history=False):
        spec = _method(method)
        self.sigma = np.array(shifts, dtype=np.complex128).ravel()
        m, n = len(self.sigma), len(v1)
        self.m, self.n, self.na = m, n, m
        self.window = _Window(v1, _check_max_iter(max_iter))
        self.real = self.window.real
        self.perm, self.row = np.arange(m), np.arange(m)
        self.g = np.full(m, complex(g1))
        self.res = np.full(m, np.inf)
        self.niter = np.zeros(m, dtype=np.int64)
        self.X = np.zeros((m, n), dtype=np.complex128)
        omega1 = 1.0
        if spec.weighted:
            omega1 = _norm2(v1)
            self.omegas = (1.0, omega1)  # omega_{n-1} multiplies beta_0 = 0
            self.g *= omega1
        # no w on a real basis: there v^T v = v^H v = 1 keeps ||w|| at one
        rotation = spec.directions == 2
        self.W = None if self.real or not rotation else np.tile(v1.astype(complex) / omega1, (m, 1))
        self.wnorm = None if self.W is None else np.full(m, _norm2(self.W[0]))  # ||w|| per row
        self.phi = None if self.W is None else np.ones(m, dtype=complex)  # w = phi W[r]
        for name, dtype in spec.state:
            setattr(self, name, np.zeros(m, dtype=dtype))
        # the per-shift arrays that retire permutes, None where a method has none
        self._fields = ["sigma", "perm", "g", "res", "niter", "X", "W", "wnorm", "phi", "P1", "P2"]
        self._fields += [name for name, _ in spec.state]
        self.status, self.failure = ["unconverged"] * m, [None] * m
        self.history = [[] for _ in range(m)] if record_history else None
        self.P1 = self.P2 = None  # the directions are zero until the first full window
        # coefficient rows of d, a (and b); rows 0 and 1 stand for the carried
        # p_{s-2}, p_{s-1}; rows for 30 steps first, then _step_rows doubles them
        self.coef = np.zeros((1 + spec.directions, min(self.window.steps + 2, 32), m), complex)
        self.pending = 0

    def _pivots(self, t, n, kind, what):
        """Record the failure of the rows with a zero pivot ``t`` at step ``n``;
        return ``t`` with those pivots replaced by one, and their mask (or ``None``)."""
        if np.count_nonzero(t) == len(t):
            return t, None
        bad = t == 0
        for r in np.flatnonzero(bad):
            sigma = complex(self.sigma[r])
            self.failure[self.perm[r]] = str(BreakdownError(kind, n, f"{what} for shift {sigma}"))
        return np.where(bad, 1.0, t), bad

    def _step_rows(self):
        """The coefficient rows that the coming step's ``d``, ``a`` and ``b``
        (or ``None``) are written into, over the active prefix."""
        k = self.window.k
        if k + 2 == self.coef.shape[1]:  # coefficient rows full: double them, up to window + 2
            more = np.zeros((len(self.coef), min(k + 2, self.window.steps - k), self.m), complex)
            self.coef = np.concatenate((self.coef, more), axis=1)
        rows = self.coef[:, k + 2, : self.na]  # indexed, not unpacked: a view per row is cheaper
        return rows[0], rows[1], rows[2] if len(rows) == 3 else None

    def _advance(self, step, g_new, ops, lsq, counter, bad):
        """Finish one step over the active prefix, whose coefficients are in
        its :meth:`_step_rows`: store ``v_n``, freeze and retire the ``bad``
        rows (or ``None``), charge the others' updates, and flush a full
        window: assemble the pending rows, then the active prefix, advancing
        its directions."""
        na, k = self.na, self.window.k
        if bad is not None:
            self.coef[:, k + 2, :na][:, bad] = 0.0
            g_new[bad] = self.g[:na][bad]
        self.g[:na] = g_new
        full = self.window.push(step.v)
        if bad is not None:  # after the push, so that the moved rows take this step's coefficients
            self.retire(bad, "breakdown")
        self.niter[: self.na] = step.n  # a retired row keeps its count of the last step
        if counter is not None:
            counter.shift_update += ops * self.na
            counter.least_squares += lsq * self.na
        if full:  # the pending rows first: they read the directions of the window's start
            na, window = self.na, self.window
            window.sweep(self, slice(na, na + self.pending), False, self.X[na : na + self.pending])
            if self.P1 is None:
                self.P1 = np.zeros((na, self.n), dtype=np.complex128)
                self.P2 = None if len(self.coef) == 2 else np.zeros_like(self.P1)
            window.sweep(self, slice(0, na), True, self.X)
            window.k = self.pending = 0

    def iterates(self, rows):
        """The current iterates of ``rows`` (an index array), assembled as a
        window flush assembles them, without changing the batch."""
        X = self.X[rows]
        self.window.sweep(self, rows, False, X)
        return X

    def retire(self, done, status="converged"):
        """Take the rows marked in ``done`` (over the active prefix) out of it:
        give their shifts ``status`` and move them behind the survivors,
        pending until the window is flushed."""
        na, k = self.na, self.window.k
        for ell in self.perm[:na][done].tolist():
            self.status[ell] = status
        keep = na - int(np.count_nonzero(done))
        dst = np.flatnonzero(done[:keep])
        if len(dst):
            src = keep + np.flatnonzero(~done[keep:])
            a, b = np.concatenate((dst, src)), np.concatenate((src, dst))
            for arr in [getattr(self, name) for name in self._fields]:
                if arr is not None:
                    arr[a] = arr[b]
            self.coef[:, : k + 2, a] = self.coef[:, : k + 2, b]  # at k = 0 rows 0, 1: zero
            self.row[self.perm[a]] = a
        self.na = keep
        if k:  # pending: zero coefficients after this step add nothing to a sweep
            self.coef[:, k + 2 :, keep:na] = 0.0
            self.pending += na - keep

    def record(self, n, est, target, bnorm):
        """Store the step-``n`` residuals ``est`` of the active prefix, then
        retire the rows meeting ``target``."""
        na, res = self.na, self.res[: self.na]
        res[:] = est
        if self.history is not None:  # one (n, relative residual) pair per active shift
            for ell, rel in zip(self.perm[:na].tolist(), (res / bnorm).tolist()):
                self.history[ell].append((n, rel))
        done = res <= target
        if np.count_nonzero(done):
            self.retire(done)

    def finish(self):
        """Assemble the active and pending rows and return ``X``, put in shift order in place."""
        self.window.sweep(self, slice(0, self.na + self.pending), False, self.X)
        self.P1 = self.P2 = self.W = self.window.Vw = None
        X, row = self.X, self.row.tolist()
        for start in range(self.m):
            if row[start] != start:  # one cycle of the permutation, a row in hand
                ell, held = start, X[start].copy()
                while row[ell] != start:  # row ell takes shift ell from row row[ell]
                    X[ell], row[ell], ell = X[row[ell]], ell, row[ell]
                X[ell], row[ell] = held, ell
        return X


class _Window:
    """The assembly window of one Lanczos stream: the basis vectors of its
    last ``k`` steps in the rows of ``Vw``, at most ``steps = min(c,
    _MAX_WINDOW, max_iter)`` with ``c = max(_MIN_WINDOW, _WINDOW_ELEMS // N)``
    on a real basis and ``2 c`` on a complex one."""

    def __init__(self, v1, max_iter):
        self.n, self.real, self.k = len(v1), v1.dtype.kind != "c", 0
        steps = max(_MIN_WINDOW, _WINDOW_ELEMS // self.n)
        self.steps = min(steps if self.real else 2 * steps, _MAX_WINDOW, max_iter)
        # columns padded to a multiple of 8: OpenBLAS's small dgemm
        # kernel otherwise rounds a row by its position among the rows
        self.Vw = np.zeros((self.steps, -(-self.n // 8) * 8), dtype=v1.dtype)

    def push(self, v):
        """Store the step's basis vector; return whether the window is full."""
        self.Vw[self.k, : self.n] = v
        self.k += 1
        return self.k == self.steps

    def sweep(self, batch, rows, advance, X):
        """Add the window's steps to the iterates ``X`` of ``rows`` of
        ``batch`` by its coefficient rows ``coef`` and, with ``advance``, move
        their directions ``P1`` (``P2``) to the window's last step. ``rows``
        is a slice or an index array, and row ``i`` of ``X`` (the batch's own
        for a slice from row 0) holds the iterate of row ``i`` of ``rows``.
        The rows are swept a bounded block at a time, and each block's
        products a bounded panel of columns at a time. Without ``advance`` the
        backward recurrence starts at the block's last nonzero coefficient, so
        rows retired early in the window pay only for their live steps. A
        non-finite ``g`` or coefficient of a row raises ``ValueError`` (``g``
        stays so once it is)."""
        k, Vw, (Dw, Aw, Bw) = self.k, self.Vw, (*batch.coef, None)[:3]
        h = len(batch.perm[rows])
        if k == 0 or h == 0:
            return
        part = ((lambda lo, hi: slice(rows.start + lo, rows.start + hi)) if isinstance(rows, slice)
                else (lambda lo, hi: rows[lo:hi]))  # rows lo .. hi-1
        carried = [P for P in (batch.P1, batch.P2) if P is not None]
        t = 1 + len(carried) if advance else 1  # targets per row: x, then p_e (and p_{e-1})
        hb = max(2, _BLOCK_ELEMS // (t * self.n))  # shifts per GEMM
        # columns per GEMM, a multiple of 8; the last panel runs to the padded
        # width, so that every product has a width that rounds rows alike
        width, pw = Vw.shape[1], max(8, _BLOCK_ELEMS // (t * hb) // 8 * 8)
        panels = [(c0, min(c0 + pw, width)) for c0 in range(0, width, pw)]
        hs = hb * max(1, _BLOCK_ELEMS // ((k + 2) * t * hb))  # rows per sweep
        for lo in range(0, h, hs):
            nx, r = min(hs, h - lo), part(lo, min(h, lo + hs))
            # Y[:, j, i]: target j of row i on p_{s-2}, p_{s-1}, v_s .. v_e. The
            # recurrence multiplies whole rows, the coefficients tiled over the
            # targets: NumPy rounds a product over a broadcast length-one axis differently
            Y = np.zeros((k + 2, t, nx), dtype=np.complex128)
            Y[:, 0] = Dw[: k + 2, r]
            Y[k + 1, 1:2] = Y[k, 2:] = 1.0  # p_e = v_e - ..., p_{e-1} = v_{e-1} - ...
            A, B = (None if W is None else W[: k + 2, r] if t == 1 else np.tile(W[: k + 2, r], t)
                    for W in (Aw, Bw))
            # views of the rows, made once: indexing an array makes a new view each time
            ys, As, Bs = list(Y.reshape(k + 2, -1)), list(A), [] if B is None else list(B)
            top = k  # rows that left within the window: y stays zero above their last step
            if not advance and not batch.coef[:, k + 1, r].any():
                live = np.flatnonzero(batch.coef[:, : k + 2, r].any(axis=(0, 2)))
                top = live[-1] if len(live) else -1
            for i in range(top, -1 if Bs else 0, -1):
                ys[i] -= As[i + 1] * ys[i + 1]
                if Bs and i + 2 <= k + 1:
                    ys[i] -= Bs[i + 2] * ys[i + 2]
            bad = ~(np.isfinite(Y).all(axis=(0, 1)) & np.isfinite(batch.g[r]))
            if bad.any():
                sigma = complex(batch.sigma[r][bad][0])
                raise ValueError(f"the recurrences of shift {sigma} exceed float64 range")
            for glo in range(0, nx, hb):
                ghi = min(nx, glo + hb)
                nb, rt = ghi - glo, part(lo + glo, lo + ghi)
                C = Y[2:, :, glo:ghi].reshape(k, -1).T
                # complex coefficients on a real basis: one real GEMM for both parts
                C = np.ascontiguousarray(np.concatenate((C.real, C.imag)) if self.real else C)
                if len(C) == 1:  # a lone row would take the GEMV path and round differently
                    C = np.concatenate((C, np.zeros_like(C)))
                for c0, c1 in panels:
                    cols = slice(c0, min(c1, self.n))
                    G, nw = C @ Vw[:k, c0:c1], cols.stop - c0
                    out = np.empty((t * nb, nw), dtype=complex) if self.real else G[: t * nb, :nw]
                    if self.real:  # the real parts' product, then the imaginary parts'
                        out.real, out.imag = G[: t * nb, :nw], G[t * nb : 2 * t * nb, :nw]
                    out = out.reshape(t, nb, nw)
                    for j, P in enumerate(carried):  # every target reads the old directions
                        Pc = P[rt, cols]
                        for o, yj in zip(out, Y[1 - j, :, glo:ghi]):
                            o += yj[:, None] * Pc
                    X[lo + glo : lo + ghi, cols] += out[0]
                    for P, o in zip(carried, out[1:]):
                        P[rt, cols] = o
                    del G, out  # before the next panel's product is made


def _abs(z: np.ndarray) -> np.ndarray:
    """``|z|`` as Python's ``abs`` rounds it (``np.abs`` can differ in the last bit)."""
    return np.hypot(z.real, z.imag)


def _ldexp(x: np.ndarray, e: int) -> np.ndarray:
    """``x * 2^e`` in place, rounded once (an overflow to ``inf`` without a
    warning), for a C-contiguous float64 or complex128 ``x``."""
    with np.errstate(over="ignore"):
        np.ldexp(x.view(np.float64), e, out=x.view(np.float64))
    return x


def _rotation_update(batch: ShiftBatch, step: LanczosStep, omegas, scale, counter):
    """Shared body of the rotation-based updates (identity and omega
    weights): apply the previous two rotations to the active columns, compute
    the new rotations and advance ``g`` and ``w = -s w + (c scale) v_{n+1}``,
    held as ``phi u``, with ``||w||``."""
    na, n = batch.na, step.n
    om_nm1, om_n, om_np1 = omegas
    t_nm1 = om_nm1 * complex(step.beta_prev)
    t_n = om_n * (complex(step.alpha) + batch.sigma[:na])
    t_np1 = om_np1 * complex(step.beta)
    if n > 2:
        t_nm2, t_nm1 = batch.s2[:na] * t_nm1, batch.c2[:na] * t_nm1
    if n > 1:  # f = -sbar of the last step, which is -conj(s1)
        c1 = batch.c1[:na]
        t_nm1, t_n = c1 * t_nm1 + batch.s1[:na] * t_n, batch.f[:na] * t_nm1 + c1 * t_n
    t_n, bad = batch._pivots(t_n, n, "rotation", "zero pivot")
    # this step's c, s and pivot overwrite step n-2's, then the names swap
    abs_n = _abs(t_n)
    c = np.divide(abs_n, np.hypot(abs_n, abs(t_np1)), out=batch.c2[:na])
    sbar = (t_np1 / t_n) * c
    s = np.conj(sbar, out=batch.s2[:na])
    f = np.negative(sbar, out=batch.f[:na])
    g = batch.g[:na]
    d, a, b = batch._step_rows()  # written in place, as in d = (c * g) / t_final
    np.divide(t_nm2, batch.diag2[:na], out=b) if n > 2 else b.fill(0.0)
    t_final = np.add(c * t_n, s * t_np1, out=batch.diag2[:na])
    np.divide(c * g, t_final, out=d)
    np.divide(t_nm1, batch.diag1[:na], out=a) if n > 1 else a.fill(0.0)
    # w = phi u: the scale -s goes into phi, u takes (c scale / phi) v_{n+1} by
    # zaxpy over chunks of _DOT_CHUNK entries from the row's start (below the
    # bound above which SciPy's OpenBLAS threads it), and ||w|| = |phi| ||u||.
    # phi row by row in Python complex arithmetic: NumPy's vectorized complex
    # division rounds a row differently by its position in the array
    if batch.W is not None:
        v, n_v, phis = step.v_next, batch.n, batch.phi[:na].tolist()
        for r, (u, sr, cu) in enumerate(zip(batch.W, s.tolist(), (c * scale).tolist())):
            phi = -sr * phis[r]
            if abs(phi) < _FOLD:  # also where s = 0 made phi zero
                u *= phi
                phi = 1.0
            a_r = cu / phi
            for i in range(0, n_v, _DOT_CHUNK):  # zaxpy(x, y, n, a, offx, incx, offy)
                zaxpy(v, u, min(_DOT_CHUNK, n_v - i), a_r, i, 1, i)
            phis[r] = phi
            batch.wnorm[r] = abs(phi) * _norm2(u)
        batch.phi[:na] = phis
    batch.c1, batch.c2, batch.s1, batch.s2 = batch.c2, batch.c1, batch.s2, batch.s1
    batch.diag1, batch.diag2 = batch.diag2, batch.diag1
    batch._advance(step, f * g, 6 * batch.n + 3, _LSQ_OPS_ROTATION, counter, bad)


def qmr_sym_update(batch: ShiftBatch, step: LanczosStep, counter: FlopCounter | None = None):
    """One quasi-minimal-residual step for every active shift.

    Forms the active columns ``(beta_{n-1}, alpha_n + sigma, beta_n)``,
    rotates them through the stored Givens pairs, computes the new rotations
    (``c`` real nonnegative, ``sbar = (t_{n+1,n} / t_{n,n}) c``) and advances
    the residual-estimate vectors ``w_{n+1} = -s_n w_n + c_n v_{n+1}``, each
    kept as a scale ``phi`` and a row ``u`` of ``W`` updated in place, with
    their norms (kept only on the complex path). A shift whose rotated pivot
    is exactly zero breaks down.
    """
    _rotation_update(batch, step, (1.0, 1.0, 1.0), 1.0, counter)
    return batch


def qmr_sym_omega_update(batch: ShiftBatch, step: LanczosStep, counter: FlopCounter | None = None):
    """Rotation step on the row-scaled columns.

    The weights ``(omega_{n-1}, omega_n, omega_{n+1})`` are the 2-norms of
    the corresponding basis vectors; ``omega_{n+1}`` is the step's published
    ``v_next_norm``. On a complex basis the estimate vectors
    track ``w~_{n+1} = -s_n w~_n + c_n v_{n+1} / omega_{n+1}`` so that
    ``|g_{n+1}| ||w~_{n+1}||`` equals the true residual norm; the factor
    ``1 / omega_{n+1}`` goes into the coefficient ``c_n``, so ``v_{n+1}`` is
    never copied. On a real basis that norm is one up to rounding and ``w~``
    is not formed.
    """
    om_np1 = step.v_next_norm
    om_nm1, om_n = batch.omegas
    # omega_{n+1} vanishes only on lucky termination, where v_next is zero anyway
    scale = 1.0 / om_np1 if om_np1 > 0 else 1.0
    _rotation_update(batch, step, (om_nm1, om_n, om_np1), scale, counter)
    batch.omegas = (om_n, om_np1)
    return batch


def qmr_sym_b_update(batch: ShiftBatch, step: LanczosStep, counter: FlopCounter | None = None):
    """One bidiagonal-weight step for every active shift: eliminate the
    subdiagonal with a single scalar ``f_n = -t_{n+1,n} / t_{n,n}``,
    propagate ``g~_{n+1} = f_n g~_n`` and advance the two-term
    direction/solution recurrences. A shift breaks down on an exactly zero
    pivot, which happens precisely when its shifted leading tridiagonal block
    is singular."""
    na, n = batch.na, step.n
    t_nm1 = complex(step.beta_prev)
    t_n = complex(step.alpha) + batch.sigma[:na]
    if n > 1:
        t_n = batch.f[:na] * t_nm1 + t_n
    t_n, bad = batch._pivots(t_n, n, "pivot", "zero elimination pivot")
    f = -complex(step.beta) / t_n
    g = batch.g[:na]
    d, a, _ = batch._step_rows()  # written in place, as in d = g / t_n
    np.divide(g, t_n, out=d)
    np.divide(t_nm1, batch.diag1[:na], out=a) if n > 1 else a.fill(0.0)
    batch.f[:na], batch.diag1[:na] = f, t_n
    batch._advance(step, f * g, 4 * batch.n + 2, _LSQ_OPS_ELIMINATION, counter, bad)
    return batch


# The Galerkin baseline's step: its iterate solves ``(T_n + sigma I_n) y =
# g_1 e_1`` and so equals the shifted conjugate-orthogonal-CG iterate, which
# the recurrences of qmr_sym_b_update produce. A name of its own, so that a
# wrapper of one method's update leaves the other's alone.
cocg_galerkin_update = qmr_sym_b_update


def estimate_residual_qmr(batch: ShiftBatch, step: LanczosStep) -> np.ndarray:
    """Residual 2-norm estimates ``|g_{n+1}| * ||u_{n+1}||`` of the active
    shifts after ``step``, one rule for every method with its own direction
    ``u``: the rotation methods' ``w_{n+1}``, whose norms the update took,
    and otherwise ``v_{n+1}``, whose norm ``step.v_next_norm`` the Lanczos
    step published (Freund, *SISC* 13, 1992). On a real basis ``||u||`` is
    one (up to rounding for ``qmr-sym-omega``'s ``w~``) and the estimate is
    exactly ``|g_{n+1}|``."""
    g = _abs(batch.g[: batch.na])
    if batch.real:
        return g
    return g * (step.v_next_norm if batch.W is None else batch.wnorm[: batch.na])


def true_residual(A: SparseSymMatrix, sigma, b, x, counter: FlopCounter | None = None):
    """Explicit residual norm ``||b - (A + sigma I) x||_2``.

    For one shift, ``sigma`` is a scalar, ``x`` has shape ``(N,)`` and the
    norm is returned as a ``float``. For any number ``k`` of shifts, ``sigma``
    has shape ``(k,)`` and ``x`` shape ``(k, N)``, one iterate per row, and
    the ``k`` norms come back as an array. One sparse product ``A X^T`` is run
    per block of ``max(1, _BLOCK_ELEMS // N)`` rows, so the temporaries stay
    block-sized whatever ``k`` is. It runs through the same kernel as
    :func:`spmv`, so each column of ``A X^T`` is bitwise ``spmv(A, x_l)``.
    Each norm is taken by :func:`_norm2` over its own contiguous row, so a
    shift's value does not depend on which other rows share its block. Each
    row is charged as one matvec.
    """
    b = np.asarray(b)
    x = np.asarray(x)
    X = np.atleast_2d(x)
    sigmas = np.atleast_1d(np.asarray(sigma))
    if b.shape != (A.n,) or X.ndim != 2 or X.shape[1] != A.n or sigmas.shape != (len(X),):
        raise ValueError("dimension mismatch")
    rb = max(1, _BLOCK_ELEMS // A.n)
    norms = np.empty(len(X))
    for lo in range(0, len(X), rb):
        XT = np.ascontiguousarray(X[lo : lo + rb].T, dtype=np.result_type(X, np.float64))
        RT = _csr_product(A, XT, counter)
        # R^T = (b - A X^T) - X^T diag(sigma), formed in the product's buffer
        # when the dtypes allow; every entry is rounded as in b - A x - sigma x
        dtype = np.result_type(RT, b, sigmas, XT)
        RT = np.subtract(b[:, None], RT, out=RT if RT.dtype == dtype else None, dtype=dtype)
        for i in range(0, A.n, _BLOCK_ELEMS):  # sigma x a bounded block at a time
            RT[i : i + _BLOCK_ELEMS] -= XT[i : i + _BLOCK_ELEMS] * sigmas[lo : lo + rb]
        norms[lo : lo + rb] = [_norm2(r) for r in np.ascontiguousarray(RT.T)]
    return float(norms[0]) if x.ndim == 1 else norms


@dataclass
class SolveReport:
    """Outcome of one multi-shift solve.

    ``status[l]`` is ``"converged"``, ``"breakdown"`` or ``"unconverged"``;
    ``iters[l]`` counts the updates applied to shift ``l`` (its deflation
    step when converged). Estimates are relative to ``||b||``; ``cocg``'s
    estimate is the explicit residual of the returned iterate. ``history``
    (when recorded) holds per-shift lists of ``(iteration,
    relative_estimate)`` pairs, one entry per iteration the shift was active:
    the value its deflation test read, which for ``cocg`` is the recurrence
    value or, at a step where it was checked, the explicit residual.
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
    failure: list = field(default_factory=list)
    history: list | None = None

    @property
    def all_converged(self) -> bool:
        return all(s == "converged" for s in self.status)

    @property
    def any_breakdown(self) -> bool:
        return any(s == "breakdown" for s in self.status)


def _observed(batch: ShiftBatch, e: int) -> SimpleNamespace:
    """The ``state`` a callback gets (see :func:`solve_all`), its ``g``,
    ``res`` and iterates scaled by ``2^e`` back to the scale of ``b``. A shift
    retired before the window began has its iterate in its row of ``X``; a
    pending one is assembled like an active one."""
    row = batch.row

    def iterates(ells=None):
        rows = row if ells is None else row[np.asarray(ells, dtype=np.intp)]
        X, live = batch.X[rows], rows < batch.na + batch.pending
        X[live] = batch.iterates(rows[live])
        return _ldexp(X, e)

    return SimpleNamespace(sigma=batch.sigma[row], g=_ldexp(batch.g[row], e),
                           res=_ldexp(batch.res[row], e), niter=batch.niter[row],
                           iterates=iterates)


def _check_finite(values: np.ndarray, name: str):
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        raise ValueError(f"{name}[{bad[0]}] = {values[bad[0]]} is not finite")


def _check_max_iter(max_iter):
    try:
        max_iter = operator.index(max_iter)
    except TypeError:
        raise ValueError(f"max_iter must be an integer, got {max_iter!r}") from None
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    return max_iter


def _check_explicitly(A, b, batch, est, target, counter):
    """Put into ``est`` the explicit residuals of the active rows whose value
    meets ``target``, assembling copies ``max(1, _BLOCK_ELEMS // N)`` at a time."""
    rows, rb = np.flatnonzero(est <= target), max(1, _BLOCK_ELEMS // A.n)
    for lo in range(0, len(rows), rb):
        r = rows[lo : lo + rb]
        est[r] = true_residual(A, batch.sigma[r], b, batch.iterates(r), counter=counter)


# One method as data. update(batch, step, counter) calls this module's function
# by name, so that a replaced global is called; solve_all calls the one
# estimate_residual_qmr the same way for every method. state: the per-shift
# scalars (f is the factor of g, -sbar for the rotations); directions: 2 for
# the rotations, which keep w on a complex basis, else 1; check: replaces the
# estimates that meet the target by explicit residuals.
_Method = namedtuple("_Method", "update state directions weighted check",
                     defaults=(False, None))
_ELIMINATION = (("diag1", complex), ("f", complex))
_ROTATION = _ELIMINATION + (("diag2", complex), ("s1", complex), ("s2", complex),
                            ("c1", float), ("c2", float))
_METHODS = {
    "cocg": _Method(lambda *args: cocg_galerkin_update(*args), _ELIMINATION, 1,
                    check=_check_explicitly),
    "qmr-sym": _Method(lambda *args: qmr_sym_update(*args), _ROTATION, 2),
    "qmr-sym-b": _Method(lambda *args: qmr_sym_b_update(*args), _ELIMINATION, 1),
    "qmr-sym-omega": _Method(lambda *args: qmr_sym_omega_update(*args), _ROTATION, 2,
                             weighted=True),
}
METHODS = tuple(_METHODS)


def _method(name):
    if name not in METHODS:
        raise ValueError(f"unknown method {name!r}; expected one of {METHODS}")
    return _METHODS[name]


def solve_all(
    A: SparseSymMatrix,
    b,
    shifts,
    method: str = "qmr-sym",
    tol: float = 1e-12,
    max_iter: int | None = None,
    record_history: bool = False,
    counter: FlopCounter | None = None,
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
        Relative residual target: a shift is deflated once its estimate (and
        for ``cocg`` its explicit residual) satisfies ``||r|| <= tol * ||b||``.
    max_iter : int, optional
        Iteration cap; defaults to ``2 * A.n``.
    record_history : bool
        Keep per-iteration relative residual estimates per shift (see
        :attr:`SolveReport.history`). Recording changes nothing else.
    counter : FlopCounter, optional
        Accumulates operation counts; a fresh counter is used if omitted.
    callback : callable, optional
        Invoked after each iteration ``n`` as ``callback(n, state)``:
        ``state.sigma``, ``g``, ``res`` (the residual norm the deflation test
        read) and ``niter`` are copies, in shift order, and during the call
        ``state.iterates(ells)`` returns a new array of the current iterates
        of the shifts ``ells`` (all by default), sweeping the current window
        once for the active ones. The callback only observes: the results
        have the same bits with or without it. It runs under the solve's
        ``np.errstate``, which keeps floating-point warnings off.

    Returns
    -------
    (solutions, report) : (ndarray, SolveReport)
        ``solutions[l]`` is the final iterate for shift ``l`` (frozen at its
        deflation step). The report carries per-shift statuses, iteration
        counts, residual data and counters.

    A non-finite or non-positive ``tol``, and a non-finite shift or
    right-hand-side entry, raise ``ValueError``; the latter names its index.
    The solve runs on ``b`` times the power of two ``2^-e`` that brings its
    largest entry into ``[1, 2)``, so that ``g``, the residuals and the
    iterates keep clear of float64's limits, and scales the solutions back.
    A ``||b||``, a solution, a Lanczos vector or a shift's recurrence scalars
    that overflow raise ``ValueError``, and no RuntimeWarning leaves the solve.
    A degenerate right-hand side raises :class:`BreakdownError` from
    initialization; breakdowns during the run are reported per shift in the
    report instead of raising. Hitting ``max_iter`` leaves the affected
    shifts marked ``"unconverged"``.
    """
    spec = _method(method)
    if not isinstance(shifts, ShiftSet):
        shifts = ShiftSet(np.asarray(shifts, dtype=np.complex128))
    if not np.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    max_iter = _check_max_iter(2 * A.n if max_iter is None else max_iter)
    b_arr = np.asarray(b)
    _check_finite(shifts.shifts, "shifts")
    _check_finite(b_arr, "b")
    counter = counter if counter is not None else FlopCounter()

    t0 = time.perf_counter()
    e = math.frexp(np.abs(b_arr).max(initial=0.0))[1] - 1
    b_s = _ldexp(np.array(b_arr, dtype=np.result_type(b_arr, np.float64)), -e) if e else b_arr
    lstate = lanczos_init(A, b_s)
    snorm, bnorm = lstate.bnorm2, lstate.bnorm2 * 2.0**e  # ||b * 2^-e||, ||b||
    if bnorm == math.inf:
        raise ValueError("||b|| = inf: the right-hand side exceeds float64 range")
    batch = ShiftBatch(method, shifts.shifts, lstate.g1, lstate.v_curr, max_iter, record_history)
    target = tol * snorm
    # the starting residual is b itself (x_0 = 0); shifts already inside the
    # tolerance never enter the update loop
    batch.res[:] = snorm
    batch.retire(batch.res <= target)

    iterations, lucky = 0, False
    with np.errstate(all="ignore"):  # a non-finite g or coefficient raises where it is swept
        for n in range(1, max_iter + 1):
            if not batch.na:
                break
            try:
                step = lanczos_step(lstate, A, counter=counter)
            except BreakdownError as exc:
                for ell in batch.perm[: batch.na]:
                    batch.failure[ell] = str(exc)
                batch.retire(np.ones(batch.na, dtype=bool), "breakdown")
                break
            iterations = n
            spec.update(batch, step, counter)
            est = estimate_residual_qmr(batch, step)
            if spec.check is not None:
                spec.check(A, b_s, batch, est, target, counter)
            batch.record(n, est, target, snorm)
            if callback is not None:
                callback(n, _observed(batch, e))
            if step.lucky:
                lucky = True
                break
        solutions = batch.finish()
    res = batch.res[batch.row]
    if spec.check is not None:  # explicit residuals of the unverified iterates
        rest = [ell for ell, s in enumerate(batch.status) if s != "converged"]
        res[rest] = true_residual(A, shifts.shifts[rest], b_s, solutions[rest], counter)
    if e and not np.isfinite(_ldexp(solutions, e)).all():
        raise ValueError("a solution exceeds float64 range")
    wall = time.perf_counter() - t0
    report = SolveReport(
        method=method,
        n=A.n,
        m=batch.m,
        tol=tol,
        bnorm=bnorm,
        iterations=iterations,
        lucky=lucky,
        wall_time=wall,
        shifts=shifts.shifts.copy(),
        status=batch.status,
        iters=batch.niter[batch.row],
        final_rel_estimate=np.where(np.isfinite(res), res / snorm, np.inf),
        flops=counter.snapshot(),
        failure=batch.failure,
        history=batch.history,
    )
    return solutions, report
