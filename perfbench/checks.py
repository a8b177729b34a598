"""Correctness checks made apart from the program, with NumPy and SciPy.

One operation is one shift solved by one method. It fails when its status is
not ``converged`` or when it fails one of these checks, all computed from the
benchmark's own copy of the inputs:

* residual: ``||b - (A + sigma I) x|| <= tol ||b|| + gap``;
* estimate: ``|est - true| <= 1e-6 true + gap`` (the README's criterion 2);
* forward error, on real symmetric ``A`` only, where ``A + sigma I`` is normal:
  ``||x - x_ref|| <= (||r|| + ||r_ref|| + 2 gap) / min_i |lambda_i + sigma|``
  with ``x_ref`` from a dense eigendecomposition and ``r_ref`` its residual.

``gap = u (k + nnz_row) (||b|| + ||A + sigma I||_2 ||x||)`` is the a-priori
float64 attainable-accuracy term of criterion 2, with ``u`` the unit
roundoff, ``k`` the shift's iteration count and ``nnz_row`` the widest row.
``||A + sigma I||_2`` is bounded above by ``||A||_1 + |sigma|`` (``A`` is
symmetric); the final ``||x||`` stands in for the running maximum.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from workloads import Problem

UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
CHUNK = 64  # shifts per block, so the checks add little to peak memory


class Checker:
    def __init__(self, problem: Problem):
        self.p = problem
        self.A = sp.csr_matrix((problem.vals, (problem.rows, problem.cols)),
                               shape=(problem.n, problem.n))
        self.bnorm = float(np.linalg.norm(problem.b))
        self.nnz_row = int(np.diff(self.A.indptr).max())
        self.anorm1 = float(abs(self.A).sum(axis=0).max())
        self.eig = None

    def same_inputs(self, A, shifts) -> bool:
        """The program's matrix and shifts equal the benchmark's copy."""
        mine = sp.csr_matrix((A.data, A.indices, A.indptr), shape=(A.n, A.n))
        return (A.n == self.p.n and (mine != self.A).nnz == 0
                and np.array_equal(np.asarray(shifts.shifts), self.p.shifts))

    def residuals(self, X, shifts, iters):
        """True residual norms and attainable gaps for the rows of ``X``,
        row ``l`` solved for ``shifts[l]`` in ``iters[l]`` steps."""
        res = np.empty(len(X))
        gap = np.empty(len(X))
        for lo in range(0, len(X), CHUNK):
            sl = slice(lo, lo + CHUNK)
            Xc, sig = X[sl], shifts[sl]
            R = self.p.b[None, :] - (self.A @ Xc.T).T - sig[:, None] * Xc
            res[sl] = np.linalg.norm(R, axis=1)
            xn = np.linalg.norm(Xc, axis=1)
            gap[sl] = UNIT_ROUNDOFF * (iters[sl] + self.nnz_row) * (
                self.bnorm + (self.anorm1 + np.abs(sig)) * xn)
        return res, gap

    def check_solve(self, X, report):
        """Per-shift pass flags for one ``solve_all`` result: status,
        residual and estimate checks (the forward error is checked once per
        distinct solution array, see :meth:`forward_ok`)."""
        res, gap = self.residuals(X, self.p.shifts, report.iters)
        est = np.asarray(report.final_rel_estimate) * report.bnorm
        converged = np.array([s == "converged" for s in report.status])
        res_ok = res <= self.p.tol * self.bnorm + gap
        est_ok = np.abs(est - res) <= 1e-6 * res + gap
        worst = {
            "residual_over_tol": float(np.max(res / (self.p.tol * self.bnorm))),
            "estimate_gap_ratio": float(np.max(np.abs(est - res) / (1e-6 * res + gap))),
        }
        return converged & res_ok & est_ok, worst

    def forward_ok(self, X, iters):
        """Forward-error check against the eigendecomposition reference.
        Returns per-shift flags and the largest error as a share of its
        bound; ``None`` on complex symmetric ``A`` (not normal)."""
        if not self.p.real:
            return None, None
        if self.eig is None:
            lam, V = np.linalg.eigh(self.A.toarray())
            self.eig = (lam, V, V.T @ self.p.b)
        lam, V, c = self.eig
        res, gap = self.residuals(X, self.p.shifts, iters)
        ok = np.empty(len(X), dtype=bool)
        share = 0.0
        for lo in range(0, len(X), CHUNK):
            sl = slice(lo, lo + CHUNK)
            denom = lam[None, :] + self.p.shifts[sl, None]
            Xref = (c[None, :] / denom) @ V.T
            rref, _ = self.residuals(Xref, self.p.shifts[sl], iters[sl])
            err = np.linalg.norm(X[sl] - Xref, axis=1)
            bound = (res[sl] + rref + 2 * gap[sl]) / np.abs(denom).min(axis=1)
            ok[sl] = err <= bound
            share = max(share, float(np.max(err / bound)))
        return ok, share
