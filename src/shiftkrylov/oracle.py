"""Ground-truth dense solves for desk-scale verification.

Everything here goes through dense arithmetic and explicit matrices --
deliberately disjoint code paths from the sparse iterative kernels, so that
agreement between the two is evidence rather than tautology. Not intended
for production-size problems; :class:`DenseOracle` refuses dimensions above
its cap.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg
from scipy.linalg import LinAlgWarning

from .core import SparseSymMatrix

__all__ = ["DenseOracle", "SingularMatrixError"]

DEFAULT_CAP = 512


class SingularMatrixError(ValueError):
    """Shifted matrix is singular to working precision."""


def _as_dense(A) -> np.ndarray:
    if isinstance(A, SparseSymMatrix):
        return A.to_dense()
    M = np.asarray(A)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expected a square matrix")
    return M


def _checked_lu(shifted: np.ndarray, sigma):
    """LU with partial pivoting, rejecting factorizations that are singular
    to working precision (reporting the offending pivot magnitude)."""
    n = shifted.shape[0]
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(shifted, check_finite=False)
    pivots = np.abs(np.diag(lu))
    floor = n * np.finfo(np.float64).eps * max(np.abs(shifted).max(), 1.0)
    if pivots.min() <= floor:
        raise SingularMatrixError(
            f"(A + {sigma} I) is singular to working precision: "
            f"smallest pivot magnitude {pivots.min():.3e}"
        )
    return lu, piv


class DenseOracle:
    """Dense factorization backend for ground-truth shifted solves.

    Keeps a dense copy of the matrix; each :meth:`solve` factorizes its
    shifted matrix afresh and keeps no factorization, so memory does not grow
    with the number of shifts solved. Construction is refused above
    ``DEFAULT_CAP`` -- oracles are for verification, not production.
    """

    def __init__(self, A):
        M = _as_dense(A)
        if M.shape[0] > DEFAULT_CAP:
            raise ValueError(f"oracle cap is {DEFAULT_CAP}, got dimension {M.shape[0]}")
        self.dense = M.copy()
        self.n = M.shape[0]

    def solve(self, sigma, b) -> np.ndarray:
        """Solve ``(A + sigma I) x = b`` by dense LU with partial pivoting.

        Raises :class:`SingularMatrixError` reporting the smallest pivot
        magnitude when the factorization is singular to working precision.
        """
        sigma = complex(sigma)
        shifted = self.dense.astype(np.result_type(self.dense.dtype, np.complex128), copy=True)
        shifted[np.diag_indices(self.n)] += sigma
        lu, piv = _checked_lu(shifted, sigma)
        return scipy.linalg.lu_solve((lu, piv), np.asarray(b).astype(lu.dtype), check_finite=False)
