"""Shared numerical kernels and containers for the multi-shift solvers.

Scalars are plain ``float``/``complex`` (float64/complex128 under NumPy);
vectors are 1-D NumPy arrays. Real data stays in real dtype end to end so
the solvers can exploit real arithmetic, complex data is complex128.

The inner product used throughout is the *bilinear* (unconjugated) one,
``u^T v``, not the Hermitian ``u^H v``. It can vanish for nonzero complex
vectors; that degeneracy is exactly what the breakdown checks guard.

Every reduction that feeds a result gives the same bits whatever the number
of BLAS threads: OpenBLAS splits its dot products across threads only above
10,000 entries, so complex dot products run as BLAS ``zdotu`` over fixed
chunks of ``_DOT_CHUNK`` entries, and 2-norms run through BLAS ``dnrm2`` /
``dznrm2``, which are not threaded (:func:`_norm2`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.blas import dnrm2, dznrm2
from scipy.sparse._sparsetools import coo_tocsr, csr_matvec, csr_matvecs, csr_tocsc

__all__ = [
    "BreakdownError",
    "EntryError",
    "FlopCounter",
    "ShiftSet",
    "SparseSymMatrix",
    "bilinear_dot",
    "principal_sqrt",
    "spmv",
]


class BreakdownError(RuntimeError):
    """A degeneracy that stops a recurrence: a (near-)zero bilinear product
    in the Lanczos process, a zero rotation pivot, or a zero elimination
    pivot. ``kind`` identifies which, ``step`` the iteration it occurred at.
    """

    def __init__(self, kind: str, step: int, detail: str = ""):
        self.kind = kind
        self.step = step
        msg = f"{kind} breakdown at step {step}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class EntryError(ValueError):
    """An entry that breaks the symmetric pattern: a duplicate, or one whose
    mirror is missing or differs. ``row`` and ``col`` are its 0-based
    position."""

    def __init__(self, row, col, what: str):
        self.row, self.col = int(row), int(col)
        super().__init__(f"{what} ({self.row},{self.col})")


def principal_sqrt(z):
    """Principal-branch square root.

    For ``z = r e^{i theta}`` with ``theta in (-pi, pi]`` returns
    ``sqrt(r) e^{i theta/2}``, so ``Re(sqrt(z)) >= 0`` and negative reals map
    to ``+i sqrt(|z|)``. A ``-0.0`` imaginary part is normalized to ``+0.0``
    first so the branch cut always lands on ``theta = +pi``. Real nonnegative
    input stays real.
    """
    if isinstance(z, (float, int, np.floating, np.integer)):
        if z >= 0:
            return math.sqrt(z)
        return complex(0.0, math.sqrt(-z))
    z = complex(z)
    if z.imag == 0.0:
        z = complex(z.real, 0.0)
    return cmath.sqrt(z)


# Entries per BLAS dot product: below OpenBLAS's threading bound of 10,000
# entries, so each chunk rounds the same way whatever the thread count.
_DOT_CHUNK = 8192
_FIRST = np.zeros(1, dtype=np.intp)  # the one segment of a whole-array reduceat


def _norm2(x) -> float:
    """2-norm of a vector by BLAS ``dznrm2`` (complex) or ``dnrm2`` (real).

    Every norm that feeds a result goes through here: unlike
    ``np.linalg.norm``, whose ``ddot`` is threaded above 10,000 entries, these
    kernels give the same bits for any number of BLAS threads.
    """
    x = np.asarray(x)
    return float(dznrm2(x) if x.dtype.kind == "c" else dnrm2(x))


def _sum_all(values: np.ndarray):
    """Whole-array sum routed through the float64 reduction kernel."""
    if values.size == 0:
        return 0.0
    return float(np.add.reduceat(values, _FIRST)[0])


def bilinear_dot(u, v):
    """Unconjugated inner product ``u^T v = sum_i u_i v_i``.

    Unlike the Hermitian dot this can be zero for a nonzero vector, e.g.
    ``u = (1+1j, 1-1j)``. Real operands are multiplied elementwise and summed
    by one fixed float64 kernel. Complex operands are summed by BLAS
    ``zdotu`` over fixed chunks of ``_DOT_CHUNK`` entries, added in index
    order, so the bits do not depend on the BLAS thread count; ``zdotu`` sums
    ``Re*Re``, ``Im*Im``, ``Re*Im`` and ``Im*Re`` separately, which keeps the
    result exactly symmetric in the arguments. When its imaginary part is
    exactly zero -- always so on real data -- the product is instead expanded
    into real and imaginary parts, each reduced by the real kernel, so the
    complex path is bit-identical to the real one on real data.
    """
    u = np.asarray(u)
    v = np.asarray(v)
    if u.ndim != 1 or u.shape != v.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    if u.dtype.kind == "c" or v.dtype.kind == "c":
        u = np.ascontiguousarray(u, dtype=np.complex128)
        v = np.ascontiguousarray(v, dtype=np.complex128)
        z = 0j
        for i in range(0, len(u), _DOT_CHUNK):
            z += complex(np.dot(u[i : i + _DOT_CHUNK], v[i : i + _DOT_CHUNK]))
        if z.imag != 0:  # NaN too
            return z
        a, b = u.real, u.imag
        c, d = v.real, v.imag
        return complex(
            _sum_all(a * c) - _sum_all(b * d),
            _sum_all(a * d) + _sum_all(b * c),
        )
    return _sum_all(u * v)


def _values(data) -> np.ndarray:
    """float64 values when every imaginary part is exactly zero, else complex128."""
    data = np.asarray(data)
    if data.dtype.kind == "c":
        if not np.any(data.imag):
            return np.ascontiguousarray(data.real, dtype=np.float64)
        return np.ascontiguousarray(data, dtype=np.complex128)
    return np.ascontiguousarray(data, dtype=np.float64)


def _row_indices(indptr) -> np.ndarray:
    """The row of each stored entry of a CSR pattern with row pointer ``indptr``."""
    return np.repeat(np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr))


class SparseSymMatrix:
    """Sparse symmetric matrix in compressed-row form, storing both triangles.

    The stored pattern covers the full symmetric structure, so one CSR
    product computes a matvec. Symmetry means ``A^T = A`` (no conjugation);
    the constructor verifies it exactly, entry for entry, and raises
    :class:`EntryError` at the first duplicate entry, or else the first entry
    whose mirror is missing or differs, in row-major order, in O(nnz) passes:
    symmetry is one compiled transpose compared with the stored arrays, and a
    search runs only to name a bad entry. Values are kept as float64 when
    every imaginary part is exactly zero (``is_real``), complex128 otherwise,
    so real problems automatically run on the real fast path.

    Instances are immutable after construction. The three CSR arrays are the
    whole matrix: products run on them, and no SciPy sparse object is kept.
    """

    __slots__ = ("n", "indptr", "indices", "data", "is_real")

    def __init__(self, n: int, indptr, indices, data):
        n = int(n)
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        data = _values(data)
        if indptr.shape != (n + 1,) or indptr[0] != 0 or indptr[-1] != len(indices):
            raise ValueError("malformed indptr")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if len(indices) != len(data):
            raise ValueError("indices/data length mismatch")
        if len(indices) and (indices.min() < 0 or indices.max() >= n):
            raise ValueError("column index out of range")
        rows = _row_indices(indptr)
        nonfinite = np.flatnonzero(~np.isfinite(data))
        if len(nonfinite):
            k = int(nonfinite[0])
            raise ValueError(f"non-finite entry {data[k]} at ({rows[k]},{indices[k]})")
        bad = (rows[1:] == rows[:-1]) & (np.diff(indices) <= 0)
        if bad.any():
            k = int(np.argmax(bad))
            if indices[k + 1] == indices[k]:
                raise EntryError(rows[k], indices[k], "duplicate entry")
            raise ValueError(f"row {rows[k]}: column indices not strictly increasing (unsorted)")
        self.n = n
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.is_real = data.dtype.kind == "f"
        self._check_symmetry(rows)

    def _check_symmetry(self, rows: np.ndarray):
        n, indptr, cols, data = self.n, self.indptr, self.indices, self.data
        # the transpose of sorted CSR, by one compiled counting sort, is again
        # sorted CSR: A = A^T exactly when it gives back the same three arrays
        t = (np.empty_like(indptr), np.empty_like(cols), np.empty_like(data))
        csr_tocsc(n, n, indptr, cols, data, *t)
        if all(map(np.array_equal, t, (indptr, cols, data))):
            return
        # name the first entry whose mirror, found by its row-major key, is missing or differs
        at = np.searchsorted(rows * n + cols, cols * n + rows).clip(max=len(cols) - 1)
        bad = (rows[at] != cols) | (cols[at] != rows) | (data[at] != data)
        i = int(np.argmax(bad))
        raise EntryError(rows[i], cols[i], "not symmetric at entry")

    @classmethod
    def from_coo(cls, n: int, rows, cols, values) -> "SparseSymMatrix":
        """Build from triplets covering the full symmetric pattern.

        Triplets may arrive in any order; duplicate ``(i, j)`` pairs are
        rejected. Two stable compiled counting sorts, by column and then by
        row, order them in O(nnz + n), ties as under a lexsort.
        """
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        cols = np.ascontiguousarray(cols, dtype=np.int64)
        values = _values(values)
        if not (len(rows) == len(cols) == len(values)):
            raise ValueError("rows/cols/values length mismatch")
        if len(rows) and (rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n):
            raise ValueError("index out of range")
        if n < 1:
            return cls(n, [0], rows, values)  # the constructor's dimension error
        t = (np.empty(n + 1, np.int64), np.empty_like(rows), np.empty_like(values))
        coo_tocsr(n, n, len(rows), cols, rows, values, *t)  # A^T: by column, then input order
        del rows, cols, values
        csr = tuple(map(np.empty_like, t))
        csr_tocsc(n, n, *t, *csr)  # A: by row, then column
        del t
        return cls(n, *csr)

    @classmethod
    def from_dense(cls, M) -> "SparseSymMatrix":
        """Build from a dense array, keeping every nonzero entry."""
        M = np.asarray(M)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("dense input must be square")
        rows, cols = np.nonzero(M)
        return cls.from_coo(M.shape[0], rows, cols, M[rows, cols])

    @property
    def nnz(self) -> int:
        return len(self.data)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n), dtype=self.data.dtype)
        out[_row_indices(self.indptr), self.indices] = self.data
        return out

    def __repr__(self):
        kind = "real" if self.is_real else "complex"
        return f"SparseSymMatrix(n={self.n}, nnz={self.nnz}, {kind})"


def _csr_product(A: SparseSymMatrix, X, counter: "FlopCounter | None" = None) -> np.ndarray:
    """``A @ X`` for ``X`` of shape ``(N,)`` or ``(N, k)`` by SciPy's compiled
    ``csr_matvec`` or ``csr_matvecs`` on the stored arrays: the kernels that
    SciPy's ``csr_array @ X`` runs, so with its bits. Each column is charged
    to ``counter`` as one matvec, real when ``A`` and ``X`` are both real.

    ``X`` is made C-contiguous in the product's dtype, at least float64. A
    real ``A`` multiplies a complex ``X`` as its float64 view with twice the
    columns, so the product stays in real arithmetic: its real and imaginary
    parts are bitwise the products of ``X.real`` and ``X.imag``. Each row
    sums its products in stored column order, for every column alike, so a
    column's result does not depend on the other columns of ``X``.
    """
    X = np.ascontiguousarray(X, dtype=np.result_type(X, A.data, np.float64))
    if X.ndim not in (1, 2) or len(X) != A.n:  # the kernels read A.n rows of X unchecked
        raise ValueError(f"operand shape {X.shape} does not match matrix dimension {A.n}")
    if counter is not None:
        counter.add_matvec(A.nnz * (X.size // A.n), real=X.dtype.kind != "c")
    if A.is_real and X.dtype.kind == "c":
        R = _csr_product(A, X.view(np.float64).reshape(A.n, -1))
        return R.view(np.complex128).reshape(X.shape)
    out = np.zeros(X.shape, dtype=X.dtype)  # the kernels add each row's products to it
    if X.ndim == 1:
        csr_matvec(A.n, A.n, A.indptr, A.indices, A.data, X, out)
    else:
        csr_matvecs(A.n, A.n, X.shape[1], A.indptr, A.indices, A.data, X.ravel(), out.ravel())
    return out


def spmv(A: SparseSymMatrix, v, counter: "FlopCounter | None" = None) -> np.ndarray:
    """Sparse matvec ``A @ v`` of a vector by :func:`_csr_product`, which
    charges it to ``counter``: in float64 when ``A`` and ``v`` are real, else
    in complex128, but a real ``A`` applies to a complex ``v`` in real
    arithmetic, so that the result is ``spmv(A, v.real) + 1j * spmv(A, v.imag)``
    bitwise. Any input layout is accepted (non-contiguous, read-only).
    """
    v = np.asarray(v)
    if v.shape != (A.n,):
        raise ValueError(f"vector length {v.shape} does not match matrix dimension {A.n}")
    return _csr_product(A, v, counter)


@dataclass(frozen=True)
class ShiftSet:
    """Ordered collection of scalar shifts. Duplicates are allowed and are
    solved independently."""

    shifts: np.ndarray

    def __post_init__(self):
        shifts = np.atleast_1d(np.asarray(self.shifts, dtype=np.complex128))
        if shifts.ndim != 1 or shifts.size < 1:
            raise ValueError("need at least one shift")
        shifts.setflags(write=False)
        object.__setattr__(self, "shifts", shifts)

    @property
    def m(self) -> int:
        return len(self.shifts)

    def __len__(self):
        return len(self.shifts)

    def __iter__(self):
        return iter(self.shifts)

    def __getitem__(self, i):
        return self.shifts[i]


@dataclass
class FlopCounter:
    """Operation counters by category, used for the cost bookkeeping that
    backs the method comparisons.

    Counting convention:

    * ``matvec_real`` / ``matvec_complex``: ``2*nnz`` per sparse matvec
      (one multiply and one add per stored entry), split by whether the
      product ran in real or complex arithmetic.
    * ``shift_update``: the steady-state solution-update cost per shift per
      iteration -- ``6N+3`` for the three-term (rotation-based) recurrences
      and ``4N+2`` for the two-term (elimination/Galerkin) recurrences --
      charged uniformly at every step.
    * ``least_squares``: nominal scalar-op charge for the rotation or
      elimination recurrences on the projected problem.

    Lanczos vector updates and norm computations are not counted. Counts are
    monotone non-decreasing during a solve.
    """

    matvec_real: int = 0
    matvec_complex: int = 0
    shift_update: int = 0
    least_squares: int = 0

    @property
    def matvec(self) -> int:
        return self.matvec_real + self.matvec_complex

    def add_matvec(self, nnz: int, real: bool):
        if real:
            self.matvec_real += 2 * nnz
        else:
            self.matvec_complex += 2 * nnz

    def add_shift_update(self, ops: int):
        self.shift_update += ops

    def add_least_squares(self, ops: int):
        self.least_squares += ops

    def snapshot(self) -> "FlopCounter":
        return replace(self)
