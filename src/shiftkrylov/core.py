"""Shared numerical kernels and containers for the multi-shift solvers.

Scalars are plain ``float``/``complex`` (float64/complex128 under NumPy);
vectors are 1-D NumPy arrays. Real data stays in real dtype end to end so
the solvers can exploit real arithmetic, complex data is complex128.

The inner product used throughout is the *bilinear* (unconjugated) one,
``u^T v``, not the Hermitian ``u^H v``. It can vanish for nonzero complex
vectors; that degeneracy is exactly what the breakdown checks guard.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse

__all__ = [
    "BreakdownError",
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


def _sum_all(values: np.ndarray):
    """Whole-array sum routed through the float64 reduction kernel.

    Complex input is reduced as two separate float64 sums, so real data
    passed as complex128 with zero imaginary parts reduces through exactly
    the same code path (hence the same bits) as float64 data.
    """
    if values.dtype.kind == "c":
        return complex(_sum_all(values.real), _sum_all(values.imag))
    if values.size == 0:
        return 0.0
    return float(np.add.reduceat(values, [0])[0])


def bilinear_dot(u, v):
    """Unconjugated inner product ``u^T v = sum_i u_i v_i``.

    Unlike the Hermitian dot this can be zero for a nonzero vector, e.g.
    ``u = (1+1j, 1-1j)``. Complex products are expanded into their real and
    imaginary parts explicitly and every reduction runs through one fixed
    float64 kernel, which makes the result exactly symmetric in the
    arguments and bit-identical between the real path and the complex path
    on real data.
    """
    u = np.asarray(u)
    v = np.asarray(v)
    if u.ndim != 1 or u.shape != v.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    if u.dtype.kind == "c" or v.dtype.kind == "c":
        a, b = np.asarray(u.real), np.asarray(u.imag)
        c, d = np.asarray(v.real), np.asarray(v.imag)
        return complex(
            _sum_all(a * c) - _sum_all(b * d),
            _sum_all(a * d) + _sum_all(b * c),
        )
    return _sum_all(u * v)


def _row_reduce_real(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    n = len(indptr) - 1
    out = np.zeros(n, dtype=np.float64)
    if values.size == 0:
        return out
    nonempty = indptr[:-1] < indptr[1:]
    if nonempty.all():
        out[:] = np.add.reduceat(values, indptr[:-1])
    else:
        out[nonempty] = np.add.reduceat(values, indptr[:-1][nonempty])
    return out


def _row_reduce(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Sum ``values`` over the segments delimited by ``indptr`` (CSR rows).

    Empty rows yield exact zeros. Complex data is reduced as two float64
    passes so that the real and complex paths stay bitwise consistent on
    real data.
    """
    if values.dtype.kind == "c":
        return _row_reduce_real(np.ascontiguousarray(values.real), indptr) + 1j * _row_reduce_real(
            np.ascontiguousarray(values.imag), indptr
        )
    return _row_reduce_real(values, indptr)


class SparseSymMatrix:
    """Sparse symmetric matrix in compressed-row form, storing both triangles.

    The stored pattern covers the full symmetric structure so a single row
    sweep computes a matvec. Symmetry means ``A^T = A`` (no conjugation);
    the constructor verifies it exactly, entry for entry. Values are kept as
    float64 when every imaginary part is exactly zero (``is_real``), complex128
    otherwise, so real problems automatically run on the real fast path.

    Instances are immutable after construction and safe to share across
    concurrent readers; the cached :attr:`csr` view is built on first use,
    at worst once per concurrent first reader.
    """

    __slots__ = ("n", "indptr", "indices", "data", "is_real", "_csr")

    def __init__(self, n: int, indptr, indices, data):
        n = int(n)
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        data = np.asarray(data)
        if data.dtype.kind == "c":
            if not np.any(data.imag):
                data = np.ascontiguousarray(data.real, dtype=np.float64)
            else:
                data = np.ascontiguousarray(data, dtype=np.complex128)
        else:
            data = np.ascontiguousarray(data, dtype=np.float64)
        if indptr.shape != (n + 1,) or indptr[0] != 0 or indptr[-1] != len(indices):
            raise ValueError("malformed indptr")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if len(indices) != len(data):
            raise ValueError("indices/data length mismatch")
        if len(indices) and (indices.min() < 0 or indices.max() >= n):
            raise ValueError("column index out of range")
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        nonfinite = np.flatnonzero(~np.isfinite(data))
        if len(nonfinite):
            k = int(nonfinite[0])
            raise ValueError(f"non-finite entry {data[k]} at ({rows[k]},{indices[k]})")
        if len(indices) > 1:
            within_row = rows[1:] == rows[:-1]
            bad = within_row & (np.diff(indices) <= 0)
            if bad.any():
                k = int(np.nonzero(bad)[0][0])
                raise ValueError(
                    f"row {rows[k]}: column indices not strictly increasing "
                    "(unsorted or duplicate)"
                )
        self.n = n
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.is_real = data.dtype.kind == "f"
        self._csr = None
        self._check_symmetry(rows)

    def _check_symmetry(self, rows: np.ndarray):
        cols = self.indices
        # sort the transposed triplets into row-major order and compare
        order = np.lexsort((rows, cols))
        if not (np.array_equal(cols[order], rows) and np.array_equal(rows[order], cols)):
            raise ValueError("pattern is not structurally symmetric")
        if not np.array_equal(self.data[order], self.data):
            i = int(np.nonzero(self.data[order] != self.data)[0][0])
            raise ValueError(
                f"matrix is not numerically symmetric at entry ({rows[i]},{cols[i]})"
            )

    @classmethod
    def from_coo(cls, n: int, rows, cols, values) -> "SparseSymMatrix":
        """Build from triplets covering the full symmetric pattern.

        Triplets may arrive in any order; duplicate ``(i, j)`` pairs are
        rejected.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values)
        if not (len(rows) == len(cols) == len(values)):
            raise ValueError("rows/cols/values length mismatch")
        if len(rows) and (rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n):
            raise ValueError("index out of range")
        order = np.lexsort((cols, rows))
        rows, cols, values = rows[order], cols[order], values[order]
        if len(rows) > 1:
            same = (np.diff(rows) == 0) & (np.diff(cols) == 0)
            if same.any():
                k = int(np.nonzero(same)[0][0])
                raise ValueError(f"duplicate entry ({rows[k]},{cols[k]})")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(n, indptr, cols, values)

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

    @property
    def csr(self) -> scipy.sparse.csr_array:
        """The same matrix as a ``scipy.sparse`` CSR array, for block
        products; built on first use (not at construction) and cached."""
        if self._csr is None:
            self._csr = scipy.sparse.csr_array(
                (self.data, self.indices, self.indptr), shape=(self.n, self.n)
            )
        return self._csr

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n), dtype=self.data.dtype)
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        out[rows, self.indices] = self.data
        return out

    def shifted(self, sigma) -> "SparseSymMatrix":
        """Return ``A + sigma*I`` as a new matrix (diagonal entries are added
        to the pattern where missing)."""
        rows = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        cols = self.indices.copy()
        diag = rows == cols
        dtype = np.result_type(self.data.dtype, type(sigma))
        values = self.data.astype(dtype)
        values[diag] = values[diag] + sigma
        missing = np.setdiff1d(np.arange(self.n, dtype=np.int64), rows[diag])
        if len(missing):
            rows = np.concatenate([rows, missing])
            cols = np.concatenate([cols, missing])
            values = np.concatenate([values, np.full(len(missing), sigma, dtype=dtype)])
        return SparseSymMatrix.from_coo(self.n, rows, cols, values)

    def __repr__(self):
        kind = "real" if self.is_real else "complex"
        return f"SparseSymMatrix(n={self.n}, nnz={self.nnz}, {kind})"


def spmv(A: SparseSymMatrix, v, counter: "FlopCounter | None" = None) -> np.ndarray:
    """Sparse matvec ``A @ v`` as a row sweep over the stored pattern.

    A real matrix applied to a real vector runs entirely in float64; any
    complex operand promotes the whole product to complex128. The per-row
    reduction order is fixed, so repeated calls are bit-reproducible and the
    real/complex paths agree bitwise on real data.
    """
    v = np.asarray(v)
    if v.shape != (A.n,):
        raise ValueError(f"vector length {v.shape} does not match matrix dimension {A.n}")
    prod = A.data * v[A.indices]
    out = _row_reduce(prod, A.indptr)
    if counter is not None:
        counter.add_matvec(A.nnz, real=A.is_real and v.dtype.kind != "c")
    return out


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
    monotone non-decreasing during a solve; ``reset`` is explicit.
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

    def merge(self, other: "FlopCounter"):
        self.matvec_real += other.matvec_real
        self.matvec_complex += other.matvec_complex
        self.shift_update += other.shift_update
        self.least_squares += other.least_squares

    def snapshot(self) -> "FlopCounter":
        return FlopCounter(
            self.matvec_real, self.matvec_complex, self.shift_update, self.least_squares
        )

    def reset(self):
        self.matvec_real = 0
        self.matvec_complex = 0
        self.shift_update = 0
        self.least_squares = 0
