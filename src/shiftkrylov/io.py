"""File ingestion and result emission.

Formats
-------
* Matrix Market coordinate files, kinds ``real``/``complex`` with symmetry
  ``symmetric`` (lower triangle stored, mirrored on read) or ``general``
  (full pattern stored, verified exactly symmetric). Everything else --
  ``array`` format, ``integer``/``pattern`` fields, ``hermitian``/``skew``
  symmetry -- is rejected: the solvers need ``A^T = A``.
* Shift files: one ``re im`` pair per line, or a single generator line
  ``range a step_re step_im m`` expanding to
  ``sigma_l = a + (l-1)*step_re + i*step_im`` (float64 arithmetic, in that
  order).
* Right-hand-side files: one ``re im`` pair per line.
* Convergence histories as CSV and per-shift summaries as a fixed-column
  text table, both with 17-significant-digit (round-trip exact) numbers and
  deterministic bytes for identical reports.

Readers reject malformed input rather than repairing it, and every parse
error carries the file path and line number. Blank lines and ``#`` comment
lines are allowed in shift and rhs files; Matrix Market comments use ``%``
after the header as usual.
"""

from __future__ import annotations

import numpy as np

from .core import ShiftSet, SparseSymMatrix
from .solvers import SolveReport

__all__ = [
    "ParseError",
    "default_rhs",
    "read_matrix_market",
    "read_rhs",
    "read_shifts",
    "write_history_csv",
    "write_matrix_market",
    "write_summary",
]


class ParseError(ValueError):
    """Malformed input file; carries the path and 1-based line number."""

    def __init__(self, path, line: int, message: str):
        self.path = str(path)
        self.line = line
        super().__init__(f"{path}:{line}: {message}")


def _fmt(x: float) -> str:
    """Shortest round-trip-exact decimal for a float64."""
    return repr(float(x))


def read_matrix_market(path) -> SparseSymMatrix:
    """Read a Matrix Market coordinate file into a :class:`SparseSymMatrix`.

    ``symmetric`` files must store only the lower triangle (``i >= j``); the
    strict upper part is mirrored in. ``general`` files must contain the full
    pattern and are verified to be exactly symmetric, entry for entry.
    Indices are 1-based in the file and converted internally.
    """
    with open(path, "r") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError(path, 1, "empty file")
    header = lines[0].split()
    if len(header) != 5 or not header[0].lower().startswith("%%matrixmarket"):
        raise ParseError(path, 1, "expected '%%MatrixMarket matrix coordinate <field> <symmetry>'")
    obj, fmt, field, symmetry = (tok.lower() for tok in header[1:5])
    if obj != "matrix":
        raise ParseError(path, 1, f"unsupported object {obj!r}")
    if fmt != "coordinate":
        raise ParseError(path, 1, f"unsupported format {fmt!r} (only 'coordinate')")
    if field not in ("real", "complex"):
        raise ParseError(path, 1, f"unsupported field {field!r} (only 'real' or 'complex')")
    if symmetry not in ("symmetric", "general"):
        raise ParseError(
            path, 1, f"unsupported symmetry {symmetry!r} (only 'symmetric' or 'general')"
        )
    ntok = 4 if field == "complex" else 3

    lineno = 1
    size_line = None
    for k in range(1, len(lines)):
        lineno = k + 1
        text = lines[k]
        if text.startswith("%"):
            continue
        if not text.strip():
            raise ParseError(path, lineno, "blank line before size line")
        size_line = text
        break
    if size_line is None:
        raise ParseError(path, lineno, "missing size line")
    toks = size_line.split()
    if len(toks) != 3:
        raise ParseError(path, lineno, "size line must be '<rows> <cols> <entries>'")
    try:
        nrows, ncols, nnz = (int(t) for t in toks)
    except ValueError:
        raise ParseError(path, lineno, "size line must contain integers") from None
    if nrows != ncols:
        raise ParseError(path, lineno, f"matrix must be square, got {nrows}x{ncols}")
    if nrows < 1 or nnz < 0:
        raise ParseError(path, lineno, "invalid dimensions")

    rows = np.empty(nnz, dtype=np.int64)
    cols = np.empty(nnz, dtype=np.int64)
    vals = np.empty(nnz, dtype=np.complex128)
    entry_line = np.empty(nnz, dtype=np.int64)
    count = 0
    for k in range(lineno, len(lines)):
        text = lines[k]
        if not text.strip():
            if any(t.strip() for t in lines[k + 1:]):
                raise ParseError(path, k + 1, "blank line inside data section")
            break
        if count >= nnz:
            raise ParseError(path, k + 1, f"more than the declared {nnz} entries")
        toks = text.split()
        if len(toks) != ntok:
            raise ParseError(path, k + 1, f"expected {ntok} tokens, got {len(toks)}")
        try:
            i = int(toks[0])
            j = int(toks[1])
            re = float(toks[2])
            im = float(toks[3]) if field == "complex" else 0.0
        except ValueError:
            raise ParseError(path, k + 1, "malformed entry") from None
        if not (1 <= i <= nrows and 1 <= j <= ncols):
            raise ParseError(path, k + 1, f"index ({i},{j}) out of range for {nrows}x{ncols}")
        if symmetry == "symmetric" and i < j:
            raise ParseError(
                path, k + 1, f"entry ({i},{j}) above the diagonal in a symmetric file"
            )
        rows[count] = i - 1
        cols[count] = j - 1
        vals[count] = complex(re, im)
        entry_line[count] = k + 1
        count += 1
    if count != nnz:
        raise ParseError(path, len(lines) + 1, f"expected {nnz} entries, found {count}")
    nonfinite = np.flatnonzero(~np.isfinite(vals))
    if len(nonfinite):
        raise ParseError(path, int(entry_line[nonfinite[0]]), "non-finite value")

    order = np.lexsort((cols, rows))
    srows, scols = rows[order], cols[order]
    if nnz > 1:
        dup = (np.diff(srows) == 0) & (np.diff(scols) == 0)
        if dup.any():
            k = int(np.nonzero(dup)[0][0]) + 1
            raise ParseError(
                path,
                int(entry_line[order[k]]),
                f"duplicate entry ({srows[k] + 1},{scols[k] + 1})",
            )

    if symmetry == "symmetric":
        off = rows != cols
        rows, cols, vals = (
            np.concatenate([rows, cols[off]]),
            np.concatenate([cols, rows[off]]),
            np.concatenate([vals, vals[off]]),
        )
    else:
        # full pattern declared: verify exact symmetry before accepting.
        # Sorting the transposed triplets row-major must reproduce the
        # original sorted triplets bit for bit.
        svals = vals[order]
        torder = np.lexsort((srows, scols))
        mism = ~(
            (scols[torder] == srows) & (srows[torder] == scols) & (svals[torder] == svals)
        )
        if mism.any():
            k = int(np.nonzero(mism)[0][0])
            raise ParseError(
                path,
                int(entry_line[order[k]]),
                f"general file is not symmetric at entry ({srows[k] + 1},{scols[k] + 1})",
            )
    try:
        return SparseSymMatrix.from_coo(nrows, rows, cols, vals)
    except ValueError as exc:
        raise ParseError(path, 1, str(exc)) from None


def write_matrix_market(A: SparseSymMatrix, path) -> None:
    """Write the lower triangle as a Matrix Market ``symmetric`` coordinate
    file with shortest round-trip-exact values."""
    field = "real" if A.is_real else "complex"
    rows = np.repeat(np.arange(A.n, dtype=np.int64), np.diff(A.indptr))
    keep = rows >= A.indices
    ri, ci, vi = rows[keep], A.indices[keep], A.data[keep]
    with open(path, "w") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate {field} symmetric\n")
        fh.write(f"{A.n} {A.n} {len(vi)}\n")
        if A.is_real:
            for i, j, v in zip(ri, ci, vi):
                fh.write(f"{i + 1} {j + 1} {_fmt(v)}\n")
        else:
            for i, j, v in zip(ri, ci, vi):
                fh.write(f"{i + 1} {j + 1} {_fmt(v.real)} {_fmt(v.imag)}\n")


def _content_lines(path):
    """Yield (lineno, text) for non-blank, non-comment lines."""
    with open(path, "r") as fh:
        for k, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            yield k, text


def read_shifts(path) -> ShiftSet:
    """Read a shift file: ``re im`` pairs, or one ``range a step_re step_im m``
    generator line expanding to ``a + (l-1)*step_re + i*step_im``."""
    pairs = []
    generator = None
    for lineno, text in _content_lines(path):
        toks = text.split()
        if toks[0] == "range":
            if generator is not None or pairs:
                raise ParseError(path, lineno, "generator line must be the only content line")
            if len(toks) != 5:
                raise ParseError(path, lineno, "expected 'range a step_re step_im m'")
            try:
                a = float(toks[1])
                step_re = float(toks[2])
                step_im = float(toks[3])
                m = int(toks[4])
            except ValueError:
                raise ParseError(path, lineno, "malformed generator line") from None
            if m < 1:
                raise ParseError(path, lineno, f"shift count must be >= 1, got {m}")
            generator = (a, step_re, step_im, m)
        else:
            if generator is not None:
                raise ParseError(path, lineno, "generator line must be the only content line")
            if len(toks) != 2:
                raise ParseError(path, lineno, "expected 're im' pair")
            try:
                pairs.append(complex(float(toks[0]), float(toks[1])))
            except ValueError:
                raise ParseError(path, lineno, "malformed shift pair") from None
    if generator is not None:
        a, step_re, step_im, m = generator
        ell = np.arange(m, dtype=np.float64)
        shifts = (a + ell * step_re) + 1j * step_im
        return ShiftSet(shifts)
    if not pairs:
        raise ParseError(path, 1, "no shifts in file")
    return ShiftSet(np.array(pairs, dtype=np.complex128))


def default_rhs(n: int) -> np.ndarray:
    """The default right-hand side ``e_1 = (1, 0, ..., 0)``."""
    b = np.zeros(n, dtype=np.float64)
    b[0] = 1.0
    return b


def read_rhs(path, n: int) -> np.ndarray:
    """Read a right-hand side: one ``re im`` pair per line. Returns float64
    when every imaginary part is exactly zero, complex128 otherwise."""
    values = []
    for lineno, text in _content_lines(path):
        toks = text.split()
        if len(toks) != 2:
            raise ParseError(path, lineno, "expected 're im' pair")
        try:
            values.append(complex(float(toks[0]), float(toks[1])))
        except ValueError:
            raise ParseError(path, lineno, "malformed rhs entry") from None
    if len(values) != n:
        raise ParseError(
            path, 1, f"rhs length mismatch: expected {n} entries, found {len(values)}"
        )
    arr = np.array(values, dtype=np.complex128)
    if not np.any(arr.imag):
        return arr.real.astype(np.float64)
    return arr


def write_history_csv(report: SolveReport, path) -> None:
    """Write the per-iteration residual-estimate history.

    One row per (iteration, active shift), iteration-major and shift-minor;
    a deflated shift emits no rows after its convergence iteration. Requires
    the report to have been produced with history recording on.
    """
    if report.history is None:
        raise ValueError("report has no history (solve with record_history=True)")
    # invert per-shift histories into iteration-major order
    by_iter = {}
    for idx, hist in enumerate(report.history):
        for it, rel in hist:
            by_iter.setdefault(it, []).append((idx, rel))
    with open(path, "w") as fh:
        fh.write("iter,shift_index,sigma_re,sigma_im,rel_residual_estimate\n")
        for it in sorted(by_iter):
            for idx, rel in sorted(by_iter[it]):
                sigma = report.shifts[idx]
                fh.write(
                    f"{it},{idx + 1},{_fmt(sigma.real)},{_fmt(sigma.imag)},{_fmt(rel)}\n"
                )


_SUMMARY_COLS = "index sigma_re sigma_im iterations rel_estimate rel_true status"


def write_summary(report: SolveReport, path, oracle_distance=None) -> None:
    """Write the per-shift summary table: one data row per shift.

    Columns: shift index, shift, iteration count, final relative residual
    estimate, final relative true residual (``-`` when not computed) and
    status; plus the relative oracle distance when supplied. The leading
    ``#`` lines carry run metadata. Timing is deliberately left out so that
    identical reports produce identical bytes.
    """
    cols = _SUMMARY_COLS
    if oracle_distance is not None:
        cols += " oracle_distance"
    with open(path, "w") as fh:
        fh.write(
            f"# method={report.method} n={report.n} m={report.m} tol={_fmt(report.tol)} "
            f"iterations={report.iterations} lucky={report.lucky} "
            f"converged={sum(s == 'converged' for s in report.status)}/{report.m}\n"
        )
        fh.write(f"# {cols}\n")
        for idx in range(report.m):
            sigma = report.shifts[idx]
            true_part = (
                _fmt(report.final_rel_true[idx]) if report.final_rel_true is not None else "-"
            )
            row = (
                f"{idx + 1} {_fmt(sigma.real)} {_fmt(sigma.imag)} "
                f"{report.iters[idx]} {_fmt(report.final_rel_estimate[idx])} "
                f"{true_part} {report.status[idx]}"
            )
            if oracle_distance is not None:
                row += f" {_fmt(oracle_distance[idx])}"
            fh.write(row + "\n")
