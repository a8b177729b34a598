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
error carries the file path and line number (a matrix's duplicates and
asymmetric entries are found by :class:`SparseSymMatrix` and mapped back to
their lines). Blank lines and ``#`` comment lines are allowed in shift and
rhs files; Matrix Market comments use ``%`` after the header as usual.
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import EntryError, ShiftSet, SparseSymMatrix, _row_indices, _values

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
    pattern and be exactly symmetric, entry for entry. Indices are 1-based in
    the file and converted internally. A non-finite value is reported at its
    first line; a duplicate or asymmetric entry, found by
    :class:`SparseSymMatrix`, at the line of the entry (or of the lower entry
    it mirrors), for a duplicate its second occurrence. A dimension whose int64
    row pointer NumPy cannot size is a :class:`ParseError`; one that does not
    fit in memory is a ``MemoryError`` naming the size line.
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
    if not 1 <= nrows < 2**60 - 1 or nnz < 0:  # n + 1 int64 row pointers: at most 2^63 - 1 bytes
        raise ParseError(path, lineno, "invalid dimensions")

    parsed = _bulk_entries(lines, lineno, nnz, ntok, nrows, symmetry == "symmetric")
    if parsed is None:
        parsed = _scan_entries(path, lines, lineno, nnz, ntok, nrows, symmetry == "symmetric")
    rows, cols, vals, entry_line = parsed
    del lines, parsed  # the text is not needed past here, and from_coo is where the read peaks
    nonfinite = np.flatnonzero(~np.isfinite(vals))
    if len(nonfinite):
        raise ParseError(path, int(entry_line[nonfinite[0]]), "non-finite value")

    full = (rows, cols, vals)
    if symmetry == "symmetric":  # mirror the strict lower triangle in
        off = rows != cols
        full = [np.concatenate([a, b[off]]) for a, b in ((rows, cols), (cols, rows), (vals, vals))]
    try:
        return SparseSymMatrix.from_coo(nrows, *full)
    except MemoryError:  # the row pointer alone takes n + 1 entries
        raise MemoryError(f"{path}:{lineno}: {nrows}x{nrows} matrix too large for memory") from None
    except EntryError as exc:  # the file's entry, or the lower one it mirrors
        held = np.flatnonzero((rows == exc.row) & (cols == exc.col))
        if not len(held):
            held = np.flatnonzero((rows == exc.col) & (cols == exc.row))
        k = held[min(1, len(held) - 1)]  # a duplicate's second occurrence
        what = "duplicate entry" if len(held) > 1 else "general file is not symmetric at entry"
        raise ParseError(path, int(entry_line[k]), f"{what} ({rows[k] + 1},{cols[k] + 1})") from None


def _bulk_entries(lines, lineno, nnz, ntok, n, symmetric):
    """Parse a well-formed data section in one pass, or return ``None`` when
    anything in it is off; :func:`_scan_entries` then finds the first fault.
    NumPy's parser accepts a subset of what ``int``/``float`` accept, with the
    same values."""
    end = len(lines)
    while end > lineno and not lines[end - 1].strip():
        end -= 1
    body = lines[lineno:end]
    if nnz == 0 or len(body) != nnz:
        return None
    dtype = [("i", np.int64), ("j", np.int64), ("re", np.float64), ("im", np.float64)][:ntok]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = np.loadtxt(body, dtype=dtype, comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    i, j = data["i"], data["j"]
    if len(data) != nnz or min(i.min(), j.min()) < 1 or max(i.max(), j.max()) > n:
        return None
    if symmetric and (i < j).any():
        return None
    vals = np.zeros(nnz, dtype=np.complex128)
    vals.real = data["re"]
    if ntok == 4:
        vals.imag = data["im"]
    return i - 1, j - 1, vals, np.arange(lineno + 1, lineno + 1 + nnz)


def _scan_entries(path, lines, lineno, nnz, ntok, n, symmetric):
    """Parse the data section line by line, raising :class:`ParseError` at
    the first malformed line."""
    size = min(nnz, len(lines) - lineno)  # not the declared count: that may be absurd
    rows, cols, entry_line = (np.empty(size, dtype=np.int64) for _ in range(3))
    vals = np.empty(size, dtype=np.complex128)
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
            im = float(toks[3]) if ntok == 4 else 0.0
        except ValueError:
            raise ParseError(path, k + 1, "malformed entry") from None
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParseError(path, k + 1, f"index ({i},{j}) out of range for {n}x{n}")
        if symmetric and i < j:
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
    return rows, cols, vals, entry_line


def write_matrix_market(A: SparseSymMatrix, path) -> None:
    """Write the lower triangle as a Matrix Market ``symmetric`` coordinate
    file with shortest round-trip-exact values."""
    field = "real" if A.is_real else "complex"
    rows = _row_indices(A.indptr)
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


def _pair(path, lineno: int, text: str, what: str) -> complex:
    """Parse one ``re im`` content line; ``what`` names the entry in the
    message for a line that fails to parse."""
    toks = text.split()
    if len(toks) != 2:
        raise ParseError(path, lineno, "expected 're im' pair")
    try:
        return complex(float(toks[0]), float(toks[1]))
    except ValueError:
        raise ParseError(path, lineno, f"malformed {what}") from None


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
            pairs.append(_pair(path, lineno, text, "shift pair"))
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
    values = [_pair(path, lineno, text, "rhs entry") for lineno, text in _content_lines(path)]
    if len(values) != n:
        raise ParseError(
            path, 1, f"rhs length mismatch: expected {n} entries, found {len(values)}"
        )
    return _values(values)


def write_history_csv(report, path) -> None:
    """Write the per-iteration residual-estimate history of a ``SolveReport``.

    One row per (iteration, active shift), iteration-major and shift-minor;
    a deflated shift emits no rows after its convergence iteration. Requires
    the report to have been produced with history recording on.
    """
    if report.history is None:
        raise ValueError("report has no history (solve with record_history=True)")
    rows = sorted((it, idx, rel) for idx, hist in enumerate(report.history) for it, rel in hist)
    with open(path, "w") as fh:
        fh.write("iter,shift_index,sigma_re,sigma_im,rel_residual_estimate\n")
        for it, idx, rel in rows:
            sigma = report.shifts[idx]
            fh.write(f"{it},{idx + 1},{_fmt(sigma.real)},{_fmt(sigma.imag)},{_fmt(rel)}\n")


_SUMMARY_COLS = "index sigma_re sigma_im iterations rel_estimate rel_true status"


def write_summary(report, path, check=None) -> None:
    """Write the per-shift summary table of a ``SolveReport``: one row per shift.

    Columns: shift index, shift, iteration count, final relative residual
    estimate, final relative true residual and status. ``check``, a pair of
    per-shift arrays (relative true residuals, relative oracle distances),
    fills the true-residual column (``-`` without it) and appends an
    ``oracle_distance`` column. The leading ``#`` lines carry run metadata.
    Timing is deliberately left out so that identical reports produce
    identical bytes.
    """
    cols = _SUMMARY_COLS + ("" if check is None else " oracle_distance")
    with open(path, "w") as fh:
        fh.write(
            f"# method={report.method} n={report.n} m={report.m} tol={_fmt(report.tol)} "
            f"iterations={report.iterations} lucky={report.lucky} "
            f"converged={sum(s == 'converged' for s in report.status)}/{report.m}\n"
        )
        fh.write(f"# {cols}\n")
        for idx in range(report.m):
            sigma = report.shifts[idx]
            true_part, tail = (("-", "") if check is None else
                               (_fmt(check[0][idx]), f" {_fmt(check[1][idx])}"))
            fh.write(
                f"{idx + 1} {_fmt(sigma.real)} {_fmt(sigma.imag)} "
                f"{report.iters[idx]} {_fmt(report.final_rel_estimate[idx])} "
                f"{true_part} {report.status[idx]}{tail}\n"
            )
