import tracemalloc

import numpy as np
import pytest

from shiftkrylov import (
    ParseError,
    SparseSymMatrix,
    default_rhs,
    read_matrix_market,
    read_rhs,
    read_shifts,
    solve_all,
    write_history_csv,
    write_matrix_market,
    write_summary,
)

from shiftkrylov import io as mmio

from _reference import rand_complex_symmetric, rand_real_symmetric


HDR = "%%MatrixMarket matrix coordinate real symmetric\n"


def write(path, text):
    path.write_text(text)
    return path


class TestReadMatrixMarket:
    def test_symmetric_lower_triangle_is_mirrored(self, tmp_path):
        p = write(
            tmp_path / "a.mtx",
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 2\n"
            "1 1 1.0\n"
            "2 1 2.0\n",
        )
        A = read_matrix_market(p)
        assert np.array_equal(A.to_dense(), np.array([[1.0, 2.0], [2.0, 0.0]]))

    def test_read_peak_is_bounded_by_the_file_size(self, tmp_path):
        # a complex 12^3 lattice: nearest-neighbour hopping, on-site imaginary part
        L = 12
        n = L**3
        idx = np.arange(n).reshape(L, L, L)
        lo = np.concatenate([np.take(idx, np.arange(L - 1), axis=ax).ravel() for ax in range(3)])
        hi = np.concatenate([np.take(idx, np.arange(1, L), axis=ax).ravel() for ax in range(3)])
        rng = np.random.default_rng(62)
        onsite = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(0.0, 1.0, n)
        rows = np.concatenate([lo, hi, np.arange(n)])
        cols = np.concatenate([hi, lo, np.arange(n)])
        vals = np.concatenate([np.full(2 * len(lo), -1.0 + 0j), onsite])
        A = SparseSymMatrix.from_coo(n, rows, cols, vals)
        p = tmp_path / "lattice.mtx"
        write_matrix_market(A, p)
        tracemalloc.start()
        try:
            B = read_matrix_market(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(B.data, A.data) and np.array_equal(B.indices, A.indices)
        # the entries and from_coo's work arrays, without the file's lines
        # (which take about three times the file's size as Python strings)
        assert peak <= 10.5 * p.stat().st_size

    def test_complex_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(60)
        A = SparseSymMatrix.from_dense(rand_complex_symmetric(9, rng))
        p = tmp_path / "c.mtx"
        write_matrix_market(A, p)
        B = read_matrix_market(p)
        assert B.n == A.n
        assert np.array_equal(B.indptr, A.indptr)
        assert np.array_equal(B.indices, A.indices)
        assert np.array_equal(B.data, A.data)

    def test_real_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(61)
        A = SparseSymMatrix.from_dense(rand_real_symmetric(7, rng))
        p = tmp_path / "r.mtx"
        write_matrix_market(A, p)
        B = read_matrix_market(p)
        assert B.is_real
        assert np.array_equal(B.data, A.data)

    def test_general_symmetric_accepted(self, tmp_path):
        p = write(
            tmp_path / "g.mtx",
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 3\n"
            "1 1 1.0\n"
            "1 2 2.0\n"
            "2 1 2.0\n",
        )
        A = read_matrix_market(p)
        assert np.array_equal(A.to_dense(), np.array([[1.0, 2.0], [2.0, 0.0]]))

    def test_hermitian_rejected(self, tmp_path):
        p = write(
            tmp_path / "h.mtx",
            "%%MatrixMarket matrix coordinate complex hermitian\n" "1 1 1\n" "1 1 1.0 0.0\n",
        )
        with pytest.raises(ParseError, match="symmetry"):
            read_matrix_market(p)

    @pytest.mark.parametrize("field", ["integer", "pattern"])
    def test_non_numeric_fields_rejected(self, tmp_path, field):
        p = write(
            tmp_path / "f.mtx",
            f"%%MatrixMarket matrix coordinate {field} symmetric\n" "1 1 1\n" "1 1 1\n",
        )
        with pytest.raises(ParseError, match="field"):
            read_matrix_market(p)

    def test_array_format_rejected(self, tmp_path):
        p = write(
            tmp_path / "arr.mtx",
            "%%MatrixMarket matrix array real symmetric\n" "1 1\n" "1.0\n",
        )
        with pytest.raises(ParseError, match="format"):
            read_matrix_market(p)

    def test_general_asymmetric_value_rejected_with_line(self, tmp_path):
        p = write(
            tmp_path / "bad.mtx",
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 3\n"
            "1 1 1.0\n"
            "1 2 2.0\n"
            "2 1 2.5\n",
        )
        with pytest.raises(ParseError, match="not symmetric") as exc:
            read_matrix_market(p)
        assert exc.value.line in (4, 5)

    @pytest.mark.parametrize("symmetry", ["general", "symmetric"])
    def test_non_finite_value_rejected_with_line(self, tmp_path, symmetry):
        # in a general file a mirrored NaN pair must not read as asymmetric
        p = write(
            tmp_path / "nan.mtx",
            f"%%MatrixMarket matrix coordinate real {symmetry}\n"
            "2 2 3\n"
            "1 1 1.0\n"
            "2 1 nan\n"
            + ("1 2 nan\n" if symmetry == "general" else "2 2 inf\n"),
        )
        with pytest.raises(ParseError, match="non-finite") as exc:
            read_matrix_market(p)
        assert exc.value.line == 4

    def test_general_missing_mirror_rejected(self, tmp_path):
        p = write(
            tmp_path / "bad2.mtx",
            "%%MatrixMarket matrix coordinate real general\n" "2 2 2\n" "1 1 1.0\n" "1 2 2.0\n",
        )
        with pytest.raises(ParseError, match="not symmetric"):
            read_matrix_market(p)

    def test_symmetric_upper_entry_rejected(self, tmp_path):
        p = write(
            tmp_path / "up.mtx",
            "%%MatrixMarket matrix coordinate real symmetric\n" "2 2 1\n" "1 2 2.0\n",
        )
        with pytest.raises(ParseError, match="above the diagonal") as exc:
            read_matrix_market(p)
        assert exc.value.line == 3

    def test_duplicate_entry_rejected(self, tmp_path):
        p = write(
            tmp_path / "dup.mtx",
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 2\n"
            "1 1 1.0\n"
            "1 1 2.0\n",
        )
        with pytest.raises(ParseError, match="duplicate") as exc:
            read_matrix_market(p)
        assert exc.value.line == 4

    @pytest.mark.parametrize("symmetry, entries, line, message", [
        ("symmetric", ["1 1 1.0", "2 1 0.5", "2 1 0.5", "2 2 1.0"], 5, "duplicate entry (2,1)"),
        ("symmetric", ["2 2 1.0", "2 2 2.0", "2 2 3.0", "1 1 1.0"], 4, "duplicate entry (2,2)"),
        ("general", ["1 1 1.0", "2 1 2.0", "1 2 3.0"], 5,
         "general file is not symmetric at entry (1,2)"),
        ("general", ["1 1 1.0", "3 2 1.0", "3 3 1.0"], 4,
         "general file is not symmetric at entry (3,2)"),
        ("general", ["1 1 1.0", "1 2 2.0", "2 1 2.0", "1 2 2.0"], 6, "duplicate entry (1,2)"),
        ("general", ["1 1 1.0", "2 2 1.0", "3 1 1.0", "3 2 2.0", "1 3 1.5", "2 3 5.0"], 7,
         "general file is not symmetric at entry (1,3)"),
    ], ids=["sym-offdiag-dup", "sym-diag-triple", "gen-value", "gen-missing-mirror",
            "gen-dup", "gen-two-pairs"])
    def test_entry_fault_line_and_message(self, tmp_path, symmetry, entries, line, message):
        # the first fault in row-major order, at the line of the file entry
        n = max(int(tok) for e in entries for tok in e.split()[:2])
        p = write(
            tmp_path / "fault.mtx",
            f"%%MatrixMarket matrix coordinate real {symmetry}\n{n} {n} {len(entries)}\n"
            + "".join(e + "\n" for e in entries),
        )
        with pytest.raises(ParseError) as exc:
            read_matrix_market(p)
        assert exc.value.line == line
        assert str(exc.value) == f"{p}:{line}: {message}"

    def test_asymmetry_names_an_entry_without_its_mirror(self, tmp_path):
        # (2,2) is its own mirror and comes first; the fault is (3,1), without (1,3)
        p = write(
            tmp_path / "nomirror.mtx",
            "%%MatrixMarket matrix coordinate real general\n" "4 4 2\n" "2 2 1.0\n" "3 1 2.0\n",
        )
        with pytest.raises(ParseError) as exc:
            read_matrix_market(p)
        assert exc.value.line == 4
        assert str(exc.value).endswith(": general file is not symmetric at entry (3,1)")

    def test_out_of_range_index(self, tmp_path):
        p = write(
            tmp_path / "oob.mtx",
            "%%MatrixMarket matrix coordinate real symmetric\n" "2 2 1\n" "3 1 1.0\n",
        )
        with pytest.raises(ParseError, match="out of range") as exc:
            read_matrix_market(p)
        assert exc.value.line == 3

    def test_wrong_token_count(self, tmp_path):
        p = write(
            tmp_path / "tok.mtx",
            "%%MatrixMarket matrix coordinate complex symmetric\n" "1 1 1\n" "1 1 1.0\n",
        )
        with pytest.raises(ParseError, match="tokens"):
            read_matrix_market(p)

    def test_missing_entries(self, tmp_path):
        p = write(
            tmp_path / "few.mtx",
            "%%MatrixMarket matrix coordinate real symmetric\n" "2 2 2\n" "1 1 1.0\n",
        )
        with pytest.raises(ParseError, match="expected 2 entries"):
            read_matrix_market(p)

    def test_huge_declared_count_is_a_parse_error(self, tmp_path):
        # the line-by-line reader sizes its arrays by the lines present, not
        # by the declared count
        p = write(
            tmp_path / "huge.mtx",
            "%%MatrixMarket matrix coordinate real symmetric\n" "3 3 1000000000000\n" "1 1 1.0\n",
        )
        with pytest.raises(ParseError, match="expected 1000000000000 entries, found 1") as exc:
            read_matrix_market(p)
        assert exc.value.line == 4

    def test_extra_entries(self, tmp_path):
        p = write(
            tmp_path / "many.mtx",
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "1 1 1\n"
            "1 1 1.0\n"
            "1 1 2.0\n",
        )
        with pytest.raises(ParseError):
            read_matrix_market(p)

    def test_rectangular_rejected(self, tmp_path):
        p = write(
            tmp_path / "rect.mtx",
            "%%MatrixMarket matrix coordinate real symmetric\n" "2 3 1\n" "1 1 1.0\n",
        )
        with pytest.raises(ParseError, match="square"):
            read_matrix_market(p)

    def test_empty_file(self, tmp_path):
        p = write(tmp_path / "empty.mtx", "")
        with pytest.raises(ParseError, match="empty"):
            read_matrix_market(p)

    @pytest.mark.parametrize("text, line, message", [
        ("%MatrixMarket matrix coordinate real symmetric\n1 1 1\n1 1 1.0\n", 1,
         "expected '%%MatrixMarket matrix coordinate <field> <symmetry>'"),
        ("%%MatrixMarket vector coordinate real general\n1 1 1\n1 1 1.0\n", 1,
         "unsupported object 'vector'"),
        (HDR + "\n1 1 1\n1 1 1.0\n", 2, "blank line before size line"),
        (HDR + "% no size line\n", 2, "missing size line"),
        (HDR + "1 1 x\n1 1 1.0\n", 2, "size line must contain integers"),
        (HDR + "0 0 0\n", 2, "invalid dimensions"),
        (HDR + "2 2 -1\n1 1 1.0\n", 2, "invalid dimensions"),
        (HDR + f"{10**30} {10**30} 1\n1 1 1.0\n", 2, "invalid dimensions"),
        (HDR + f"{2**63 - 1} {2**63 - 1} 1\n1 1 1.0\n", 2, "invalid dimensions"),
        (HDR + f"{2**60 - 1} {2**60 - 1} 1\n1 1 1.0\n", 2, "invalid dimensions"),
    ], ids=["banner", "vector", "blank-before-size", "no-size", "non-integer-size",
            "zero-size", "negative-count", "size-1e30", "size-int64-max", "size-past-2^63-bytes"])
    def test_header_and_size_line_faults(self, tmp_path, text, line, message):
        p = write(tmp_path / "head.mtx", text)
        with pytest.raises(ParseError) as exc:
            read_matrix_market(p)
        assert str(exc.value) == f"{p}:{line}: {message}"

    # 10^15 row pointers take 8 PB, past the x86-64 address space, so the
    # allocation fails even where memory is overcommitted; 2^60 - 2 is the
    # largest dimension whose row pointer NumPy can size (2^63 - 8 bytes)
    @pytest.mark.parametrize("n", [10**15, 2**60 - 2])
    def test_size_line_too_large_for_memory_names_the_file(self, tmp_path, n):
        p = write(tmp_path / "big.mtx", HDR + f"% a comment\n{n} {n} 1\n1 1 1.0\n")
        with pytest.raises(MemoryError) as exc:
            read_matrix_market(p)
        assert str(exc.value) == f"{p}:3: {n}x{n} matrix too large for memory"

    def test_trailing_blank_lines_and_no_entries(self, tmp_path):
        # blank lines after the data end it, in the one-pass parser and in the
        # line-by-line one, which alone reads a file without entries
        A = read_matrix_market(write(tmp_path / "tail.mtx", HDR + "2 2 2\n1 1 1.0\n2 2 2.0\n\n\n"))
        assert np.array_equal(A.to_dense(), np.diag([1.0, 2.0]))
        for tail in ("", "\n\n"):
            A = read_matrix_market(write(tmp_path / "none.mtx", HDR + "3 3 0\n" + tail))
            assert A.n == 3 and A.nnz == 0 and A.is_real

    def test_comments_allowed_after_header(self, tmp_path):
        p = write(
            tmp_path / "cmt.mtx",
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "% a comment\n"
            "% another\n"
            "1 1 1\n"
            "1 1 4.0\n",
        )
        A = read_matrix_market(p)
        assert A.to_dense()[0, 0] == 4.0

    def test_error_carries_path_and_line(self, tmp_path):
        p = write(tmp_path / "loc.mtx", "%%MatrixMarket matrix coordinate real symmetric\nxxx\n")
        with pytest.raises(ParseError) as exc:
            read_matrix_market(p)
        assert exc.value.path.endswith("loc.mtx")
        assert exc.value.line == 2
        assert "loc.mtx:2:" in str(exc.value)


def lattice_file(path, L=10, seed=62):
    """Matrix Market file of a complex symmetric 3-D nearest-neighbour
    lattice (lower triangle, ``repr`` values) and the full-pattern triplets
    it describes."""
    rng = np.random.default_rng(seed)
    n = L**3
    idx = np.arange(n).reshape(L, L, L)
    lo = np.concatenate([np.take(idx, np.arange(L - 1), axis=a).ravel() for a in range(3)])
    hi = np.concatenate([np.take(idx, np.arange(1, L), axis=a).ravel() for a in range(3)])
    hop = rng.standard_normal(len(lo)) + 1j * rng.standard_normal(len(lo))
    diag = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    lines = ["%%MatrixMarket matrix coordinate complex symmetric", f"{n} {n} {n + len(lo)}"]
    lines += [f"{i + 1} {i + 1} {z.real!r} {z.imag!r}" for i, z in enumerate(diag.tolist())]
    lines += [f"{j + 1} {i + 1} {z.real!r} {z.imag!r}" for i, j, z in zip(lo, hi, hop.tolist())]
    path.write_text("\n".join(lines) + "\n")
    rows = np.concatenate([np.arange(n), lo, hi])
    cols = np.concatenate([np.arange(n), hi, lo])
    return lines, SparseSymMatrix.from_coo(n, rows, cols, np.concatenate([diag, hop, hop]))


class TestBulkMatrixMarket:
    def test_large_body_reads_bitwise_equal_to_from_coo(self, tmp_path, monkeypatch):
        lines, ref = lattice_file(tmp_path / "lattice.mtx")
        assert len(lines) > 3000

        def no_scan(*args):
            raise AssertionError("a well-formed body is parsed in bulk")

        monkeypatch.setattr(mmio, "_scan_entries", no_scan)
        A = read_matrix_market(tmp_path / "lattice.mtx")
        assert np.array_equal(A.indptr, ref.indptr)
        assert np.array_equal(A.indices, ref.indices)
        assert np.array_equal(A.data, ref.data) and A.data.dtype == ref.data.dtype

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("{i} {j} {re} abc", "malformed entry"),
            ("{i}.0 {j} {re} {im}", "malformed entry"),
            ("{i} {j} {re}", "expected 4 tokens, got 3"),
            ("{i} {j} {re} {im} 0.5", "expected 4 tokens, got 5"),
            ("{j} {i} {re} {im}", "above the diagonal"),
            ("{i} 99999 {re} {im}", "out of range"),
            ("{i} {j} {re} nan", "non-finite value"),
            ("", "blank line inside data section"),
        ],
    )
    def test_fault_deep_in_a_large_body_keeps_its_line(self, tmp_path, bad, message):
        lines, _ = lattice_file(tmp_path / "ok.mtx")
        at = 2900  # an off-diagonal entry on line 2901 of the file
        i, j, re, im = lines[at].split()
        lines[at] = bad.format(i=i, j=j, re=re, im=im)
        p = tmp_path / "bad.mtx"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=message) as exc:
            read_matrix_market(p)
        assert exc.value.line == at + 1


class TestShiftFiles:
    def test_pairs(self, tmp_path):
        p = write(tmp_path / "s.txt", "0.5 0.001\n# comment\n\n-1.5 0.25\n")
        s = read_shifts(p)
        assert s.m == 2
        assert s[0] == 0.5 + 0.001j and s[1] == -1.5 + 0.25j

    def test_range_expansion_matches_formula_in_float64(self, tmp_path):
        p = write(tmp_path / "r.txt", "range 0.4 0.001 0.001 1001\n")
        s = read_shifts(p)
        assert s.m == 1001
        for ell in range(1, 1002):
            expected = complex(0.4 + (ell - 1) * 0.001, 0.001)
            assert s[ell - 1] == expected

    def test_range_imaginary_step_is_division_exact(self, tmp_path):
        # step 0.001 parsed from text equals the correctly rounded 1/1000
        p = write(tmp_path / "r.txt", "range 0.4 0.001 0.001 5\n")
        s = read_shifts(p)
        assert np.all(s.shifts.imag == 1.0 / 1000.0)

    def test_range_must_be_alone(self, tmp_path):
        for text in ("range 0 1 0 3\n1.0 0.0\n", "1.0 0.0\nrange 0 1 0 3\n"):
            p = write(tmp_path / "bad.txt", text)
            with pytest.raises(ParseError, match="only content line"):
                read_shifts(p)

    def test_malformed_generator_line(self, tmp_path):
        for text, message in (("range 0 1 0\n", "expected 'range a step_re step_im m'"),
                              ("range 0 1 0 x\n", "malformed generator line")):
            p = write(tmp_path / "gen.txt", text)
            with pytest.raises(ParseError) as exc:
                read_shifts(p)
            assert str(exc.value) == f"{p}:1: {message}"

    def test_bad_count(self, tmp_path):
        p = write(tmp_path / "bad2.txt", "range 0 1 0 0\n")
        with pytest.raises(ParseError, match=">= 1"):
            read_shifts(p)

    def test_malformed_pair(self, tmp_path):
        p = write(tmp_path / "bad3.txt", "1.0\n")
        with pytest.raises(ParseError, match="re im"):
            read_shifts(p)
        p = write(tmp_path / "bad4.txt", "0.5 0.0\n1.0 abc\n")
        with pytest.raises(ParseError, match="malformed shift pair") as exc:
            read_shifts(p)
        assert exc.value.line == 2

    def test_empty(self, tmp_path):
        p = write(tmp_path / "none.txt", "# nothing\n")
        with pytest.raises(ParseError, match="no shifts"):
            read_shifts(p)


class TestRhs:
    def test_default_is_first_unit_vector(self):
        assert np.array_equal(default_rhs(3), np.array([1.0, 0.0, 0.0]))

    def test_real_detection(self, tmp_path):
        p = write(tmp_path / "b.txt", "1.0 0.0\n2.0 0.0\n")
        b = read_rhs(p, 2)
        assert b.dtype == np.float64 and np.array_equal(b, [1.0, 2.0])

    def test_complex_kept(self, tmp_path):
        p = write(tmp_path / "bc.txt", "1.0 0.5\n2.0 0.0\n")
        b = read_rhs(p, 2)
        assert b.dtype == np.complex128 and b[0] == 1.0 + 0.5j

    def test_length_mismatch_names_both(self, tmp_path):
        p = write(tmp_path / "short.txt", "1.0 0.0\n")
        with pytest.raises(ParseError, match="expected 3 entries, found 1"):
            read_rhs(p, 3)

    def test_malformed_entry_names_its_line(self, tmp_path):
        p = write(tmp_path / "bad.txt", "1.0 0.0\nx 0.0\n")
        with pytest.raises(ParseError, match="malformed rhs entry") as exc:
            read_rhs(p, 2)
        assert exc.value.line == 2


def small_report(tmp_path, record_history=True, m=1):
    rng = np.random.default_rng(62)
    A = SparseSymMatrix.from_dense(rand_real_symmetric(8, rng))
    b = rng.standard_normal(8)
    shifts = [0.2 + 0.01j, 150.0][:m]
    x, rep = solve_all(A, b, shifts, method="qmr-sym", tol=1e-10, record_history=record_history)
    return rep


class TestHistoryCsv:
    def test_single_shift_single_iteration(self, tmp_path):
        A = SparseSymMatrix.from_dense(np.eye(3))
        x, rep = solve_all(A, np.array([1.0, 1.0, 1.0]), [0.5], tol=1e-12, record_history=True)
        p = tmp_path / "h.csv"
        write_history_csv(rep, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "iter,shift_index,sigma_re,sigma_im,rel_residual_estimate"
        assert len(lines) == 2
        assert lines[1].startswith("1,1,")

    def test_deflated_shift_stops_emitting_rows(self, tmp_path):
        rng = np.random.default_rng(63)
        A = SparseSymMatrix.from_dense(rand_real_symmetric(12, rng))
        b = rng.standard_normal(12)
        x, rep = solve_all(
            A, b, [0.1 + 0.01j, 200.0], method="qmr-sym", tol=1e-11, record_history=True
        )
        p = tmp_path / "h.csv"
        write_history_csv(rep, p)
        rows = [line.split(",") for line in p.read_text().splitlines()[1:]]
        per_shift = {idx: [int(r[0]) for r in rows if int(r[1]) == idx] for idx in (1, 2)}
        assert len(per_shift[2]) == rep.iters[1]
        assert max(per_shift[2]) == rep.iters[1]
        assert len(per_shift[1]) == rep.iters[0] > rep.iters[1]

    def test_round_trip_is_value_exact(self, tmp_path):
        rep = small_report(tmp_path)
        p = tmp_path / "h.csv"
        write_history_csv(rep, p)
        rows = [line.split(",") for line in p.read_text().splitlines()[1:]]
        parsed = {(int(r[0]), int(r[1])): float(r[4]) for r in rows}
        for idx, hist in enumerate(rep.history, start=1):
            for it, rel in hist:
                assert parsed[(it, idx)] == rel

    def test_iteration_major_order(self, tmp_path):
        rep = small_report(tmp_path, m=2)
        p = tmp_path / "h.csv"
        write_history_csv(rep, p)
        keys = [
            (int(r[0]), int(r[1]))
            for r in (line.split(",") for line in p.read_text().splitlines()[1:])
        ]
        assert keys == sorted(keys)

    def test_requires_history(self, tmp_path):
        rep = small_report(tmp_path, record_history=False)
        with pytest.raises(ValueError, match="history"):
            write_history_csv(rep, tmp_path / "h.csv")


class TestSummary:
    def test_row_count_matches_shift_count(self, tmp_path):
        rep = small_report(tmp_path, m=2)
        p = tmp_path / "s.txt"
        write_summary(rep, p)
        lines = p.read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert len(data) == rep.m

    def test_bytes_deterministic_for_identical_reports(self, tmp_path):
        rep = small_report(tmp_path, m=2)
        p1, p2 = tmp_path / "s1.txt", tmp_path / "s2.txt"
        write_summary(rep, p1)
        write_summary(rep, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_oracle_column_appended(self, tmp_path):
        rep = small_report(tmp_path, m=2)
        p = tmp_path / "s.txt"
        write_summary(rep, p, check=(np.array([3e-13, 4e-13]), np.array([1e-12, 2e-12])))
        data = [l for l in p.read_text().splitlines() if not l.startswith("#")]
        assert all(len(l.split()) == 8 for l in data)
        assert [l.split()[5] for l in data] == ["3e-13", "4e-13"]  # rel_true
        assert float(data[0].split()[-1]) == 1e-12
