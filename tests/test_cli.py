import hashlib
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from shiftkrylov import (
    METHODS,
    DenseOracle,
    SparseSymMatrix,
    cli,
    default_rhs,
    read_shifts,
    solve_all,
    true_residual,
    write_matrix_market,
)
from shiftkrylov.cli import (
    EXIT_BREAKDOWN,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNCONVERGED,
    EXIT_USAGE,
    generate_hamiltonian_analog,
    main,
)


def test_parser_defaults_match_protocol():
    from shiftkrylov.cli import build_parser

    args = build_parser().parse_args(["--generate", "8,2,1", "--shifts", "s.txt"])
    assert args.tol == 1e-12
    assert args.rhs is None  # falls back to e_1
    assert args.method == "all"
    assert args.max_iter is None  # falls back to 2n


def test_module_entry_point_runs_without_warning():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "shiftkrylov", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: shiftkrylov")


class TestGenerator:
    def test_deterministic_for_fixed_seed(self):
        A = generate_hamiltonian_analog(4, 1, seed=7)
        B = generate_hamiltonian_analog(4, 1, seed=7)
        assert np.array_equal(A.to_dense(), B.to_dense())
        assert A.is_real

    def test_different_seeds_differ(self):
        A = generate_hamiltonian_analog(16, 2, seed=1)
        B = generate_hamiltonian_analog(16, 2, seed=2)
        assert not np.array_equal(A.to_dense(), B.to_dense())

    def test_symmetric_by_construction(self):
        A = generate_hamiltonian_analog(10, 3, seed=3)
        M = A.to_dense()
        assert np.array_equal(M, M.T)

    def test_density_matches_band(self):
        A = generate_hamiltonian_analog(512, 34, seed=5)
        assert 512 <= A.nnz <= 512 * (2 * 34 + 1)
        # full band: interior rows have exactly 2*34+1 entries
        widths = np.diff(A.indptr)
        assert widths.max() == 2 * 34 + 1

    def test_complex_variant(self):
        A = generate_hamiltonian_analog(8, 2, seed=9, real=False)
        assert not A.is_real
        assert np.array_equal(A.to_dense(), A.to_dense().T)

    def test_sweep_matrix_bits_are_pinned(self):
        # the matrix of the README sweep, by a digest of its CSR arrays
        A = generate_hamiltonian_analog(512, 34, seed=42)
        digest = hashlib.sha256()
        for array in (A.indptr, A.indices, A.data):
            digest.update(array.tobytes())
        assert (A.indptr.dtype, A.indices.dtype, A.data.dtype, A.nnz) == (
            np.int64, np.int64, np.float64, 34138)
        assert digest.hexdigest() == (
            "4c2678c798e2d8ce69e7fc2037fbd7cbf1dad885413baabb627313c08d7ebf41")

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            generate_hamiltonian_analog(1, 1, seed=0)
        with pytest.raises(ValueError):
            generate_hamiltonian_analog(4, 4, seed=0)
        with pytest.raises(ValueError):
            generate_hamiltonian_analog(4, 0, seed=0)
        with pytest.raises(ValueError, match="dominance must be nonnegative"):
            generate_hamiltonian_analog(4, 1, seed=0, dominance=-1.0)


def write_shift_file(path, text="0.5 0.001\n1.5 0.001\n0.9 0.001\n"):
    path.write_text(text)
    return str(path)


def identity_mtx(tmp_path, n=3):
    p = tmp_path / "eye.mtx"
    write_matrix_market(SparseSymMatrix.from_dense(np.eye(n)), p)
    return str(p)


class TestRun:
    def test_identity_all_methods_single_iteration(self, tmp_path, capsys):
        shifts = write_shift_file(tmp_path / "s.txt")
        prefix = str(tmp_path / "out")
        code = main(
            [
                "--matrix", identity_mtx(tmp_path),
                "--shifts", shifts,
                "--method", "all",
                "--out-prefix", prefix,
            ]
        )
        assert code == EXIT_OK
        for method in ("cocg", "qmr-sym", "qmr-sym-b", "qmr-sym-omega"):
            lines = Path(f"{prefix}.{method}.summary.txt").read_text().splitlines()
            data = [l for l in lines if not l.startswith("#")]
            assert len(data) == 3
            assert all(int(l.split()[3]) == 1 for l in data)
        assert "converged=3/3" in capsys.readouterr().out

    def test_oracle_check_distances(self, tmp_path):
        shifts = write_shift_file(tmp_path / "s.txt", "0.3 0.001\n0.5 0.001\n0.8 0.2\n1.2 0.001\n")
        prefix = str(tmp_path / "chk")
        code = main(
            [
                "--generate", "16,3,11",
                "--shifts", shifts,
                "--method", "all",
                "--check",
                "--tol", "1e-10",
                "--out-prefix", prefix,
            ]
        )
        assert code == EXIT_OK
        for method in ("cocg", "qmr-sym", "qmr-sym-b", "qmr-sym-omega"):
            data = [
                l
                for l in Path(f"{prefix}.{method}.summary.txt").read_text().splitlines()
                if not l.startswith("#")
            ]
            for line in data:
                toks = line.split()
                assert float(toks[-1]) <= 1e-8  # oracle distance
                assert float(toks[5]) <= 1e-9  # true relative residual

    def test_check_verifies_outside_the_solve(self, tmp_path):
        # --check takes each true residual from the returned solution after the
        # solve, on no counter of it: compare.txt keeps the bytes of a run without it
        shifts = write_shift_file(tmp_path / "s.txt", "range 0.4 0.001 0.001 5\n")
        for name, flags in (("plain", []), ("checked", ["--check"])):
            args = ["--generate", "64,5,1", "--shifts", shifts, "--out-prefix", str(tmp_path / name)]
            assert main(args + flags) == EXIT_OK
        compare = [(tmp_path / f"{name}.compare.txt").read_bytes() for name in ("plain", "checked")]
        assert compare[0] == compare[1]
        A, b = generate_hamiltonian_analog(64, 5, 1), default_rhs(64)
        sigma = read_shifts(shifts).shifts
        for method in METHODS:
            x, rep = solve_all(A, b, sigma, method=method)
            lines = (tmp_path / f"checked.{method}.summary.txt").read_text().splitlines()
            rel_true = [float(l.split()[5]) for l in lines if not l.startswith("#")]
            assert rel_true == (true_residual(A, sigma, b, x) / rep.bnorm).tolist()

    def test_compare_table_flop_ratio(self, tmp_path):
        shifts = write_shift_file(tmp_path / "s.txt")
        prefix = str(tmp_path / "cmp")
        code = main(
            [
                "--generate", "32,4,13",
                "--shifts", shifts,
                "--method", "all",
                "--tol", "1e-300",
                "--max-iter", "6",
                "--out-prefix", prefix,
            ]
        )
        assert code == EXIT_UNCONVERGED  # tol is unreachable by design
        totals = {}
        for line in Path(f"{prefix}.compare.txt").read_text().splitlines():
            if line.startswith("# totals"):
                toks = dict(t.split("=") for t in line[2:].split() if "=" in t)
                totals[toks["method"]] = int(toks["update_flops"])
        assert totals["qmr-sym-b"] * 3 == totals["qmr-sym"] * 2
        assert totals["cocg"] == totals["qmr-sym-b"]

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.mtx"
        bad.write_text("%%MatrixMarket matrix coordinate real symmetric\nnonsense\n")
        shifts = write_shift_file(tmp_path / "s.txt")
        assert main(["--matrix", str(bad), "--shifts", shifts]) == EXIT_PARSE

    def test_huge_declared_entry_count_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "huge.mtx"
        bad.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                       "3 3 1000000000000\n1 1 1.0\n")
        shifts = write_shift_file(tmp_path / "s.txt")
        assert main(["--matrix", str(bad), "--shifts", shifts]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "expected 1000000000000 entries, found 1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("message", ["Unable to allocate 7.28 TiB", ""])
    def test_memory_error_is_usage_error(self, tmp_path, capsys, monkeypatch, message):
        def too_large(path):
            raise MemoryError(message)

        monkeypatch.setattr(cli.skio, "read_shifts", too_large)
        shifts = write_shift_file(tmp_path / "s.txt")
        assert main(["--generate", "16,3,1", "--shifts", shifts]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"error: {message or 'out of memory'}\n"

    def test_breakdown_exit_code(self, tmp_path):
        rhs = tmp_path / "iso.txt"
        rhs.write_text("1.0 1.0\n1.0 -1.0\n0.0 0.0\n")
        shifts = write_shift_file(tmp_path / "s.txt")
        code = main(
            [
                "--matrix", identity_mtx(tmp_path),
                "--shifts", shifts,
                "--rhs", str(rhs),
                "--method", "qmr-sym",
            ]
        )
        assert code == EXIT_BREAKDOWN

    def test_lanczos_breakdown_exit_code(self, tmp_path, capsys):
        # A e_1 = (0, 1, i) has a zero bilinear square: the run breaks down at step 1
        mtx = tmp_path / "iso.mtx"
        M = np.array([[0, 1, 1j], [1, 0, 0], [1j, 0, 0]])
        write_matrix_market(SparseSymMatrix.from_dense(M), mtx)
        shifts = write_shift_file(tmp_path / "s.txt")
        assert main(["--matrix", str(mtx), "--shifts", shifts]) == EXIT_BREAKDOWN
        assert "Traceback" not in capsys.readouterr().err

    def test_per_shift_breakdown_exit_code(self, tmp_path):
        # elimination pivot is exactly zero for sigma = 0 on this matrix;
        # the other shift still converges but breakdown wins the exit code
        a1, b1 = 0.7, 1.5
        a2 = (b1 / a1) * b1
        M = np.array([[a1, b1, 0.0], [b1, a2, 0.5], [0.0, 0.5, 3.0]])
        mtx = tmp_path / "pivot.mtx"
        write_matrix_market(SparseSymMatrix.from_dense(M), mtx)
        shifts = write_shift_file(tmp_path / "s.txt", "0.0 0.0\n0.3 0.0\n")
        code = main(["--matrix", str(mtx), "--shifts", shifts, "--method", "qmr-sym-b"])
        assert code == EXIT_BREAKDOWN
        # the rotation method handles the same input fine
        code = main(["--matrix", str(mtx), "--shifts", shifts, "--method", "qmr-sym"])
        assert code == EXIT_OK

    def test_unconverged_exit_code(self, tmp_path):
        shifts = write_shift_file(tmp_path / "s.txt")
        code = main(
            [
                "--generate", "24,3,17",
                "--shifts", shifts,
                "--method", "qmr-sym",
                "--tol", "1e-300",
                "--max-iter", "4",
            ]
        )
        assert code == EXIT_UNCONVERGED

    def test_usage_errors(self, tmp_path):
        shifts = write_shift_file(tmp_path / "s.txt")
        # --history without --out-prefix
        assert (
            main(["--generate", "8,2,1", "--shifts", shifts, "--history"]) == EXIT_USAGE
        )
        # malformed generate spec, and a negative dominance
        assert main(["--generate", "8", "--shifts", shifts]) == EXIT_USAGE
        assert main(["--generate", "8,2,1,-1", "--shifts", shifts]) == EXIT_USAGE
        # --check above the oracle cap
        assert (
            main(["--generate", "600,4,1", "--shifts", shifts, "--check"]) == EXIT_USAGE
        )
        # argparse-level: missing required --shifts
        with pytest.raises(SystemExit) as exc:
            main(["--generate", "8,2,1"])
        assert exc.value.code == 2

    def test_unwritable_out_prefix_is_usage_error(self, tmp_path, capsys):
        shifts = write_shift_file(tmp_path / "s.txt")
        prefix = str(tmp_path / "missing" / "out")
        code = main(["--generate", "16,3,1", "--shifts", shifts, "--out-prefix", prefix])
        assert code == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_singular_check_is_usage_error(self, tmp_path, capsys):
        mtx = tmp_path / "diag.mtx"
        write_matrix_market(SparseSymMatrix.from_dense(np.diag([1.0, 2.0, 3.0])), mtx)
        shifts = write_shift_file(tmp_path / "s.txt", "-1 0\n0.5 0\n")
        out = tmp_path / "out"
        out.mkdir()
        code = main(["--matrix", str(mtx), "--shifts", shifts, "--check",
                     "--out-prefix", str(out / "run")])
        assert code == EXIT_USAGE
        assert "singular to working precision" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_check_solves_nothing_before_the_options_are_checked(self, tmp_path, capsys,
                                                                 monkeypatch):
        solves = []
        solve = DenseOracle.solve

        def counting(self, sigma, b):
            solves.append(sigma)
            return solve(self, sigma, b)

        monkeypatch.setattr(DenseOracle, "solve", counting)
        shifts = write_shift_file(tmp_path / "s.txt", "range 0.4 0.001 0.001 20\n")
        args = ["--generate", "64,5,1", "--shifts", shifts, "--check"]
        assert main(args + ["--tol", "nan"]) == EXIT_USAGE
        assert "tol must be finite" in capsys.readouterr().err
        assert solves == []
        # one dense solve per shift, shared by all four methods
        assert main(args) == EXIT_OK
        assert len(solves) == 20

    def test_check_memory_does_not_grow_with_factorizations(self, tmp_path):
        # one 4 MiB dense LU at a time: a factorization kept for each of the
        # 20 shifts would pass the bound on its own
        shifts = write_shift_file(tmp_path / "s.txt", "range 0.4 0.001 0.001 20\n")
        tracemalloc.start()
        try:
            code = main(["--generate", "512,34,42", "--shifts", shifts, "--check"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak < 40 * 2**20, f"{peak / 2**20:.1f} MiB"

    def test_huge_shift_does_not_overflow(self, tmp_path):
        # |sigma|^2 overflows float64; every method must still finish cleanly
        shifts = write_shift_file(tmp_path / "s.txt", "1e300 1e300\n0.5 0.1\n")
        assert main(["--generate", "64,5,1", "--shifts", shifts]) == EXIT_OK

    def summaries(self, capsys, args):
        """The summary lines of one successful run, without their timing."""
        assert main(args) == EXIT_OK
        out, err = capsys.readouterr()
        assert err == ""
        return re.sub(r" wall=\S+", "", out)

    @pytest.mark.parametrize("first", ["1e15", "1e200", "1e-200", "1e-320"])
    def test_rhs_scale_keeps_the_summaries(self, tmp_path, capsys, first):
        # b = 1e15 e_1 stopped the QMR methods "lucky" at step 1, 1e200 ended
        # in an OverflowError traceback and 1e-200 in a breakdown at step 0;
        # at the subnormal 1e-320 the recurrences for g underflowed and the
        # QMR methods reported "converged" at step 5
        shifts = write_shift_file(tmp_path / "s.txt", "0.5 0.01\n0.3 0\n")
        runs = []
        for value in ("1", first):
            rhs = tmp_path / f"b{value}.txt"
            rhs.write_text(f"{value} 0\n" + "0 0\n" * 63)
            runs.append(self.summaries(capsys, ["--generate", "64,5,1", "--shifts", shifts,
                                                "--tol", "1e-10", "--rhs", str(rhs)]))
        assert runs[0] == runs[1] and "iterations=14 converged=2/2" in runs[0]

    def test_matrix_scale_keeps_the_summaries(self, tmp_path, capsys):
        # entries about 1e160 overflowed ||v~||^2 into a traceback
        A = generate_hamiltonian_analog(64, 5, 1)
        runs = []
        for scale in (1.0, 1e160):
            mtx = tmp_path / f"a{scale}.mtx"
            write_matrix_market(SparseSymMatrix(A.n, A.indptr, A.indices, A.data * scale), mtx)
            shifts = write_shift_file(tmp_path / "s.txt", f"{0.5 * scale} {0.01 * scale}\n")
            runs.append(self.summaries(capsys, ["--matrix", str(mtx), "--shifts", shifts,
                                                "--tol", "1e-10"]))
        assert runs[0] == runs[1]

    def test_solution_beyond_float64_is_usage_error(self, tmp_path, capsys):
        # A at 1e-20 and b at 1e300: x near 1e320 came back with non-finite
        # entries and a "converged" status
        A = generate_hamiltonian_analog(64, 5, 1)
        mtx = tmp_path / "tiny.mtx"
        write_matrix_market(SparseSymMatrix(A.n, A.indptr, A.indices, A.data * 1e-20), mtx)
        rhs = tmp_path / "b.txt"
        rhs.write_text("1e300 0\n" + "0 0\n" * 63)
        shifts = write_shift_file(tmp_path / "s.txt", "0.5e-20 0.01e-20\n")
        code = main(["--matrix", str(mtx), "--shifts", shifts, "--rhs", str(rhs)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: a solution exceeds float64 range\n"

    # A at 2^-1030 and the shift 2^-1031: f = -beta / t_n overflowed at step 1,
    # into a traceback under -W error::RuntimeWarning and exit 5 without it
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_recurrence_overflow_is_usage_error(self, tmp_path, capsys):
        A = generate_hamiltonian_analog(64, 5, 1)
        mtx = tmp_path / "tiny.mtx"
        write_matrix_market(SparseSymMatrix(A.n, A.indptr, A.indices, np.ldexp(A.data, -1030)),
                            mtx)
        shifts = write_shift_file(tmp_path / "s.txt", "4.345847379897e-311 0\n")
        code = main(["--matrix", str(mtx), "--shifts", shifts, "--tol", "1e-10",
                     "--method", "qmr-sym-b"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == ("error: the recurrences of shift "
                                           "(4.345847379897e-311+0j) exceed float64 range\n")

    def test_rhs_norm_beyond_float64_is_usage_error(self, tmp_path, capsys):
        rhs = tmp_path / "b.txt"
        rhs.write_text("1.5e308 0\n1.5e308 0\n0 0\n")
        shifts = write_shift_file(tmp_path / "s.txt")
        code = main(["--matrix", identity_mtx(tmp_path), "--shifts", shifts, "--rhs", str(rhs)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: ||b|| = inf: the right-hand side exceeds float64 range\n")

    # the overflowed product reaches the step's norm without a RuntimeWarning
    # on the way, which -W error would turn into a traceback
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_product_beyond_float64_is_usage_error(self, tmp_path, capsys):
        mtx = tmp_path / "over.mtx"
        write_matrix_market(SparseSymMatrix.from_dense(np.full((3, 3), 1.5e308)), mtx)
        rhs = tmp_path / "b.txt"
        rhs.write_text("1 0\n1 0\n0 0\n")
        shifts = write_shift_file(tmp_path / "s.txt")
        assert main(["--matrix", str(mtx), "--shifts", shifts, "--rhs", str(rhs)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "error: ||v|| = nan at Lanczos step 1: the input exceeds float64 range\n"

    def test_non_finite_shift_is_usage_error(self, tmp_path, capsys):
        shifts = write_shift_file(tmp_path / "s.txt", "0.5 0.1\nnan 0\n")
        assert main(["--generate", "64,5,1", "--shifts", shifts]) == EXIT_USAGE
        assert "shifts[1]" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_is_usage_error(self, tmp_path, capsys, tol):
        shifts = write_shift_file(tmp_path / "s.txt")
        assert main(["--generate", "64,5,1", "--shifts", shifts, "--tol", tol]) == EXIT_USAGE
        assert "tol must be finite" in capsys.readouterr().err

    def test_zero_rhs_is_usage_error(self, tmp_path):
        rhs = tmp_path / "zero.txt"
        rhs.write_text("0.0 0.0\n0.0 0.0\n0.0 0.0\n")
        shifts = write_shift_file(tmp_path / "s.txt")
        code = main(
            ["--matrix", identity_mtx(tmp_path), "--shifts", shifts, "--rhs", str(rhs)]
        )
        assert code == EXIT_USAGE

    def test_rhs_file_accepted(self, tmp_path):
        rhs = tmp_path / "b.txt"
        rhs.write_text("1.0 0.0\n0.5 0.0\n0.25 0.0\n")
        shifts = write_shift_file(tmp_path / "s.txt")
        code = main(
            ["--matrix", identity_mtx(tmp_path), "--shifts", shifts, "--method", "cocg"]
            + ["--rhs", str(rhs)]
        )
        assert code == EXIT_OK


class TestDeterminism:
    def run_once(self, tmp_path, tag):
        shifts = write_shift_file(tmp_path / "s.txt", "range 0.4 0.01 0.001 20\n")
        prefix = str(tmp_path / tag)
        code = main(
            [
                "--generate", "48,5,23",
                "--shifts", shifts,
                "--method", "all",
                "--history",
                "--tol", "1e-12",
                "--out-prefix", prefix,
            ]
        )
        assert code == EXIT_OK
        out = {}
        for method in ("cocg", "qmr-sym", "qmr-sym-b", "qmr-sym-omega"):
            out[f"{method}.summary"] = Path(f"{prefix}.{method}.summary.txt").read_bytes()
            out[f"{method}.history"] = Path(f"{prefix}.{method}.history.csv").read_bytes()
        out["compare"] = Path(f"{prefix}.compare.txt").read_bytes()
        return out

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        first = self.run_once(tmp_path, "run1")
        second = self.run_once(tmp_path, "run2")
        assert first.keys() == second.keys()
        for key in first:
            assert first[key] == second[key], key

    def test_history_does_not_change_iterations(self, tmp_path):
        # --history only records: every summary and the comparison are the
        # same bytes with and without it
        shifts = write_shift_file(tmp_path / "s.txt", "range 0.4 0.01 0.001 20\n")
        args = ["--generate", "48,5,23", "--shifts", shifts, "--method", "all", "--tol", "1e-12"]
        for tag, extra in (("hist", ["--history"]), ("plain", [])):
            assert main(args + extra + ["--out-prefix", str(tmp_path / tag)]) == EXIT_OK
        names = [f"{method}.summary.txt" for method in ("cocg", "qmr-sym", "qmr-sym-b",
                                                         "qmr-sym-omega")] + ["compare.txt"]
        for name in names:
            hist, plain = ((tmp_path / f"{tag}.{name}").read_bytes() for tag in ("hist", "plain"))
            assert hist == plain, name
