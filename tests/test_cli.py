import numpy as np
import pytest

from shiftkrylov import SparseSymMatrix, write_matrix_market
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
    assert args.workers == 1


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

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            generate_hamiltonian_analog(1, 1, seed=0)
        with pytest.raises(ValueError):
            generate_hamiltonian_analog(4, 4, seed=0)
        with pytest.raises(ValueError):
            generate_hamiltonian_analog(4, 0, seed=0)


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
            lines = open(f"{prefix}.{method}.summary.txt").read().splitlines()
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
                for l in open(f"{prefix}.{method}.summary.txt").read().splitlines()
                if not l.startswith("#")
            ]
            for line in data:
                toks = line.split()
                assert float(toks[-1]) <= 1e-8  # oracle distance
                assert float(toks[5]) <= 1e-9  # true relative residual

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
        for line in open(f"{prefix}.compare.txt").read().splitlines():
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
        # malformed generate spec
        assert main(["--generate", "8", "--shifts", shifts]) == EXIT_USAGE
        # --check above the oracle cap
        assert (
            main(["--generate", "600,4,1", "--shifts", shifts, "--check"]) == EXIT_USAGE
        )
        # argparse-level: missing required --shifts
        with pytest.raises(SystemExit) as exc:
            main(["--generate", "8,2,1"])
        assert exc.value.code == 2

    def test_huge_shift_does_not_overflow(self, tmp_path):
        # |sigma|^2 overflows float64; every method must still finish cleanly
        shifts = write_shift_file(tmp_path / "s.txt", "1e300 1e300\n0.5 0.1\n")
        assert main(["--generate", "64,5,1", "--shifts", shifts]) == EXIT_OK

    def test_non_finite_shift_is_usage_error(self, tmp_path, capsys):
        shifts = write_shift_file(tmp_path / "s.txt", "0.5 0.1\nnan 0\n")
        assert main(["--generate", "64,5,1", "--shifts", shifts]) == EXIT_USAGE
        assert "shifts[1]" in capsys.readouterr().err

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
    def run_once(self, tmp_path, tag, workers="1"):
        shifts = write_shift_file(tmp_path / "s.txt", "range 0.4 0.01 0.001 20\n")
        prefix = str(tmp_path / tag)
        code = main(
            [
                "--generate", "48,5,23",
                "--shifts", shifts,
                "--method", "all",
                "--history",
                "--tol", "1e-12",
                "--workers", workers,
                "--out-prefix", prefix,
            ]
        )
        assert code == EXIT_OK
        out = {}
        for method in ("cocg", "qmr-sym", "qmr-sym-b", "qmr-sym-omega"):
            out[f"{method}.summary"] = open(f"{prefix}.{method}.summary.txt", "rb").read()
            out[f"{method}.history"] = open(f"{prefix}.{method}.history.csv", "rb").read()
        out["compare"] = open(f"{prefix}.compare.txt", "rb").read()
        return out

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        first = self.run_once(tmp_path, "run1")
        second = self.run_once(tmp_path, "run2")
        assert first.keys() == second.keys()
        for key in first:
            assert first[key] == second[key], key

    def test_workers_do_not_change_output(self, tmp_path):
        one = self.run_once(tmp_path, "w1", workers="1")
        four = self.run_once(tmp_path, "w4", workers="4")
        for key in one:
            assert one[key] == four[key], key
