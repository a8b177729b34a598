"""Batch driver: load or generate a problem, run one or more methods over a
shift set, emit summaries/histories, optionally cross-check against the
dense oracle.

Exit codes form a stable contract::

    0  every requested shift converged
    2  usage or configuration error, or a problem too large for memory
    3  input file parse error
    4  breakdown (at initialization or for at least one shift)
    5  at least one shift unconverged within the iteration budget

Codes 2 to 4 come with an ``error:`` line on stderr, not a traceback; a
``MemoryError``, such as from a shift file asking for 10^12 shifts, is
reported as code 2. Timing is printed to stdout only; files written under
``--out-prefix`` are byte-deterministic for a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import io as skio
from .core import BreakdownError, FlopCounter, SparseSymMatrix
from .oracle import DEFAULT_CAP, DenseOracle
from .solvers import METHODS, solve_all

__all__ = ["generate_hamiltonian_analog", "main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_BREAKDOWN = 4
EXIT_UNCONVERGED = 5


def generate_hamiltonian_analog(
    n: int,
    bandwidth: int,
    seed: int,
    real: bool = True,
    dominance: float = 1.25,
) -> SparseSymMatrix:
    """Deterministic banded symmetric matrix for desk-scale sweep benchmarks.

    Off-diagonal bands hold seeded uniform values scaled so row sums stay
    O(1) regardless of bandwidth; each diagonal entry is ``dominance`` times
    the absolute off-diagonal row sum plus a seeded positive term.
    ``dominance >= 1`` therefore gives a strictly diagonally dominant matrix
    whose conditioning tightens as the knob grows. Same seed, same matrix,
    bit for bit.
    """
    n = int(n)
    bandwidth = int(bandwidth)
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    if not 1 <= bandwidth < n:
        raise ValueError(f"bandwidth must be in [1, {n - 1}], got {bandwidth}")
    if dominance < 0:
        raise ValueError("dominance must be nonnegative")
    rng = np.random.default_rng(seed)
    scale = 1.0 / (2.0 * bandwidth)
    rows, cols, vals = [], [], []
    abs_rowsum = np.zeros(n)
    for k in range(1, bandwidth + 1):
        band = rng.uniform(-1.0, 1.0, n - k) * scale
        if not real:
            band = band + 1j * (rng.uniform(-1.0, 1.0, n - k) * scale)
        i = np.arange(n - k)
        rows.append(i)
        cols.append(i + k)
        vals.append(band)
        rows.append(i + k)
        cols.append(i)
        vals.append(band)
        abs_rowsum[: n - k] += np.abs(band)
        abs_rowsum[k:] += np.abs(band)
    diag = dominance * abs_rowsum + rng.uniform(0.05, 1.0, n)
    i = np.arange(n)
    rows.append(i)
    cols.append(i)
    vals.append(diag if real else diag.astype(np.complex128))
    return SparseSymMatrix.from_coo(
        n, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="shiftkrylov",
        description="Solve complex symmetric shifted linear systems (A + sigma_l I) x = b "
        "for a whole set of shifts from one Lanczos run.",
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--matrix", metavar="PATH", help="Matrix Market coordinate file")
    src.add_argument(
        "--generate",
        metavar="N,BANDWIDTH,SEED[,DOMINANCE]",
        help="generate a banded symmetric test matrix instead of reading one",
    )
    p.add_argument("--rhs", metavar="PATH", help="right-hand-side file (default: e_1)")
    p.add_argument("--shifts", metavar="PATH", required=True, help="shift file")
    p.add_argument(
        "--method",
        choices=METHODS + ("all",),
        default="all",
        help="solver variant (default: all)",
    )
    p.add_argument("--tol", type=float, default=1e-12, help="relative residual target")
    p.add_argument("--max-iter", type=int, default=None, help="iteration cap (default: 2n)")
    p.add_argument("--history", action="store_true", help="record per-iteration residual estimates")
    p.add_argument(
        "--check",
        action="store_true",
        help=f"cross-check against the dense oracle (n <= {DEFAULT_CAP} only)",
    )
    p.add_argument("--out-prefix", metavar="PREFIX", help="write summary/history files here")
    return p


def _parse_generate(spec: str):
    parts = spec.split(",")
    if len(parts) not in (3, 4):
        raise ValueError("expected N,BANDWIDTH,SEED[,DOMINANCE]")
    n, bandwidth, seed = int(parts[0]), int(parts[1]), int(parts[2])
    dominance = float(parts[3]) if len(parts) == 4 else 1.25
    return n, bandwidth, seed, dominance


def _summary_line(report) -> str:
    conv = sum(s == "converged" for s in report.status)
    return (
        f"method={report.method:13s} n={report.n} m={report.m} "
        f"iterations={report.iterations} converged={conv}/{report.m} "
        f"update_flops={report.flops.shift_update} "
        f"matvec_flops={report.flops.matvec} wall={report.wall_time:.3f}s"
    )


def _write_compare(path, reports):
    """Per-shift iteration counts of every method side by side, plus counter
    totals (no timing: files stay deterministic)."""
    methods = [r.method for r in reports]
    with open(path, "w") as fh:
        fh.write("# index sigma_re sigma_im " + " ".join(f"iters_{m}" for m in methods) + "\n")
        m = reports[0].m
        for idx in range(m):
            sigma = reports[0].shifts[idx]
            counts = " ".join(str(r.iters[idx]) for r in reports)
            fh.write(f"{idx + 1} {skio._fmt(sigma.real)} {skio._fmt(sigma.imag)} {counts}\n")
        for r in reports:
            fh.write(
                f"# totals method={r.method} iterations={r.iterations} "
                f"update_flops={r.flops.shift_update} least_squares_flops={r.flops.least_squares} "
                f"matvec_real={r.flops.matvec_real} matvec_complex={r.flops.matvec_complex}\n"
            )


def main(argv=None) -> int:
    """Run the command line ``argv`` (default: ``sys.argv[1:]``). Returns the
    process exit code; argparse itself exits 2 on a malformed command line."""
    args = build_parser().parse_args(argv)
    try:
        if args.history and not args.out_prefix:
            raise ValueError("--history needs --out-prefix to write the CSV to")
        if args.generate is not None:
            n, bandwidth, seed, dominance = _parse_generate(args.generate)
            A = generate_hamiltonian_analog(n, bandwidth, seed, dominance=dominance)
        else:
            A = skio.read_matrix_market(args.matrix)
        shifts = skio.read_shifts(args.shifts)
        b = skio.read_rhs(args.rhs, A.n) if args.rhs else skio.default_rhs(A.n)

        oracle = DenseOracle(A) if args.check else None  # refuses n above its cap at once
        reference = None
        methods = list(METHODS) if args.method == "all" else [args.method]
        reports = []
        for method in methods:
            solutions, report = solve_all(
                A,
                b,
                shifts,
                method=method,
                tol=args.tol,
                max_iter=args.max_iter,
                record_history=args.history,
                true_residuals=args.check,
                counter=FlopCounter(),
            )
            if oracle is not None and reference is None:  # the first solve checked the options
                reference = np.array([oracle.solve(sigma, b) for sigma in shifts])  # one LU each
            reports.append(report)
            print(_summary_line(report))

            oracle_distance = None
            if reference is not None:
                oracle_distance = np.array([np.linalg.norm(x - xs) / np.linalg.norm(xs)
                                            for x, xs in zip(solutions, reference)])
            del solutions  # the next method's solve needs no second m x N array
            if args.out_prefix:
                skio.write_summary(report, f"{args.out_prefix}.{method}.summary.txt",
                                   oracle_distance)
                if args.history:
                    skio.write_history_csv(report, f"{args.out_prefix}.{method}.history.csv")

        if args.method == "all" and args.out_prefix:
            _write_compare(f"{args.out_prefix}.compare.txt", reports)
    except (OSError, ValueError, BreakdownError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        if isinstance(exc, skio.ParseError):
            return EXIT_PARSE
        return EXIT_BREAKDOWN if isinstance(exc, BreakdownError) else EXIT_USAGE
    if any(r.any_breakdown for r in reports):
        return EXIT_BREAKDOWN
    if not all(r.all_converged for r in reports):
        return EXIT_UNCONVERGED
    return EXIT_OK
