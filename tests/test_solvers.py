import re
import threading
import tracemalloc

import numpy as np
import pytest

from shiftkrylov import (
    BreakdownError,
    DenseOracle,
    FlopCounter,
    METHODS,
    SparseSymMatrix,
    generate_hamiltonian_analog,
    solve_all,
    true_residual,
)
from shiftkrylov import lanczos, solvers
from shiftkrylov.lanczos import LanczosStep, lanczos_init, lanczos_step
from shiftkrylov.solvers import (
    ShiftBatch,
    cocg_galerkin_update,
    estimate_residual_qmr,
    qmr_sym_b_update,
    qmr_sym_omega_update,
    qmr_sym_update,
)

from _reference import (
    brute_force_wqmr,
    rand_complex_symmetric,
    rand_real_symmetric,
    reference_cg,
    run_diagnostic,
)
from test_acceptance import attainable_gap
from test_core import tight_binding_lattice

EPS = np.finfo(np.float64).eps
UPDATES = {"qmr-sym": qmr_sym_update, "qmr-sym-b": qmr_sym_b_update,
           "qmr-sym-omega": qmr_sym_omega_update, "cocg": cocg_galerkin_update}


def sparse_from(M):
    return SparseSymMatrix.from_dense(M)


def e1(n, dtype=float):
    b = np.zeros(n, dtype=dtype)
    b[0] = 1.0
    return b


# Tridiagonal matrix crafted so the elimination pivot at step 2 is an exact
# float zero (the leading 2x2 shifted block is singular to the last bit)
# while the rotated pivot of the quasi-minimal-residual path stays nonzero.
PIVOT_A1, PIVOT_B1 = 0.7, 1.5
PIVOT_A2 = (PIVOT_B1 / PIVOT_A1) * PIVOT_B1


def steps_of(rec):
    """The Lanczos steps of a diagnostic run, as :func:`solve_all` sees them."""
    for k in range(rec.steps):
        yield LanczosStep(
            n=k + 1,
            alpha=rec.alphas[k],
            beta_prev=0.0 if k == 0 else rec.betas[k - 1],
            beta=rec.betas[k],
            v=np.ascontiguousarray(rec.vectors[:, k]),
            v_next=np.ascontiguousarray(rec.vectors[:, k + 1]),
            v_next_norm=rec.next_norms[k],
            lucky=False,
        )


def one_step(alpha, beta, v, v_next):
    return LanczosStep(n=1, alpha=alpha, beta_prev=0.0, beta=beta, v=v, v_next=v_next,
                       v_next_norm=float(np.linalg.norm(v_next)), lucky=False)


def pivot_zero_matrix():
    M = np.array(
        [
            [PIVOT_A1, PIVOT_B1, 0.0],
            [PIVOT_B1, PIVOT_A2, 0.5],
            [0.0, 0.5, 3.0],
        ]
    )
    return sparse_from(M), M


def pivot_zero_banded(n, real):
    """Banded ``n x n`` matrix whose first two rows are those of
    :func:`pivot_zero_matrix`: from ``e_1`` the Lanczos basis starts
    ``e_1, e_2`` with the same coefficients, so ``sigma = 0`` meets the same
    exactly zero elimination pivot at step 2, while the band keeps the
    Krylov space growing for every other shift."""
    M = generate_hamiltonian_analog(n, 4, seed=41, real=real).to_dense()
    M[0, :] = 0.0
    M[:, 0] = 0.0
    M[0, 0], M[0, 1], M[1, 0], M[1, 1] = PIVOT_A1, PIVOT_B1, PIVOT_B1, PIVOT_A2
    return sparse_from(M), e1(n)


@pytest.fixture
def verified_rows(monkeypatch):
    """The number of rows of each :func:`true_residual` call ``solve_all`` makes."""
    rows = []
    residual = solvers.true_residual

    def counting(A, sigma, b, x, counter=None):
        rows.append(len(np.atleast_2d(x)))
        return residual(A, sigma, b, x, counter=counter)

    monkeypatch.setattr(solvers, "true_residual", counting)
    return rows


class TestRotationUpdate:
    def test_three_four_five_rotation(self):
        # fresh state, first step: column scalars (t_nn, t_n+1,n) = (3, 4)
        v = np.array([1.0, 0.0])
        st = ShiftBatch("qmr-sym", [0.0], 1.0, v, max_iter=1)
        qmr_sym_update(st, one_step(3.0, 4.0, v, np.array([0.0, 1.0])))
        c, s = st.c1[0], st.s1[0]
        assert abs(c - 0.6) <= 1e-15
        assert abs(s - 0.8) <= 1e-15  # real data: s == sbar
        assert abs(st.diag1[0] - 5.0) <= 1e-15
        assert abs(st.g[0] - (-0.8)) <= 1e-15  # g_{n+1} = -sbar * g_n
        # x_1 = (c*g / t) p_1 with p_1 = v_1, assembled at the end of the one-step window
        assert np.allclose(st.X[0], (0.6 / 5.0) * v.astype(complex), rtol=1e-15)

    def test_scalar_system_solved_in_one_step(self):
        A = sparse_from(np.array([[2.0]]))
        x, rep = solve_all(A, np.array([3.0]), [1.0], method="qmr-sym", tol=1e-12)
        assert rep.lucky and rep.iters[0] == 1
        assert abs(x[0, 0] - 1.0) <= 1e-14
        assert rep.final_rel_estimate[0] <= 1e-14

    def test_matches_oracle_on_real_symmetric(self):
        rng = np.random.default_rng(16)
        M = rand_real_symmetric(16, rng)
        A = sparse_from(M)
        shifts = [0.3 + 0.001j, 0.5 + 0.001j]
        x, rep = solve_all(A, e1(16), shifts, method="qmr-sym", tol=1e-14, max_iter=16)
        oracle = DenseOracle(M)
        for k, sigma in enumerate(shifts):
            xs = oracle.solve(sigma, e1(16))
            assert np.linalg.norm(x[k] - xs) <= 1e-8 * np.linalg.norm(xs)

    def test_rotation_pairs_stay_unitary(self):
        rng = np.random.default_rng(36)
        M = rand_complex_symmetric(18, rng)
        A = sparse_from(M)
        b = rng.standard_normal(18) + 1j * rng.standard_normal(18)
        rec = run_diagnostic(A, b, 18)
        st = ShiftBatch("qmr-sym", [0.3 + 0.2j, 0.8 + 0.1j], rec.g1, rec.vectors[:, 0], 18)
        pairs = []
        for step in steps_of(rec):
            qmr_sym_update(st, step)
            pairs += zip(st.c1[: st.na], st.s1[: st.na])
        assert pairs
        for c, s in pairs:
            assert isinstance(c, float) and c >= 0.0
            assert abs(c * c + abs(s) ** 2 - 1.0) <= 1e-14

    def test_zero_rotation_pivot_breaks_down(self):
        # sigma = -alpha_1 makes t_{1,1} exactly zero at step 1
        A = sparse_from(np.diag([2.0, 3.0]))
        v = np.array([1.0, 0.0])
        st = ShiftBatch("qmr-sym", [-2.0], 1.0, v, max_iter=1)
        qmr_sym_update(st, one_step(2.0, 1.0, v, np.array([0.0, 1.0])))
        assert st.status == ["breakdown"] and st.na == 0 and st.niter[0] == 0
        assert st.failure[0].startswith("rotation breakdown at step 1")


class TestEliminationUpdate:
    def test_elimination_scalars(self):
        v = np.array([1.0, 0.0])
        st = ShiftBatch("qmr-sym-b", [0.0], 1.0, v, max_iter=1)
        qmr_sym_b_update(st, one_step(2.0, 1.0, v, np.array([0.0, 1.0])))
        assert st.f[0] == -0.5
        assert st.g[0] == -0.5  # g~_{n+1} = f_n g~_n

    def test_scalar_system_identical_to_rotation_method(self):
        A = sparse_from(np.array([[2.0]]))
        xb, repb = solve_all(A, np.array([3.0]), [1.0], method="qmr-sym-b", tol=1e-12)
        xq, repq = solve_all(A, np.array([3.0]), [1.0], method="qmr-sym", tol=1e-12)
        assert abs(xb[0, 0] - 1.0) <= 1e-14
        assert xb[0, 0] == xq[0, 0]

    def test_matches_oracle_and_galerkin_residuals(self):
        rng = np.random.default_rng(17)
        M = rand_real_symmetric(16, rng)
        A = sparse_from(M)
        shifts = [0.3 + 0.001j, 0.5 + 0.001j]
        b = e1(16)

        step_true = {m: [] for m in ("qmr-sym-b", "cocg")}
        for method in step_true:
            def cb(n, state, acc=step_true[method]):
                acc.append(true_residual(A, state.sigma, b, state.iterates()))

            x, rep = solve_all(A, b, shifts, method=method, tol=1e-14, max_iter=16, callback=cb)
            oracle = DenseOracle(M)
            for k, sigma in enumerate(shifts):
                xs = oracle.solve(sigma, b)
                assert np.linalg.norm(x[k] - xs) <= 1e-8 * np.linalg.norm(xs)
        for rb, rc in zip(step_true["qmr-sym-b"], step_true["cocg"]):
            for tb, tc in zip(rb, rc):
                assert abs(tb - tc) <= 1e-10 * max(tb, tc, 1e-300)

    def test_residual_vector_is_rescaled_next_basis_vector(self):
        # the implicit eliminator is unit lower triangular, so the residual
        # vector is exactly g~_{n+1} v_{n+1}
        rng = np.random.default_rng(37)
        M = rand_complex_symmetric(14, rng)
        A = sparse_from(M)
        b = rng.standard_normal(14) + 1j * rng.standard_normal(14)
        bnorm = np.linalg.norm(b)
        sigma = 0.2 + 0.3j
        rec = run_diagnostic(A, b, 10)
        st = ShiftBatch("qmr-sym-b", [sigma], rec.g1, rec.vectors[:, 0], 10)
        for k, step in enumerate(steps_of(rec)):
            qmr_sym_b_update(st, step)
            x = st.iterates([0])[0]
            r_vec = b - M @ x - sigma * x
            predicted = st.g[0] * rec.vectors[:, k + 1]
            assert np.max(np.abs(r_vec - predicted)) <= 1e-10 * bnorm

    def test_exact_zero_pivot_breaks_down_where_rotations_survive(self):
        A, M = pivot_zero_matrix()
        b = e1(3)
        xb, repb = solve_all(A, b, [0.0], method="qmr-sym-b", tol=1e-12)
        assert repb.status == ["breakdown"]
        assert "pivot" in repb.failure[0]
        assert repb.iters[0] == 1  # frozen at the last completed step

        xq, repq = solve_all(A, b, [0.0], method="qmr-sym", tol=1e-12)
        assert repq.status == ["converged"]
        xs = np.linalg.solve(M, b)
        assert np.linalg.norm(xq[0] - xs) <= 1e-10 * np.linalg.norm(xs)


class TestGalerkinBaseline:
    def test_reduces_to_classical_cg_on_spd(self):
        rng = np.random.default_rng(18)
        M = rand_real_symmetric(14, rng, diag_boost=2.0)  # SPD by dominance
        A = sparse_from(M)
        b = rng.standard_normal(14)
        snapshots = []

        def cb(n, state):
            snapshots.append(state.iterates([0])[0])

        solve_all(A, b, [0.0], method="cocg", tol=1e-14, max_iter=14, callback=cb)
        cg_iters = reference_cg(M, b, len(snapshots))
        for xk, xref in zip(snapshots, cg_iters):
            assert np.linalg.norm(xk - xref) <= 1e-10 * max(np.linalg.norm(xref), 1.0)

    def test_residual_vectors_equal_bidiagonal_method(self):
        rng = np.random.default_rng(19)
        M = rand_complex_symmetric(12, rng)
        A = sparse_from(M)
        b = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        shifts = [0.1 + 0.2j, 0.4 + 0.1j, 0.9 + 0.05j, 1.5 + 0.3j]
        snaps = {"qmr-sym-b": [], "cocg": []}
        for method, acc in snaps.items():
            def cb(n, state, acc=acc):
                acc.append(state.iterates())

            solve_all(A, b, shifts, method=method, tol=1e-14, max_iter=12, callback=cb)
        for xb_all, xc_all in zip(*snaps.values()):
            for sigma, xb, xc in zip(shifts, xb_all, xc_all):
                rb = b - M @ xb - sigma * xb
                rc = b - M @ xc - sigma * xc
                assert np.max(np.abs(rb - rc)) <= 1e-10 * np.linalg.norm(b)

    def test_scalar_system_exact(self):
        A = sparse_from(np.array([[2.0]]))
        x, rep = solve_all(A, np.array([3.0]), [1.0], method="cocg", tol=1e-12)
        assert rep.iters[0] == 1 and abs(x[0, 0] - 1.0) <= 1e-14

    def test_galerkin_breakdown_matches_singular_projection(self):
        A, M = pivot_zero_matrix()
        x, rep = solve_all(A, e1(3), [0.0], method="cocg", tol=1e-12)
        assert rep.status == ["breakdown"]


class TestBlockResidual:
    # N = 600 puts 27 shifts in one residual block; 41 shifts need two
    FAMILY = [0.0] + [0.5 + 0.05 * ell + 0.02j for ell in range(40)]

    @pytest.mark.parametrize("real", [True, False])
    def test_cocg_callback_residual_is_within_ulps_of_the_explicit(self, real):
        A, b = pivot_zero_banded(600, real)
        assert A.is_real == real
        frozen = []

        def cb(n, state):
            # the recurrence value, or the explicit residual where the shift
            # was checked: here within a few ulps of ||b|| = 1 of the
            # explicit residual of the current iterate
            explicit = true_residual(A, state.sigma, b, state.iterates())
            assert np.all(np.abs(state.res - explicit) <= 4 * EPS)
            frozen.append(state.res[0])

        x, rep = solve_all(A, b, self.FAMILY, method="cocg", tol=1e-12, callback=cb)
        assert rep.iterations > 10
        assert rep.status[0] == "breakdown" and rep.iters[0] == 1
        assert all(s == "converged" for s in rep.status[1:])
        # the broken shift keeps its step-1 residual and iterate
        assert frozen == [frozen[0]] * len(frozen)
        assert rep.final_rel_estimate[0] == frozen[0] == true_residual(A, 0.0, b, x[0])

    def test_cocg_charges_one_complex_matvec_per_residual(self, verified_rows):
        A, b = pivot_zero_banded(600, real=True)
        # only the rows whose recurrence value met the target are checked
        counter = FlopCounter()
        x, win = solve_all(A, b, self.FAMILY, method="cocg", tol=1e-12, counter=counter)
        assert counter.matvec_real == 2 * A.nnz * win.iterations  # the Lanczos stream
        verified = sum(verified_rows)
        assert win.m <= verified < int(win.iters.sum())
        assert counter.matvec_complex == 2 * A.nnz * verified
        # a verification after the solve charges its own counter, one matvec per shift
        after = FlopCounter()
        true_residual(A, win.shifts, b, x, after)
        assert after.matvec_complex == 2 * A.nnz * win.m and after.matvec_real == 0
        # a recorded history charges exactly the same
        counter_h = FlopCounter()
        _, rep = solve_all(A, b, self.FAMILY, method="cocg", tol=1e-12, counter=counter_h,
                           record_history=True)
        assert list(rep.iters) == list(win.iters) and rep.status == win.status
        assert counter_h == counter

    @pytest.mark.parametrize("real_matrix", [True, False])
    @pytest.mark.parametrize("real_block", [True, False])
    def test_block_equals_row_by_row_calls(self, monkeypatch, real_matrix, real_block):
        rng = np.random.default_rng(38)
        n, k = 30, 5
        M = rand_real_symmetric(n, rng) if real_matrix else rand_complex_symmetric(n, rng)
        A = sparse_from(M)
        b = rng.standard_normal(n)
        X = rng.standard_normal((k, n))
        if not real_block:
            X = X + 1j * rng.standard_normal((k, n))
        sigmas = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        counter = FlopCounter()
        block = true_residual(A, sigmas, b, X, counter=counter)
        rows = [true_residual(A, s, b, x) for s, x in zip(sigmas, X)]
        assert all(isinstance(r, float) for r in rows)
        assert block.shape == (k,) and np.array_equal(block, rows)
        ref = [np.linalg.norm(b - M @ x - s * x) for s, x in zip(sigmas, X)]
        assert np.allclose(block, ref, rtol=1e-13)
        assert counter.matvec == 2 * A.nnz * k
        assert (counter.matvec_real > 0) == (real_matrix and real_block)
        with pytest.raises(ValueError):
            true_residual(A, sigmas[:-1], b, X)
        with pytest.raises(ValueError):
            true_residual(A, sigmas, b, X[:, :-1])
        # the same rows in blocks of 2, 2 and 1, one sparse product each
        monkeypatch.setattr(solvers, "_BLOCK_ELEMS", 2 * n)
        counter = FlopCounter()
        assert np.array_equal(true_residual(A, sigmas, b, X, counter=counter), rows)
        assert counter.matvec == 2 * A.nnz * k

    def test_many_rows_run_in_bounded_blocks(self):
        # 1001 complex rows at N = 512: 8 MiB of iterates, checked 32 rows at a time
        A = generate_hamiltonian_analog(512, 34, seed=42)
        rng = np.random.default_rng(39)
        X = rng.standard_normal((1001, 512)) + 1j * rng.standard_normal((1001, 512))
        sigmas = 0.4 + 0.001 * np.arange(1001) + 0.001j
        b = e1(512)
        tracemalloc.start()
        try:
            norms = true_residual(A, sigmas, b, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, f"{peak / 2**20:.2f} MiB"
        assert np.array_equal(norms[[0, 500, 1000]],
                              [true_residual(A, sigmas[ell], b, X[ell]) for ell in (0, 500, 1000)])


class TestVerifiedDeflation:
    """``cocg`` without a callback: the ``qmr-sym-b`` recurrence on the
    windowed engine, with explicit residuals only for the shifts whose
    recurrence value meets the target."""

    FAMILY = TestBlockResidual.FAMILY

    @pytest.mark.parametrize("real", [True, False])
    def test_reported_residual_is_that_of_the_returned_iterate(self, real):
        A, b = pivot_zero_banded(600, real)
        b = 3.0 * b  # ||b|| = 3
        x, rep = solve_all(A, b, self.FAMILY, method="cocg", tol=1e-12)
        assert rep.status[0] == "breakdown" and rep.status.count("converged") == 40
        for ell, sigma in enumerate(self.FAMILY):
            assert rep.final_rel_estimate[ell] == true_residual(A, sigma, b, x[ell]) / rep.bnorm

    @pytest.mark.parametrize("real", [True, False])
    def test_iterate_equals_bidiagonal_method(self, real):
        A = generate_hamiltonian_analog(300, 8, seed=12, real=real)
        b = e1(300)
        shifts = 0.3 + 0.02 * np.arange(60) + 0.003j
        xc, cocg = solve_all(A, b, shifts, method="cocg", tol=1e-12)
        xb, qmrb = solve_all(A, b, shifts, method="qmr-sym-b", tol=1e-12)
        same = np.flatnonzero(cocg.iters == qmrb.iters)
        assert len(same) > 50 and len(set(cocg.iters[same])) > 1
        for ell in same:
            assert np.array_equal(xc[ell], xb[ell])

    @pytest.mark.parametrize("real", [True, False])
    def test_shift_alone_equals_shift_in_family(self, real):
        A = generate_hamiltonian_analog(512, 8, seed=5, real=real)
        b = e1(512)
        family = 0.3 + 0.004 * np.arange(130) + 0.002j
        kw = dict(method="cocg", tol=1e-12, record_history=True)
        x, fam = solve_all(A, b, family, **kw)
        xs, solo = solve_all(A, b, family[77:78], **kw)
        # N = 512 puts 32 shifts in one residual block: shift 77 is checked
        # together with neighbours that deflate at other steps
        assert len(set(fam.iters)) > 1 and np.sum(fam.iters == fam.iters[77]) > 1
        assert fam.iters[77] == solo.iters[0]
        assert np.array_equal(x[77], xs[0])
        assert fam.history[77] == solo.history[0]
        assert fam.final_rel_estimate[77] == solo.final_rel_estimate[0]

    @pytest.mark.parametrize("real", [True, False])
    def test_both_residuals_must_meet_the_target(self, real):
        A = generate_hamiltonian_analog(120, 6, seed=9, real=real)
        b, shifts = e1(120), [0.7 + 0.05j]  # ||b|| = 1
        _, rec = solve_all(A, b, shifts, method="qmr-sym-b", tol=1e-300, max_iter=40,
                           record_history=True)
        rec = [value for _, value in rec.history[0]]
        exp = []  # the explicit residual of each step's iterate

        def explicit(n, state):
            exp.append(true_residual(A, state.sigma[0], b, state.iterates([0])[0]))

        solve_all(A, b, shifts, method="cocg", tol=1e-300, max_iter=40, callback=explicit)
        # a step whose explicit residual is the first to meet a target its
        # recurrence value misses
        n = next(k for k in range(2, 40) if exp[k] < rec[k] and min(exp[:k]) > rec[k])
        for history in (True, False):
            _, rep = solve_all(A, b, shifts, method="cocg", tol=exp[n], record_history=history)
            assert rep.status == ["converged"] and rep.iters[0] == n + 2

    @pytest.mark.parametrize("real", [True, False])
    def test_history_is_the_recurrence_except_where_checked(self, monkeypatch, real):
        A = generate_hamiltonian_analog(300, 8, seed=12, real=real)
        b = e1(300)  # ||b|| = 1: relative values are the norms themselves
        shifts = 0.3 + 0.02 * np.arange(60) + 0.003j
        tol = 1e-12
        checked = {complex(sigma): set() for sigma in shifts}  # explicit residuals taken
        residual = solvers.true_residual

        def recording(A, sigma, b, x, counter=None):
            norms = residual(A, sigma, b, x, counter=counter)
            for s, value in zip(np.atleast_1d(sigma), np.atleast_1d(norms)):
                checked[complex(s)].add(float(value))
            return norms

        monkeypatch.setattr(solvers, "true_residual", recording)
        _, cocg = solve_all(A, b, shifts, method="cocg", tol=tol, record_history=True)
        # the recurrence values of every step, from a run that never deflates
        _, rec = solve_all(A, b, shifts, method="qmr-sym-b", tol=1e-300,
                           max_iter=int(cocg.iters.max()), record_history=True)
        assert cocg.all_converged
        replaced = 0
        for ell, sigma in enumerate(shifts):
            recurrence = dict(rec.history[ell])
            assert len(cocg.history[ell]) == cocg.iters[ell]
            for n, value in cocg.history[ell]:
                if recurrence[n] > tol:  # not a candidate: not checked
                    assert value == recurrence[n]
                else:
                    assert value in checked[complex(sigma)]
                    replaced += value != recurrence[n]
            assert cocg.history[ell][-1][1] == cocg.final_rel_estimate[ell] <= tol
        assert replaced > 0

    @pytest.mark.parametrize("real", [True, False])
    def test_tolerance_below_the_floor_is_checked_at_every_step(self, verified_rows, real):
        A = generate_hamiltonian_analog(120, 6, seed=9, real=real)
        b = e1(120)
        shifts, tol = [0.7 + 0.05j], 1e-17
        # the recurrence values, from a run that never deflates
        _, ref = solve_all(A, b, shifts, method="qmr-sym-b", tol=1e-300, max_iter=120,
                           record_history=True)
        crossed = [n for n, value in ref.history[0] if value <= tol]
        max_iter = crossed[0] + 5
        below = sum(n <= max_iter for n in crossed)
        assert below >= 5
        x, rep = solve_all(A, b, shifts, method="cocg", tol=tol, max_iter=max_iter)
        assert rep.status == ["unconverged"] and rep.iters[0] == max_iter
        # every step below the target, then once more for the returned iterate
        assert verified_rows == [1] * (below + 1)
        assert tol < rep.final_rel_estimate[0] == true_residual(A, shifts[0], b, x[0])
        # the failed checks left the iterate as the recurrences make it
        xb, _ = solve_all(A, b, shifts, method="qmr-sym-b", tol=1e-300, max_iter=max_iter)
        assert np.array_equal(x[0], xb[0])


def random_problem(seed):
    """One draw of the random differential generator of ROADMAP item 14: a
    dense symmetric ``A``, real or complex, with N from 2 to 60, a real ``b``
    and 1 to 7 shifts with imaginary parts in {0, 1e-8, 1e-3, 0.1, 1}."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 61))
    complex_a = bool(rng.integers(2))
    M = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if complex_a else 0)
    b = rng.standard_normal(n)
    k = int(rng.integers(1, 8))
    shifts = rng.uniform(-3, 3, k) + 1j * rng.choice([0, 1e-8, 1e-3, 0.1, 1], k)
    return sparse_from(M + M.T), b, shifts


# seed 2372, a complex A of N = 14 and one shift: each QMR method reports it
# converged at step 28 by its recurrence estimate, with a true relative
# residual 1.55 (qmr-sym-omega) to 2.19 (qmr-sym-b) times tol; cocg, which
# verifies, reports it unconverged
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
@pytest.mark.parametrize("method", ["qmr-sym", "qmr-sym-b", "qmr-sym-omega"])
def test_converged_means_the_true_residual_meets_tol(method):
    A, b, shifts = random_problem(2372)
    x, rep = solve_all(A, b, shifts, method=method, tol=1e-12)
    converged = [ell for ell, s in enumerate(rep.status) if s == "converged"]
    assert converged  # the claim below is not vacuous
    rel_true = true_residual(A, shifts[converged], b, x[converged]) / rep.bnorm
    assert np.all(rel_true <= rep.tol)


class TestResidualEstimates:
    def test_real_path_returns_quasi_residual_scalar_exactly(self):
        rng = np.random.default_rng(20)
        M = rand_real_symmetric(20, rng)
        A = sparse_from(M)
        b = rng.standard_normal(20)
        checks = []

        def cb(n, state):
            checks.extend((res, abs(complex(g))) for res, g in zip(state.res, state.g))

        solve_all(A, b, [0.2 + 0.4j, 0.8 + 0.1j], method="qmr-sym", tol=1e-13, callback=cb)
        assert checks
        for est, g in checks:
            assert est == g  # norm factor is exactly one on the real path

    def test_real_path_bidiagonal_estimate(self):
        rng = np.random.default_rng(21)
        A = sparse_from(rand_real_symmetric(20, rng))
        b = rng.standard_normal(20)
        checks = []

        def cb(n, state):
            checks.extend((res, abs(complex(g))) for res, g in zip(state.res, state.g))

        solve_all(A, b, [0.3 + 0.2j], method="qmr-sym-b", tol=1e-13, callback=cb)
        for est, g in checks:
            assert est == g

    @pytest.mark.parametrize("method", ["qmr-sym", "qmr-sym-omega"])
    def test_estimate_vectors_kept_on_complex_basis_only(self, method):
        v1 = np.ones(4) / 2.0
        assert ShiftBatch(method, [0.5j, 1.0], 1.0, v1, 4).W is None
        W = ShiftBatch(method, [0.5j, 1.0], 1.0, v1.astype(complex), 4).W
        assert W is not None and W.shape == (2, 4)

    @pytest.mark.parametrize("method", ["qmr-sym", "qmr-sym-omega"])
    def test_real_path_estimate_fidelity_past_n_steps(self, method):
        # criterion 2's rule on a real 3-D lattice, run past N steps so the
        # real path is checked where Lanczos orthogonality is lost
        L, tol = 6, 1e-10
        n = L**3
        idx = np.arange(n).reshape(L, L, L)
        M = np.diag(np.random.default_rng(6).uniform(-0.5, 0.5, n))
        for axis in range(3):
            lo = np.take(idx, np.arange(L - 1), axis=axis).ravel()
            hi = np.take(idx, np.arange(1, L), axis=axis).ravel()
            M[lo, hi] = M[hi, lo] = -1.0
        A = sparse_from(M)
        b = np.zeros(n)
        b[idx[L // 2, L // 2, L // 2]] = 1.0
        bnorm = 1.0
        shifts = np.linspace(-6.0, 6.0, 9) + 0.05j
        eigs = np.linalg.eigvalsh(M)
        shifted_norms = [np.abs(eigs + s).max() for s in shifts]
        nnz_row = int(np.diff(A.indptr).max())
        rows = []
        xmax = np.zeros(len(shifts))

        def cb(k, state):
            live = np.flatnonzero(state.niter == k)  # every shift updated at this iteration
            for i, x in zip(live, state.iterates(live)):
                xmax[i] = max(xmax[i], np.linalg.norm(x))
                rows.append((k, i, state.res[i], true_residual(A, state.sigma[i], b, x), xmax[i]))

        _, rep = solve_all(A, b, shifts, method=method, tol=tol, max_iter=2 * n, callback=cb)
        assert rep.all_converged and rep.iterations > n
        examined = 0
        for k, i, est, tr, xm in rows:
            if tr < 1e-10 * bnorm:
                continue
            examined += 1
            term = attainable_gap(k, nnz_row, bnorm, shifted_norms[i], xm)
            # the term grows with k: about 6e-3 * tol * ||b|| after 380 steps,
            # still far below the deflation threshold it must not mask
            assert term <= 1e-2 * tol * bnorm
            assert abs(est - tr) <= 1e-6 * tr + term, (k, shifts[i], est, tr)
        assert examined > 1000

    @pytest.mark.parametrize("method", ["qmr-sym", "qmr-sym-b", "qmr-sym-omega"])
    def test_estimate_tracks_explicit_residual(self, method):
        rng = np.random.default_rng(22)
        M = rand_complex_symmetric(12, rng)
        A = sparse_from(M)
        b = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        bnorm = np.linalg.norm(b)
        sigma = 0.25 + 0.15j
        rows = []

        def cb(n, state):
            rows.append((state.res[0], true_residual(A, sigma, b, state.iterates([0])[0])))

        solve_all(A, b, [sigma], method=method, tol=1e-14, max_iter=12, callback=cb)
        assert len(rows) >= 10
        for est, tr in rows:
            if tr >= 1e-6 * bnorm:  # above the float drift floor
                assert abs(est - tr) <= 1e-8 * tr

    def test_public_estimators_match_solver_values(self):
        rng = np.random.default_rng(23)
        M = rand_complex_symmetric(10, rng)
        A = sparse_from(M)
        b = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        rec = run_diagnostic(A, b, 3)
        v1 = rec.vectors[:, 0]
        stq = ShiftBatch("qmr-sym", [0.5j], rec.g1, v1, 3)
        stb = ShiftBatch("qmr-sym-b", [0.5j], rec.g1, v1, 3)
        for step in steps_of(rec):
            qmr_sym_update(stq, step)
            qmr_sym_b_update(stb, step)
            tq = true_residual(A, 0.5j, b, stq.iterates([0])[0])
            tb = true_residual(A, 0.5j, b, stb.iterates([0])[0])
            assert abs(estimate_residual_qmr(stq, step)[0] - tq) <= 1e-10 * tq
            est_b = estimate_residual_qmr(stb, step)
            assert abs(est_b[0] - tb) <= 1e-10 * tb
            # no w is kept: the rule reads the norm the Lanczos step published
            assert stb.W is None and est_b[0] == solvers._abs(stb.g[:1])[0] * step.v_next_norm

    def test_true_residual_trivia(self):
        A = sparse_from(np.array([[2.0]]))
        assert true_residual(A, 1.0, np.array([3.0]), np.array([1.0])) == 0.0
        b = np.array([3.0, 4.0])
        A2 = sparse_from(np.eye(2))
        assert true_residual(A2, 0.0, b, np.zeros(2)) == 5.0
        with pytest.raises(ValueError):
            true_residual(A2, 0.0, b, np.zeros(3))


class TestResidualVectorNorms:
    """The rotation methods' estimate ``|g| ||w||`` on a complex basis reads
    the norm the update took of each row of ``W``, which holds ``w`` as
    ``phi u``: ``u`` in the row, its scale ``phi`` in ``batch.phi``."""

    @staticmethod
    def run(method):
        """Six steps, a retirement that reorders the rows, four more steps;
        at each step every active row's ``phi u`` and estimate are checked
        against a reference ``w`` per shift, advanced by the direct recurrence
        ``w <- -s w + (c scale) v_{n+1}``. Returns the active ``phi`` of each step."""
        rng = np.random.default_rng(43)
        A = sparse_from(rand_complex_symmetric(30, rng))
        b = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        update = UPDATES[method]
        shifts = [0.2 + 0.1j, 0.5 + 0.3j, 1.0 + 0.05j, 1.5 + 0.2j, 2.0 + 0.4j]
        state = lanczos_init(A, b)
        batch = ShiftBatch(method, shifts, state.g1, state.v_curr, 50)
        omega1 = np.linalg.norm(state.v_curr) if method == "qmr-sym-omega" else 1.0
        ref = np.tile(state.v_curr / omega1, (len(shifts), 1))
        phis = []

        def step_and_check():
            step = lanczos_step(state, A)
            update(batch, step)
            scale = 1.0 if method == "qmr-sym" else 1.0 / step.v_next_norm
            na, perm = batch.na, batch.perm[: batch.na]
            for r, ell in enumerate(perm):  # this step's c and s are c1, s1
                ref[ell] = -batch.s1[r] * ref[ell] + (batch.c1[r] * scale) * step.v_next
            w, want = batch.phi[:na, None] * batch.W[:na], ref[perm]
            wn = np.linalg.norm(want, axis=1)
            assert np.all(np.linalg.norm(w - want, axis=1) <= 8 * EPS * wn)
            est = estimate_residual_qmr(batch, step)
            np.testing.assert_allclose(est, np.abs(batch.g[:na]) * wn, rtol=8 * EPS, atol=0)
            phis.append(batch.phi[:na].copy())
            return step, est

        for _ in range(6):
            step, est = step_and_check()
        phi = batch.phi.copy()
        # rows 0 and 2 retire: rows 3 and 4 move into them, with their phi
        batch.retire(np.array([True, False, True, False, False]))
        assert batch.na == 3 and list(batch.perm[:3]) == [3, 1, 4]
        assert np.array_equal(batch.phi[:3], phi[[3, 1, 4]])
        assert np.array_equal(estimate_residual_qmr(batch, step), est[[3, 1, 4]])
        for _ in range(4):
            step_and_check()
        return phis

    @pytest.mark.parametrize("method", ["qmr-sym", "qmr-sym-omega"])
    def test_cached_norms_follow_updates_and_retirement(self, method):
        phis = self.run(method)
        assert all(np.all(phi != 1) for phi in phis)  # |phi| stays above the fold

    @pytest.mark.parametrize("method", ["qmr-sym", "qmr-sym-omega"])
    def test_a_folded_scale_keeps_w(self, monkeypatch, method):
        # a row whose |phi| falls below the bound takes phi into u; at 0.5
        # some rows fold at a step while others keep their scale
        monkeypatch.setattr(solvers, "_FOLD", 0.5)
        folded = np.concatenate(self.run(method)) == 1
        assert folded.any() and not folded.all()

    @pytest.mark.parametrize("method", METHODS)
    def test_real_basis_estimate_is_exactly_abs_g(self, method):
        rng = np.random.default_rng(44)
        A = sparse_from(rand_real_symmetric(20, rng))
        update = UPDATES[method]
        state = lanczos_init(A, rng.standard_normal(20))
        batch = ShiftBatch(method, [0.3 + 0.1j, 0.8 + 0.2j], state.g1, state.v_curr, 50)
        assert batch.W is None
        for _ in range(5):
            step = lanczos_step(state, A)
            update(batch, step)
            est = estimate_residual_qmr(batch, step)
            assert est.tolist() == [abs(complex(g)) for g in batch.g[: batch.na]]


class TestOmegaVariant:
    def test_shared_scaled_basis_vector_is_bit_identical(self):
        # the update folds 1 / omega_{n+1} into each shift's coefficient of
        # v_{n+1}; driving it directly over the same steps gives solve_all's
        # iterate and estimate bit for bit
        rng = np.random.default_rng(39)
        A = sparse_from(rand_complex_symmetric(12, rng))
        b = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        sigma = 0.3 + 0.2j
        rec = run_diagnostic(A, b, 8)
        st = ShiftBatch("qmr-sym-omega", [sigma], rec.g1, rec.vectors[:, 0], 8)
        assert st.window.steps == 8  # assembled inside the eighth update, as in solve_all
        for step in steps_of(rec):
            qmr_sym_omega_update(st, step)
        x, rep = solve_all(A, b, [sigma], method="qmr-sym-omega", tol=1e-30, max_iter=8)
        assert rep.iters[0] == 8
        assert np.array_equal(x[0], st.X[0])
        assert rep.final_rel_estimate[0] == estimate_residual_qmr(st, step)[0] / rep.bnorm

    def test_real_problem_degenerates_to_identity_weight(self):
        rng = np.random.default_rng(24)
        M = rand_real_symmetric(15, rng)
        A = sparse_from(M)
        b = rng.standard_normal(15)
        shifts = [0.2 + 0.3j, 0.7 + 0.1j]
        xo, repo = solve_all(A, b, shifts, method="qmr-sym-omega", tol=1e-13, max_iter=15)
        xq, repq = solve_all(A, b, shifts, method="qmr-sym", tol=1e-13, max_iter=15)
        # basis 2-norms are all 1 up to roundoff, so the trajectories coincide
        assert np.allclose(xo, xq, rtol=1e-12, atol=1e-14)

    def test_minimizes_weighted_least_squares(self):
        rng = np.random.default_rng(25)
        M = rand_complex_symmetric(8, rng)
        A = sparse_from(M)
        b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        sigma = 0.3 + 0.2j
        rec = run_diagnostic(A, b, 6)
        omegas = np.linalg.norm(rec.vectors, axis=0)
        assert abs(omegas[1] - 1.0) > 1e-6  # weights genuinely differ from 1
        snaps = []

        def cb(n, state):
            snaps.append(state.iterates([0])[0])

        solve_all(A, b, [sigma], method="qmr-sym-omega", tol=1e-16, max_iter=6, callback=cb)
        for n in range(1, 7):
            W = np.diag(omegas[: n + 1])
            y = brute_force_wqmr(rec.alphas[:n], rec.betas[:n], sigma, rec.g1, W=W)
            x_ref = rec.vectors[:, :n] @ y
            assert np.linalg.norm(snaps[n - 1] - x_ref) <= 1e-10 * max(np.linalg.norm(x_ref), 1.0)


class TestDriver:
    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("method", ["qmr-sym", "qmr-sym-b", "qmr-sym-omega"])
    def test_custom_driver_reproduces_solve_all(self, method, real):
        # the pieces the README offers custom drivers: the Lanczos stream, a
        # ShiftBatch, the method's update and estimate, record and finish
        update = UPDATES[method]
        A, b = chain(real=real)
        tol, steps = 1e-10, solvers._WINDOW_ELEMS // A.n * (1 if real else 2)
        x, rep = solve_all(A, b, CHAIN_SHIFTS, method=method, tol=tol)
        state = lanczos_init(A, b)
        bnorm = state.bnorm2
        batch = ShiftBatch(method, CHAIN_SHIFTS, state.g1, state.v_curr, 2 * A.n)
        batch.record(0, np.full(batch.m, bnorm), tol * bnorm, bnorm)
        n = 0
        while batch.na and n < 2 * A.n:
            n += 1
            step = lanczos_step(state, A)
            update(batch, step)
            batch.record(n, estimate_residual_qmr(batch, step), tol * bnorm, bnorm)
        # several full windows, and shifts deflated within one
        assert rep.all_converged and n == rep.iterations > 2 * steps
        assert any(ell % steps for ell in rep.iters)
        iters, res = batch.niter[batch.row], batch.res[batch.row]
        assert np.array_equal(batch.finish(), x)
        assert list(iters) == list(rep.iters) and batch.status == rep.status
        assert np.array_equal(res / bnorm, rep.final_rel_estimate)

    def test_identity_matrix_single_iteration(self):
        A = sparse_from(np.eye(4))
        b = np.array([1.0, 2.0, 3.0, 4.0])
        shifts = [0.5, 2.0, 1.0 + 1.0j]
        for method in ("qmr-sym", "qmr-sym-b", "cocg", "qmr-sym-omega"):
            x, rep = solve_all(A, b, shifts, method=method, tol=1e-12)
            assert rep.lucky
            assert list(rep.iters) == [1, 1, 1]
            assert rep.all_converged
            for k, sigma in enumerate(shifts):
                assert np.linalg.norm(x[k] - b / (1.0 + sigma)) <= 1e-13 * np.linalg.norm(b)

    def test_diagonal_sweep_matches_oracle(self):
        n = 20
        M = np.diag(np.arange(1.0, n + 1))
        A = sparse_from(M)
        b = np.ones(n) / np.sqrt(n)
        shifts = [0.1 * ell + 0.001j for ell in range(1, 11)]
        oracle = DenseOracle(M)
        for method in ("qmr-sym", "qmr-sym-b", "cocg"):
            x, rep = solve_all(A, b, shifts, method=method, tol=1e-12)
            assert rep.all_converged
            assert rep.iterations <= n
            for k, sigma in enumerate(shifts):
                xs = oracle.solve(sigma, b)
                assert np.linalg.norm(x[k] - xs) <= 1e-8 * np.linalg.norm(xs)

    def test_minimal_residual_property_on_real_path(self):
        rng = np.random.default_rng(26)
        M = rand_real_symmetric(24, rng)
        A = sparse_from(M)
        b = rng.standard_normal(24)
        bnorm = np.linalg.norm(b)
        shifts = [0.15 + 0.05j, 0.6 + 0.2j]
        per_method = {}
        for method in ("qmr-sym", "qmr-sym-b", "cocg"):
            trues = []

            def cb(n, state, acc=trues):
                acc.append(true_residual(A, state.sigma, b, state.iterates()))

            solve_all(A, b, shifts, method=method, tol=1e-15, max_iter=24, callback=cb)
            per_method[method] = trues
        for step in range(len(per_method["qmr-sym"])):
            for k in range(len(shifts)):
                rq = per_method["qmr-sym"][step][k]
                for other in ("qmr-sym-b", "cocg"):
                    assert rq <= per_method[other][step][k] + 1e-10 * bnorm

    def test_deflation_freezes_converged_shifts(self):
        rng = np.random.default_rng(27)
        M = rand_real_symmetric(18, rng)
        A = sparse_from(M)
        b = rng.standard_normal(18)
        # sigma=200 converges almost immediately, sigma=0.1+0.01j much later
        slow, fast = 0.1 + 0.01j, 200.0
        x_pair, rep_pair = solve_all(A, b, [slow, fast], method="qmr-sym", tol=1e-12)
        x_solo, rep_solo = solve_all(A, b, [slow], method="qmr-sym", tol=1e-12)
        assert rep_pair.iters[1] < rep_pair.iters[0]
        assert np.array_equal(x_pair[0], x_solo[0])
        assert rep_pair.iters[0] == rep_solo.iters[0]
        assert rep_pair.final_rel_estimate[0] == rep_solo.final_rel_estimate[0]

    def test_history_rows_stop_at_deflation(self):
        rng = np.random.default_rng(28)
        A = sparse_from(rand_real_symmetric(18, rng))
        b = rng.standard_normal(18)
        x, rep = solve_all(
            A, b, [0.1 + 0.01j, 200.0], method="qmr-sym", tol=1e-12, record_history=True
        )
        hist_slow, hist_fast = rep.history
        assert len(hist_fast) == rep.iters[1]
        assert len(hist_slow) == rep.iters[0] > len(hist_fast)
        assert hist_fast[-1][1] <= rep.tol

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("method", METHODS)
    def test_history_is_an_observer(self, method, real):
        # a breakdown (cocg, qmr-sym-b), deflations at several steps and
        # shifts left unconverged by max_iter
        A, b = pivot_zero_banded(600, real)
        (x, rep), (xh, reph) = (solve_all(A, b, TestBlockResidual.FAMILY, method=method,
                                          tol=1e-12, max_iter=12, record_history=history)
                                for history in (False, True))
        assert reph.history is not None and rep.history is None
        assert "unconverged" in rep.status and "converged" in rep.status
        assert np.array_equal(x, xh)
        assert np.array_equal(rep.iters, reph.iters)
        assert rep.status == reph.status and rep.failure == reph.failure
        assert np.array_equal(rep.final_rel_estimate, reph.final_rel_estimate)
        assert rep.flops == reph.flops

    def test_max_iter_exhaustion_reports_unconverged(self):
        rng = np.random.default_rng(29)
        A = sparse_from(rand_real_symmetric(16, rng))
        b = rng.standard_normal(16)
        x, rep = solve_all(A, b, [0.5], method="qmr-sym", tol=1e-30, max_iter=5)
        assert rep.status == ["unconverged"]
        assert rep.iterations == 5 and rep.iters[0] == 5
        assert not rep.all_converged

    def test_partial_breakdown_keeps_other_shifts(self):
        A, M = pivot_zero_matrix()
        b = e1(3)
        x, rep = solve_all(A, b, [0.0, 0.3], method="qmr-sym-b", tol=1e-12)
        assert rep.status == ["breakdown", "converged"]
        xs = np.linalg.solve(M + 0.3 * np.eye(3), b)
        assert np.linalg.norm(x[1] - xs) <= 1e-10 * np.linalg.norm(xs)

    def test_initialization_breakdown_raises(self):
        A = sparse_from(np.eye(2))
        with pytest.raises(BreakdownError, match="bilinear"):
            solve_all(A, np.array([1.0 + 1.0j, 1.0 - 1.0j]), [0.5], method="qmr-sym")

    @pytest.mark.parametrize("method", METHODS)
    def test_lanczos_breakdown_at_the_first_step(self, method):
        # A e_1 = (0, 1, i) has a zero bilinear square
        A = sparse_from(np.array([[0, 1, 1j], [1, 0, 0], [1j, 0, 0]]))
        x, rep = solve_all(A, e1(3), [0.5, 1.0 + 1.0j], method=method)
        assert rep.status == ["breakdown"] * 2 and rep.iterations == 0
        assert list(rep.iters) == [0, 0]
        assert all(f.startswith("bilinear breakdown at step 1") for f in rep.failure)
        assert not x.any()

    @pytest.mark.parametrize("method", METHODS)
    def test_lanczos_breakdown_keeps_converged_and_frozen_shifts(self, method):
        # v_2 = e_2 and A e_2 - e_1 = (0, 0, 1, i) has a zero bilinear square
        M = np.array([[0, 1, 0, 0], [1, 0, 1, 1j], [0, 1, 0, 0], [0, 1j, 0, 0]])
        A, shifts = sparse_from(M), [1e8, 0.5 + 0.1j]
        x, rep = solve_all(A, e1(4), shifts, method=method, tol=1e-6)
        assert rep.status == ["converged", "breakdown"] and list(rep.iters) == [1, 1]
        assert rep.failure[0] is None
        assert rep.failure[1].startswith("bilinear breakdown at step 2")
        x1, _ = solve_all(A, e1(4), shifts, method=method, tol=1e-300, max_iter=1)
        assert np.array_equal(x, x1)

    def test_unknown_method_is_the_same_value_error(self):
        A, b = sparse_from(np.eye(3)), np.ones(3)
        messages = []
        for make in (lambda: solve_all(A, b, [0.5], method="bogus"),
                     lambda: ShiftBatch("bogus", [0.5], 1.0, b, 10)):
            with pytest.raises(ValueError) as info:
                make()
            messages.append(str(info.value))
        assert messages == [f"unknown method 'bogus'; expected one of {METHODS}"] * 2

    def test_true_residual_verification_pass(self):
        rng = np.random.default_rng(30)
        A = sparse_from(rand_real_symmetric(12, rng))
        b = rng.standard_normal(12)
        x, rep = solve_all(A, b, [0.2 + 0.1j], method="qmr-sym", tol=1e-12)
        assert true_residual(A, rep.shifts, b, x)[0] / rep.bnorm <= 10 * rep.tol

    def test_tolerance_at_or_above_one_converges_without_iterating(self):
        # x_0 = 0 has relative residual exactly 1, inside any tol >= 1
        A = sparse_from(np.diag([2.0, 3.0]))
        x, rep = solve_all(A, np.array([1.0, 1.0]), [0.5], method="qmr-sym", tol=1.0)
        assert rep.all_converged
        assert rep.iters[0] == 0 and rep.iterations == 0
        assert np.all(x[0] == 0.0)
        assert rep.final_rel_estimate[0] == 1.0

    def test_report_invariants(self):
        rng = np.random.default_rng(35)
        A = sparse_from(rand_real_symmetric(20, rng))
        b = rng.standard_normal(20)
        shifts = [0.1 * k + 0.01j for k in range(1, 6)]
        x, rep = solve_all(A, b, shifts, method="qmr-sym-b", tol=1e-10, max_iter=30)
        assert np.all(rep.iters <= 30)
        for k, status in enumerate(rep.status):
            if status == "converged":
                assert rep.final_rel_estimate[k] <= rep.tol

    def test_non_finite_input_names_its_index(self):
        A = sparse_from(np.eye(3))
        b = np.ones(3)
        with pytest.raises(ValueError, match=r"shifts\[1\] = \(nan\+0j\) is not finite"):
            solve_all(A, b, [0.5, float("nan"), 0.7])
        with pytest.raises(ValueError, match=r"shifts\[0\] = infj is not finite"):
            solve_all(A, b, [complex(0.0, float("inf")), 0.5])
        bad = b.copy()
        bad[2] = np.nan
        with pytest.raises(ValueError, match=r"b\[2\] = nan is not finite"):
            solve_all(A, bad, [0.5])

    def test_input_validation(self):
        A = sparse_from(np.eye(2))
        b = np.ones(2)
        with pytest.raises(ValueError, match="method"):
            solve_all(A, b, [0.5], method="nope")
        with pytest.raises(ValueError, match="tol"):
            solve_all(A, b, [0.5], tol=0.0)
        with pytest.raises(ValueError, match="max_iter"):
            solve_all(A, b, [0.5], max_iter=0)
        # refused with its value named, before a zero b fails the Lanczos start
        for bad in (2.5, "3", np.float64(3.0)):
            message = re.escape(f"max_iter must be an integer, got {bad!r}")
            with pytest.raises(ValueError, match=message):
                solve_all(A, np.zeros(2), [0.5], max_iter=bad)
        x, rep = solve_all(A, b, [0.5], max_iter=np.int64(3))
        assert rep.all_converged and rep.iterations == 1
        # a custom driver's ShiftBatch checks it the same way
        for bad, message in ((2.5, "an integer, got 2.5"), ("3", "an integer, got '3'"), (0, ">= 1")):
            with pytest.raises(ValueError, match=f"max_iter must be {message}"):
                ShiftBatch("qmr-sym", [0.5], 1.0, e1(2), bad)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_non_finite_tol_is_rejected(self, tol):
        # nan would run every shift to max_iter unconverged; inf would retire
        # every shift as converged at x = 0
        A = sparse_from(np.eye(2))
        with pytest.raises(ValueError, match="tol must be finite"):
            solve_all(A, np.ones(2), [0.5], tol=tol)


class TestCallback:
    """``callback(n, state)`` reads copies of the per-shift scalars and asks
    for iterates; the solve has the same bits with or without it. Here with
    a breakdown (``cocg``, ``qmr-sym-b``), deflations at several steps and
    shifts left unconverged by ``max_iter``."""

    FAMILY = TestBlockResidual.FAMILY

    @classmethod
    def solve(cls, A, b, method, callback=None):
        counter = FlopCounter()
        x, rep = solve_all(A, b, cls.FAMILY, method=method, tol=1e-12, max_iter=12,
                           record_history=True, counter=counter, callback=callback)
        return x, rep, counter

    @staticmethod
    def assert_same(run, ref):
        (x, rep, counter), (x0, rep0, counter0) = run, ref
        assert np.array_equal(x, x0)
        assert np.array_equal(rep.iters, rep0.iters)
        assert rep.status == rep0.status and rep.failure == rep0.failure
        assert np.array_equal(rep.final_rel_estimate, rep0.final_rel_estimate)
        assert rep.history == rep0.history
        assert vars(counter) == vars(counter0) and rep.flops == rep0.flops

    # c = 5: directions carried from step 5 on; None: the default window
    @pytest.mark.parametrize("c", [5, None])
    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("method", METHODS)
    def test_callback_is_a_pure_observer(self, monkeypatch, method, real, c):
        if c is not None:
            TestWindowEngine.window(monkeypatch, c, 600)
        A, b = pivot_zero_banded(600, real)
        m, steps = len(self.FAMILY), []

        def reader(n, state):  # reads the scalars and writes into its copies
            assert all(arr.shape == (m,) for arr in (state.sigma, state.g, state.res, state.niter))
            assert np.array_equal(state.sigma, self.FAMILY) and state.niter.max() == n
            steps.append(n)
            for arr in (state.sigma, state.g, state.res, state.niter):
                arr[:] = 0

        ref = self.solve(A, b, method)
        run = self.solve(A, b, method, reader)
        assert steps == list(range(1, 13))
        assert "unconverged" in ref[1].status and "converged" in ref[1].status
        self.assert_same(run, ref)

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("method", METHODS)
    def test_iterates_contract(self, monkeypatch, method, real):
        TestWindowEngine.window(monkeypatch, 5, 600)
        A, b = pivot_zero_banded(600, real)
        m = len(self.FAMILY)
        subset = np.arange(m)[::-3]  # every third shift, last first
        snaps = []

        def requester(n, state):
            X = state.iterates()
            assert X.shape == (m, 600) and X.dtype == np.complex128
            assert np.array_equal(state.iterates(subset), X[subset])
            single = np.concatenate([state.iterates([ell]) for ell in range(m)])
            assert np.array_equal(single, X)
            snaps.append(X.copy())
            X[:] = np.nan  # the array is the caller's: writing into it changes nothing

        ref = self.solve(A, b, method)
        run = self.solve(A, b, method, requester)
        self.assert_same(run, ref)
        x, rep, _ = run
        # a shift's iterate is its solution from the step it retires at on,
        # one step after its last update for a breakdown; at the last step for all
        for ell, status in enumerate(rep.status):
            retired = {"converged": rep.iters[ell], "breakdown": rep.iters[ell] + 1,
                       "unconverged": rep.iterations}[status]
            assert all(np.array_equal(X[ell], x[ell]) for X in snaps[retired - 1 :])
        assert "breakdown" in rep.status or method in ("qmr-sym", "qmr-sym-omega")


class TestCostAccounting:
    def test_update_op_counts_are_exact(self):
        n, m = 32, 5
        rng = np.random.default_rng(32)
        A = sparse_from(rand_real_symmetric(n, rng))
        b = rng.standard_normal(n)
        shifts = [0.1 * k + 0.01j for k in range(1, m + 1)]
        expected = {
            "qmr-sym": 6 * n + 3,
            "qmr-sym-omega": 6 * n + 3,
            "qmr-sym-b": 4 * n + 2,
            "cocg": 4 * n + 2,
        }
        for method, per_shift in expected.items():
            counter = FlopCounter()
            marks = []

            def cb(k, state, cnt=counter, acc=marks):
                acc.append(cnt.shift_update)

            solve_all(
                A, b, shifts, method=method, tol=1e-30, max_iter=3, counter=counter, callback=cb
            )
            assert marks == [per_shift * m, 2 * per_shift * m, 3 * per_shift * m]

    def test_update_ratio_is_two_thirds(self):
        n, m = 32, 5
        rng = np.random.default_rng(33)
        A = sparse_from(rand_real_symmetric(n, rng))
        b = rng.standard_normal(n)
        shifts = [0.1 * k + 0.01j for k in range(1, m + 1)]
        counts = {}
        for method in ("qmr-sym", "qmr-sym-b"):
            counter = FlopCounter()
            solve_all(A, b, shifts, method=method, tol=1e-30, max_iter=4, counter=counter)
            counts[method] = counter.shift_update
        assert counts["qmr-sym-b"] * 3 == counts["qmr-sym"] * 2

    def test_deflation_reduces_charged_updates(self):
        rng = np.random.default_rng(34)
        n = 16
        A = sparse_from(rand_real_symmetric(n, rng))
        b = rng.standard_normal(n)
        counter = FlopCounter()
        x, rep = solve_all(A, b, [0.1 + 0.01j, 300.0], method="qmr-sym", tol=1e-12, counter=counter)
        total_updates = int(rep.iters.sum())
        assert counter.shift_update == (6 * n + 3) * total_updates


class TestWindowEngine:
    """Deferred assembly: ``c`` Lanczos steps per window, one GEMM per row
    block. ``_WINDOW_ELEMS = c * N`` with ``_MIN_WINDOW = 1`` and
    ``_MAX_WINDOW = c`` sets the window to ``c`` steps on a real or a complex
    basis; ``c = 1`` flushes the window at every step."""

    RECURRENCES = ("qmr-sym", "qmr-sym-b", "qmr-sym-omega")

    @staticmethod
    def window(monkeypatch, c, n):
        """Make every window at ``N = n`` ``c`` steps long: a complex basis,
        which doubles ``_WINDOW_ELEMS // N``, is capped at ``c`` too."""
        monkeypatch.setattr(solvers, "_WINDOW_ELEMS", c * n)
        monkeypatch.setattr(solvers, "_MIN_WINDOW", 1)
        monkeypatch.setattr(solvers, "_MAX_WINDOW", c)

    @classmethod
    def solve(cls, monkeypatch, c, A, b, shifts, method, **kw):
        cls.window(monkeypatch, c, A.n)
        return solve_all(A, b, shifts, method=method, **kw)

    @staticmethod
    def assert_close(x, ref, rtol=1e-13):
        for xl, rl in zip(x, ref):
            assert np.linalg.norm(xl - rl) <= rtol * np.linalg.norm(rl)

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("method", METHODS)
    def test_window_sizes_agree_with_one_step_windows(self, monkeypatch, method, real):
        A, b = pivot_zero_banded(80, real)
        shifts = [0.0] + [0.3 + 0.15 * ell + 0.05j for ell in range(9)]
        x1, rep1 = self.solve(monkeypatch, 1, A, b, shifts, method, tol=1e-11)
        assert len(set(rep1.iters)) > 3
        for c in (2, 3, 7):
            x, rep = self.solve(monkeypatch, c, A, b, shifts, method, tol=1e-11)
            assert list(rep.iters) == list(rep1.iters)
            assert rep.status == rep1.status
            self.assert_close(x, x1)

    def test_long_basis_keeps_windows_of_eight_steps(self):
        # _WINDOW_ELEMS // N is 0 from N = 2^18 on: the window keeps 8 steps on
        # a real basis and 16 on a complex one, unless max_iter is shorter
        for v1, steps in ((e1(2**18), 8), (e1(2**18, complex), 16)):
            assert ShiftBatch("qmr-sym", [0.5j], 1.0, v1, 2 * len(v1)).window.steps == steps
            assert ShiftBatch("qmr-sym", [0.5j], 1.0, v1, 3).window.steps == 3

    @pytest.mark.parametrize("n, real, steps", [(1728, True, 75), (13824, True, 9),
                                                (13824, False, 18), (512, False, 256)])
    def test_complex_window_is_twice_as_long(self, n, real, steps):
        v1 = e1(n, float if real else complex)
        assert ShiftBatch("qmr-sym-b", [0.5j], 1.0, v1, 2 * n).window.steps == steps

    @pytest.mark.parametrize("method", RECURRENCES)
    def test_deflation_on_a_window_boundary(self, monkeypatch, method):
        rng = np.random.default_rng(40)
        A = sparse_from(rand_complex_symmetric(40, rng))
        b = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        shifts = [0.4 + 0.2j, 3.0 + 1.0j, 0.9 + 0.4j]
        x1, rep1 = self.solve(monkeypatch, 1, A, b, shifts, method, tol=1e-10)
        first = int(np.argmin(rep1.iters))
        c = int(rep1.iters[first])  # the window ends where this shift deflates
        assert 1 < c < rep1.iterations
        x, rep = self.solve(monkeypatch, c, A, b, shifts, method, tol=1e-10)
        xs, reps = self.solve(monkeypatch, c, A, b, shifts[first : first + 1], method, tol=1e-10)
        assert list(rep.iters) == list(rep1.iters) and rep.all_converged
        self.assert_close(x, x1)
        assert np.array_equal(x[first], xs[0]) and reps.iters[0] == c

    @pytest.mark.parametrize("real", [True, False])
    def test_pivot_breakdown_mid_window_freezes_the_iterate(self, monkeypatch, real):
        A, b = pivot_zero_banded(60, real)
        shifts = [0.0, 0.5 + 0.1j, 1.1 + 0.2j]
        x1, rep1 = self.solve(monkeypatch, 1, A, b, shifts, "qmr-sym-b", tol=1e-11)
        x, rep = self.solve(monkeypatch, 3, A, b, shifts, "qmr-sym-b", tol=1e-11)
        # sigma = 0 breaks down at step 2 of the window of steps 1..3
        assert rep.status == rep1.status == ["breakdown", "converged", "converged"]
        assert rep.iters[0] == 1 and "pivot breakdown at step 2" in rep.failure[0]
        # frozen at its step-1 iterate x_1 = (g_1 / alpha_1) v_1 = e_1 / alpha_1
        assert np.allclose(x[0], e1(60) / PIVOT_A1, rtol=1e-15, atol=0)
        assert np.array_equal(x[0], x1[0])
        self.assert_close(x[1:], x1[1:])

    @pytest.mark.parametrize("method", METHODS)
    def test_lucky_termination_mid_window(self, monkeypatch, method):
        # b lives in a 5 x 5 diagonal block: the Krylov space closes at step 5
        rng = np.random.default_rng(41)
        block = rand_complex_symmetric(5, rng)
        M = np.zeros((20, 20), dtype=complex)
        M[:5, :5] = block
        M[5:, 5:] = np.diag(np.arange(1.0, 16.0))
        A = sparse_from(M)
        b = np.zeros(20, dtype=complex)
        b[:5] = 10 * (rng.standard_normal(5) + 1j * rng.standard_normal(5))
        shifts = [0.5 + 0.5j, 2.0 + 0.1j]
        x1, rep1 = self.solve(monkeypatch, 1, A, b, shifts, method, tol=1e-12)
        x, rep = self.solve(monkeypatch, 3, A, b, shifts, method, tol=1e-12)
        assert rep.lucky and rep1.lucky and rep.iterations == 5  # mid window 4..6
        assert list(rep.iters) == list(rep1.iters) == [5, 5] and rep.all_converged
        self.assert_close(x, x1)
        for xl, sigma in zip(x, shifts):
            xs = np.linalg.solve(M + sigma * np.eye(20), b)
            assert np.linalg.norm(xl - xs) <= 1e-10 * np.linalg.norm(xs)

    @pytest.mark.parametrize("c", [7, None])
    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("method", RECURRENCES)
    def test_shift_alone_equals_shift_in_family(self, monkeypatch, method, real, c):
        n = 600
        A = generate_hamiltonian_analog(n, 8, seed=5, real=real)
        b = e1(n)
        if c is not None:
            self.window(monkeypatch, c, n)
        # shifts per row block of a window flush, which assembles x and one or
        # two directions per shift
        targets = 2 if method == "qmr-sym-b" else 3
        per_block = max(2, solvers._BLOCK_ELEMS // (targets * n))
        family = 0.3 + 0.05 * np.arange(per_block + 3) + 0.002j
        pick = per_block + 1  # in the second row block
        x, fam = solve_all(A, b, family, method=method, tol=1e-12, record_history=True)
        xs, solo = solve_all(A, b, family[pick : pick + 1], method=method, tol=1e-12,
                             record_history=True)
        assert len(set(fam.iters)) > 1
        assert fam.iters[pick] == solo.iters[0]
        assert np.array_equal(x[pick], xs[0])
        assert fam.history[pick] == solo.history[0]
        assert fam.final_rel_estimate[pick] == solo.final_rel_estimate[0]

    @pytest.mark.parametrize("c", [7, None])
    @pytest.mark.parametrize("n", [601, 603])
    @pytest.mark.parametrize("method", ["qmr-sym", "qmr-sym-omega"])
    def test_odd_length_complex_rows_round_alike_in_any_family(self, monkeypatch, method, n, c):
        # w is updated and measured one row at a time by BLAS; with N odd a
        # row's start is 16 bytes off a 32-byte boundary in every other row,
        # and the picked shift sits in an odd row of the family, in row 0 alone;
        # windows of 7 steps, or the default one that outlasts the solve
        A = generate_hamiltonian_analog(n, 8, seed=5, real=False)
        b = e1(n)
        kw = dict(method=method, tol=1e-12, record_history=True)
        if c is not None:
            self.window(monkeypatch, c, n)
        family = 0.7 - 0.05 * np.arange(9) + 0.002j  # the last ones converge last
        pick = 7
        x, fam = solve_all(A, b, family, **kw)
        xs, solo = solve_all(A, b, family[pick : pick + 1], **kw)
        assert min(fam.iters) < fam.iters[pick]  # rows retire, and w's rows move, before it
        assert fam.iters[pick] == solo.iters[0]
        assert np.array_equal(x[pick], xs[0])
        assert fam.history[pick] == solo.history[0]
        assert fam.final_rel_estimate[pick] == solo.final_rel_estimate[0]

    @pytest.mark.parametrize("method", RECURRENCES)
    def test_coefficient_rows_grow_with_the_steps(self, monkeypatch, method):
        seen = []

        class Watched(ShiftBatch):
            def __init__(self, *args, **kw):
                super().__init__(*args, **kw)
                seen.append(self.coef.shape[1])

            def finish(self):
                seen.append(self.coef.shape[1])
                return super().finish()

        # a disordered chain with an absorbing on-site part: 73 to 145 steps
        rng = np.random.default_rng(46)
        n = 200
        M = np.diag(rng.uniform(-0.5, 0.5, n) + 0.05j) - np.eye(n, k=1) - np.eye(n, k=-1)
        A, b = sparse_from(M), e1(n)
        shifts = [0.3 + 0.3j, 0.5 + 0.3j, 1.0 + 0.6j]
        x1, rep1 = self.solve(monkeypatch, 1, A, b, shifts, method, tol=1e-11)
        monkeypatch.setattr(solvers, "ShiftBatch", Watched)
        x, rep = self.solve(monkeypatch, 100, A, b, shifts, method, tol=1e-11)
        assert min(rep.iters) < 100 < rep.iterations
        # rows for 30 steps at first, doubled as the window fills, up to window + 2
        assert seen == [32, 102]
        assert list(rep.iters) == list(rep1.iters) and rep.status == rep1.status
        self.assert_close(x, x1)

    # two shifts deflate at step 1, two at step 2 and one at step 3; the
    # others run past several windows of 2 and 3 steps
    EARLY = [1e12, 0.3 + 0.05j, 2e5 + 1j, 1e13j, 4e3, 0.9 + 0.05j, 3e5]

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("method", METHODS)
    def test_shifts_retired_before_the_first_carrying_flush(self, monkeypatch, method, real):
        A, b = pivot_zero_banded(80, real)
        x1, rep1 = self.solve(monkeypatch, 1, A, b, self.EARLY, method, tol=1e-11)
        assert sorted(rep1.iters)[:5] == [1, 1, 2, 2, 3] and min(rep1.iters[[1, 5]]) > 6
        for c in (2, 3):
            x, rep = self.solve(monkeypatch, c, A, b, self.EARLY, method, tol=1e-11)
            assert list(rep.iters) == list(rep1.iters) and rep.all_converged
            if method != "cocg":  # scalar recurrences: the same bits under any window
                assert np.array_equal(rep.final_rel_estimate, rep1.final_rel_estimate)
            self.assert_close(x, x1)
            # the directions are made at step c for the shifts active then; each
            # shift's iterate has the bits of the shift solved alone
            for ell, sigma in enumerate(self.EARLY):
                xs, solo = self.solve(monkeypatch, c, A, b, [sigma], method, tol=1e-11)
                assert solo.iters[0] == rep.iters[ell] and np.array_equal(xs[0], x[ell])
                assert solo.final_rel_estimate[0] == rep.final_rel_estimate[ell]

    @staticmethod
    def desk_sweep(m):
        """The README's desk-scale sweep: N = 512, every shift deflated by step 17."""
        A = generate_hamiltonian_analog(512, 34, 42)
        return A, e1(512), 0.4 + 0.001 * np.arange(m) + 0.001j

    @pytest.mark.parametrize("method", METHODS)
    def test_no_directions_when_every_shift_deflates_in_the_first_window(self, monkeypatch, method):
        seen = []

        class Watched(ShiftBatch):
            def finish(self):
                seen.append((self.window.steps, self.P1, self.P2))
                return super().finish()

        monkeypatch.setattr(solvers, "ShiftBatch", Watched)
        A, b, shifts = self.desk_sweep(40)
        _, rep = solve_all(A, b, shifts, method=method, tol=1e-12)
        (window, P1, P2), = seen
        assert rep.all_converged and rep.iterations < window == 256
        assert P1 is None and P2 is None
        # a window of 4 steps carries the directions of the 40 shifts active at step 4
        seen.clear()
        _, rep4 = self.solve(monkeypatch, 4, A, b, shifts, method, tol=1e-12)
        (window, P1, P2), = seen
        assert window == 4 and list(rep4.iters) == list(rep.iters) and min(rep.iters) > 4
        assert P1.shape == (40, 512)
        assert (P2 is not None) == (method in ("qmr-sym", "qmr-sym-omega"))

    def test_desk_sweep_peak_memory(self):
        A, b, shifts = self.desk_sweep(1001)
        m, n = len(shifts), A.n
        probe = ShiftBatch("qmr-sym", shifts, 1.0, b, 2 * n)
        window = probe.window.Vw.nbytes + probe.coef.nbytes
        del probe
        tracemalloc.start()
        try:
            x, rep = solve_all(A, b, shifts, method="qmr-sym", tol=1e-12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.all_converged and x.shape == (m, n)
        # the iterates, the window and the solve's smaller arrays: no directions,
        # no copy of the iterates on return
        assert peak <= m * n * 16 + window + 2 * 2**20

    # every shift retires within the one window, so all 1001 rows are pending
    # until finish assembles them, a bounded block at a time. Assembling each
    # retirement at once instead peaked this far above these arrays
    @pytest.mark.parametrize("method, above", [("qmr-sym", 1.142), ("qmr-sym-b", 1.013)])
    def test_desk_sweep_peak_memory_with_pending_rows(self, method, above):
        A, b, shifts = self.desk_sweep(1001)
        probe = ShiftBatch(method, shifts, 1.0, b, 2 * A.n)
        arrays = probe.X.nbytes + probe.window.Vw.nbytes + probe.coef.nbytes
        del probe
        tracemalloc.start()
        try:
            x, rep = solve_all(A, b, shifts, method=method, tol=1e-12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.all_converged and rep.iterations < 256
        assert peak <= arrays + above * 2**20, f"{(peak - arrays) / 2**20:.3f} MiB"


# on chain() from e_1 they deflate from step 26 to 170
CHAIN_SHIFTS = [0.3 + 0.3j, 0.5 + 0.2j, 1.0 + 0.6j, 1.5 + 0.15j, 0.1 + 0.4j, 2.5 + 1j]


def chain(n=2**13, real=False):
    """A disordered chain of ``n`` sites with an absorbing on-site part
    (real without it), and ``e_1``."""
    rng = np.random.default_rng(46)
    i, d = np.arange(n - 1), np.arange(n)
    onsite = rng.uniform(-0.5, 0.5, n) + (0.0 if real else 0.05j)
    vals = np.concatenate([-np.ones(2 * (n - 1)), onsite])
    A = SparseSymMatrix.from_coo(n, np.concatenate([i, i + 1, d]), np.concatenate([i + 1, i, d]),
                                 vals)
    return A, e1(n)


class TestDeferredRetirement:
    """A retiring shift keeps its window coefficients, zero after its last
    step, and is assembled with the next full window or at the end."""

    C = 50  # steps per window
    # on the chain of 1000 sites they retire at 12 different
    # steps, from 30 to 383, most of them mid-window
    SHIFTS = np.linspace(0.2, 2.4, 12) + 1j * np.linspace(0.1, 0.7, 12)

    @classmethod
    def solve(cls, monkeypatch, method, real, **kw):
        TestWindowEngine.window(monkeypatch, cls.C, 1000)
        A, b = chain(1000, real=real)
        return solve_all(A, b, cls.SHIFTS, method=method, tol=1e-10, **kw)

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("method", METHODS)
    def test_one_flush_per_window_and_one_at_the_end(self, monkeypatch, method, real):
        # only the full-window flushes and finish write the batch's X; cocg's
        # checks sweep the window into copies
        calls = []
        sweep = solvers._Window.sweep

        def counted(window, batch, rows, carry, X):
            if X is batch.X:
                calls.append(rows)
            return sweep(window, batch, rows, carry, X)

        monkeypatch.setattr(solvers._Window, "sweep", counted)
        x, rep = self.solve(monkeypatch, method, real)
        retired_mid_window = {s for s in rep.iters.tolist() if s % self.C}
        assert rep.all_converged and len(retired_mid_window) >= 11
        assert len(calls) == rep.iterations // self.C + 1

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("method", METHODS)
    def test_callback_reads_pending_shifts(self, monkeypatch, method, real):
        reads = []

        def reader(n, state):  # the shifts retired within the window, before its flush
            for ell in np.flatnonzero((state.niter < n) & (n % self.C > state.niter % self.C)):
                if n - state.niter[ell] <= 3:
                    reads.append((ell, state.iterates([ell])[0]))

        x, rep = self.solve(monkeypatch, method, real, callback=reader)
        assert rep.all_converged and len({ell for ell, _ in reads}) >= 10
        assert all(np.array_equal(xl, x[ell]) for ell, xl in reads)

    @pytest.mark.parametrize("real", [True, False])
    def test_verified_cocg_rows_keep_their_bits(self, monkeypatch, real):
        verified = {}

        def reader(n, state):  # each iterate as its explicit residual verified it
            for ell in np.flatnonzero(state.res <= 1e-10):
                verified.setdefault(ell, state.iterates([ell])[0])

        x, rep = self.solve(monkeypatch, "cocg", real, callback=reader)
        # several of them verified mid-window with full windows flushed after
        assert rep.all_converged and sum(s % self.C > 0 for s in rep.iters) >= 10
        assert len(verified) == 12
        assert all(np.array_equal(xl, x[ell]) for ell, xl in verified.items())


class TestFlushTiling:
    """A window flush multiplies at least two shifts per GEMM, over column
    panels of the window where their rows over the whole length would exceed
    ``_BLOCK_ELEMS`` entries, in the stream's thread. Every row keeps the
    bits of a product over whole rows."""

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("n", [601, 603])
    @pytest.mark.parametrize("method", METHODS)
    def test_tiling_keeps_bits(self, monkeypatch, method, n, real):
        # windows of 7 steps on a padded width of 608 columns. With
        # _BLOCK_ELEMS = 600 a GEMM takes 2 of the 6 shifts (3 row blocks) over
        # 96, 144 or 296 columns (3 to 7 panels, the last to the padded width);
        # with 60 a flush that carries directions also sweeps the rows 2 at a
        # time (3 sweeps, over 8-column panels); with 2^24 every GEMM takes
        # all 6 shifts over whole rows
        A, b = chain(n, real=real)
        family = CHAIN_SHIFTS
        TestWindowEngine.window(monkeypatch, 7, n)
        runs = []
        for elems in (600, 60, 2**24):
            monkeypatch.setattr(solvers, "_BLOCK_ELEMS", elems)
            counter = FlopCounter()
            x, rep = solve_all(A, b, family, method=method, tol=1e-10, record_history=True,
                               counter=counter)
            runs.append((x, rep, counter))
        *tiled, (xw, repw, counterw) = runs
        for x, rep, counter in tiled:
            assert rep.all_converged and len(set(rep.iters)) > 3 and min(rep.iters) > 7
            assert np.array_equal(x, xw)
            assert list(rep.iters) == list(repw.iters) and rep.status == repw.status
            assert np.array_equal(rep.final_rel_estimate, repw.final_rel_estimate)
            assert rep.history == repw.history
            assert vars(counter) == vars(counterw) and vars(rep.flops) == vars(repw.flops)
        x = tiled[0][0]
        # a shift alone takes its GEMM alone, but has the bits it has in the family
        monkeypatch.setattr(solvers, "_BLOCK_ELEMS", 600)
        xs, solo = solve_all(A, b, family[3:4], method=method, tol=1e-10)
        assert np.array_equal(xs[0], x[3]) and solo.iters[0] == rep.iters[3]

    @staticmethod
    def peak_above_arrays(method, real):
        """A one-shift solve of the 2^16-site chain: its peak traced memory
        above its arrays, in units of ``16 * _BLOCK_ELEMS`` bytes (0.25 MiB)."""
        A, b = chain(2**16, real=real)
        probe = ShiftBatch(method, CHAIN_SHIFTS[:1], 1.0, b.astype(float if real else complex),
                           2 * A.n)
        # X and the directions P1 (and P2), W, the window's basis vectors and
        # four Lanczos vectors
        arrays = (probe.X.nbytes * len(probe.coef) + probe.window.Vw.nbytes
                  + 4 * probe.window.Vw.itemsize * A.n + (0 if probe.W is None else probe.W.nbytes))
        window = probe.window.steps
        del probe
        tracemalloc.start()
        try:
            x, rep = solve_all(A, b, CHAIN_SHIFTS[:1], method=method, tol=1e-10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.all_converged and rep.iterations > 4 * window
        return (peak - arrays) / (16 * solvers._BLOCK_ELEMS)

    # products over whole rows held a GEMM's whole output (at 2^16 one shift's
    # 2 or 3 rows) and every target's output at once, 4 to 12 MiB above these
    # arrays; the column panels leave about 0.5 MiB
    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("method", ["qmr-sym", "qmr-sym-b"])
    def test_flush_temporaries_stay_bounded_at_large_n(self, method, real):
        above = self.peak_above_arrays(method, real)
        # four blocks of complex entries: 1 MiB
        assert above <= 4, f"{above / 4:.3f} MiB above the arrays"

    # cocg's explicit check: sigma x subtracted over the whole length at once
    # peaked 2.0 MiB above these arrays on a real basis and 1.0 MiB on a
    # complex one; _BLOCK_ELEMS rows at a time leave about 1.3 and 0.5 MiB
    @pytest.mark.parametrize("real", [True, False])
    def test_explicit_check_temporaries_stay_bounded_at_large_n(self, real):
        above = self.peak_above_arrays("cocg", real)
        assert above <= 6, f"{above / 4:.3f} MiB above the arrays"  # 1.5 MiB

    def test_no_thread_on_a_long_complex_basis(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        started = []
        start = threading.Thread.start

        def counting(thread):
            started.append(thread)
            return start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting)
        A, b = chain()
        threads = threading.active_count()
        for method in METHODS:
            _, rep = solve_all(A, b, CHAIN_SHIFTS, method=method, tol=1e-10)
            assert rep.all_converged and rep.iterations > 64  # several windows of 32 steps
            assert started == [] and threading.active_count() == threads

    @pytest.mark.parametrize("method", METHODS)
    def test_shift_alone_equals_shift_in_family(self, method):
        A, b = chain()
        pick = 3  # deflates after four other rows have retired
        x, fam = solve_all(A, b, CHAIN_SHIFTS, method=method, tol=1e-10, record_history=True)
        xs, solo = solve_all(A, b, CHAIN_SHIFTS[pick : pick + 1], method=method, tol=1e-10,
                             record_history=True)
        assert sorted(fam.iters).index(fam.iters[pick]) == 4
        assert fam.iters[pick] == solo.iters[0]
        assert np.array_equal(x[pick], xs[0])
        assert fam.history[pick] == solo.history[0]
        assert fam.final_rel_estimate[pick] == solo.final_rel_estimate[0]

    @pytest.mark.parametrize("method", ["qmr-sym", "qmr-sym-omega"])
    def test_rows_of_two_axpy_chunks_round_alike_in_any_family(self, method):
        # at N = 8200 each row of W takes c v_{n+1} in a chunk of 8192 entries
        # and one of 8, counted from the row's start; a random b, so that the
        # basis vectors reach the second chunk
        A, _ = chain(8200)
        b = np.random.default_rng(48).standard_normal(A.n)
        assert solvers._DOT_CHUNK < A.n < 2 * solvers._DOT_CHUNK
        pick = 3
        x, fam = solve_all(A, b, CHAIN_SHIFTS, method=method, tol=1e-10, record_history=True)
        xs, solo = solve_all(A, b, CHAIN_SHIFTS[pick : pick + 1], method=method, tol=1e-10,
                             record_history=True)
        tr = true_residual(A, CHAIN_SHIFTS[pick], b, x[pick]) / np.linalg.norm(b)
        assert abs(fam.final_rel_estimate[pick] - tr) <= 1e-6 * tr
        assert sorted(fam.iters).index(fam.iters[pick]) == 4
        assert fam.iters[pick] == solo.iters[0]
        assert np.array_equal(x[pick], xs[0])
        assert fam.history[pick] == solo.history[0]
        assert fam.final_rel_estimate[pick] == solo.final_rel_estimate[0]


def scale_problem(kind):
    """A banded real matrix with a real ``b``, a real 3-D lattice with its
    centre site, or a complex absorbing lattice with a complex ``b``; each
    with its shifts."""
    rng = np.random.default_rng(47)
    if kind == "banded":
        A = generate_hamiltonian_analog(64, 5, 1)
        return A, rng.standard_normal(64), np.array([0.5 + 0.01j, 0.3])
    n, rows, cols, vals = tight_binding_lattice(8 if kind == "lattice" else 6, 1.0, 42,
                                                cap_layers=0 if kind == "lattice" else 2)
    A = SparseSymMatrix.from_coo(n, rows, cols, vals)
    if kind == "lattice":
        b = np.zeros(n)
        b[(4 * 8 + 4) * 8 + 4] = 1.0
    else:
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return A, b, np.array([-2.0 + 0.1j, 0.5 + 0.1j, 3.0 + 0.1j])


class TestScaleInvariance:
    # (ka, kb): A and the shifts times 2^ka, b times 2^kb. Every operation of
    # a solve then rounds as at (0, 0), so the report has the same bits and X
    # is scaled by exactly 2^(kb - ka). A lucky-termination test against
    # ||b|| stopped the QMR methods at step 1, "converged", once
    # ||b|| / ||A|| reached about 2^47, and b^T b overflowed at 2^600
    SCALES = [(0, 60), (0, -60), (50, 0), (-50, 0), (-20, 30), (0, 600), (0, -600)]

    @pytest.mark.parametrize("kind", ["banded", "lattice", "absorbing"])
    @pytest.mark.parametrize("method", METHODS)
    def test_power_of_two_scaling_keeps_the_bits(self, kind, method):
        A, b, shifts = scale_problem(kind)
        assert A.is_real == (kind != "absorbing")
        x0, r0 = solve_all(A, b, shifts, method=method, tol=1e-10, counter=FlopCounter())
        assert r0.all_converged and not r0.lucky
        for ka, kb in self.SCALES:
            As = SparseSymMatrix(A.n, A.indptr, A.indices, A.data * 2.0**ka)
            x, r = solve_all(As, b * 2.0**kb, shifts * 2.0**ka, method=method, tol=1e-10,
                             counter=FlopCounter())
            assert r.status == r0.status and np.array_equal(r.iters, r0.iters), (ka, kb)
            assert (r.iterations, r.lucky, r.flops) == (r0.iterations, r0.lucky, r0.flops)
            assert r.final_rel_estimate.tobytes() == r0.final_rel_estimate.tobytes(), (ka, kb)
            assert x.tobytes() == (x0 * 2.0 ** (kb - ka)).tobytes(), (ka, kb)

    # A and the shift at 2^-1030 and 2^-1031 with b = e_1: NumPy's complex
    # division by the subnormal pivot t_n overflowed in f = -beta / t_n at step
    # 1, and the solve ran every step on a non-finite g. At 2^-1022 it converges
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("method", METHODS)
    def test_recurrence_overflow_is_a_value_error(self, method):
        A = generate_hamiltonian_analog(64, 5, 1)
        for k in (-1022, -1030):
            As = SparseSymMatrix(A.n, A.indptr, A.indices, np.ldexp(A.data, k))
            if k == -1022:
                _, rep = solve_all(As, e1(64), [2.0 ** (k - 1)], method=method, tol=1e-10)
                assert rep.all_converged and rep.iterations == 13
                continue
            with pytest.raises(ValueError) as info:
                solve_all(As, e1(64), [2.0 ** (k - 1)], method=method, tol=1e-10)
            assert str(info.value) == ("the recurrences of shift (4.345847379897e-311+0j) "
                                       "exceed float64 range")

    # a coefficient that overflows while g stays finite is caught where the
    # window is swept, before it reaches X
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_coefficient_is_a_value_error(self, monkeypatch):
        advance = ShiftBatch._advance

        def overflowing(batch, step, *args):  # d of the second row at step 2
            if step.n == 2:
                batch.coef[0, batch.window.k + 2, 1] = np.inf
            return advance(batch, step, *args)

        monkeypatch.setattr(ShiftBatch, "_advance", overflowing)
        A, b = chain(64)
        with pytest.raises(ValueError) as info:
            solve_all(A, b, CHAIN_SHIFTS[:2], method="qmr-sym-b", tol=1e-10)
        assert str(info.value) == "the recurrences of shift (0.5+0.2j) exceed float64 range"


class TestTracedNames:
    """A traced benchmark solve (``perfbench/spans.py``) replaces functions by
    wrappers in the module namespaces where the program looks them up, and
    fails when a method never reaches a wrapper it expects (``SHARED_CALLS``
    and ``METHOD_CALLS`` of ``perfbench/workloads.py``, copied here). A
    function bound early, such as an update stored in ``_METHODS`` as a
    function object, is no longer reached through its name."""

    # span name: the module attribute wrapped for it
    WRAPPED = {
        "solvers.solve_all": (solvers, "solve_all"),
        "lanczos.lanczos_init": (solvers, "lanczos_init"),
        "lanczos.lanczos_step": (solvers, "lanczos_step"),
        "core.spmv": (lanczos, "spmv"),
        "core.bilinear_dot": (lanczos, "bilinear_dot"),
        "solvers.qmr_sym_update": (solvers, "qmr_sym_update"),
        "solvers.qmr_sym_b_update": (solvers, "qmr_sym_b_update"),
        "solvers.qmr_sym_omega_update": (solvers, "qmr_sym_omega_update"),
        "solvers.cocg_galerkin_update": (solvers, "cocg_galerkin_update"),
        "solvers.estimate_residual_qmr": (solvers, "estimate_residual_qmr"),
        "solvers.true_residual": (solvers, "true_residual"),
    }
    SHARED_CALLS = ("solvers.solve_all", "lanczos.lanczos_init", "lanczos.lanczos_step",
                    "core.spmv", "core.bilinear_dot")
    METHOD_CALLS = {
        "qmr-sym": ("solvers.qmr_sym_update", "solvers.estimate_residual_qmr"),
        "qmr-sym-b": ("solvers.qmr_sym_b_update",),
        "qmr-sym-omega": ("solvers.qmr_sym_omega_update", "solvers.estimate_residual_qmr"),
        "cocg": ("solvers.cocg_galerkin_update", "solvers.true_residual"),
    }

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("method", METHODS)
    def test_each_method_reaches_its_traced_names(self, monkeypatch, method, real):
        calls = dict.fromkeys(self.WRAPPED, 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name, (module, attr) in self.WRAPPED.items():
            monkeypatch.setattr(module, attr, counting(name, getattr(module, attr)))
        A, b = chain(n=200, real=real)
        _, rep = solvers.solve_all(A, b, CHAIN_SHIFTS, method=method, tol=1e-10)
        assert rep.all_converged
        expected = self.SHARED_CALLS + self.METHOD_CALLS[method]
        assert [name for name in expected if not calls[name]] == []
        # every method's deflation test reads the one estimate rule, once per step
        assert calls["solvers.estimate_residual_qmr"] == rep.iterations
        assert calls["lanczos.lanczos_step"] == rep.iterations
