import numpy as np
import pytest

from shiftkrylov import (
    BreakdownError,
    DenseOracle,
    FlopCounter,
    SparseSymMatrix,
    brute_force_wqmr,
    cocg_galerkin_update,
    estimate_residual_qmr,
    estimate_residual_qmr_b,
    generate_hamiltonian_analog,
    make_shift_state,
    qmr_sym_b_update,
    qmr_sym_omega_update,
    qmr_sym_update,
    run_diagnostic,
    solve_all,
    true_residual,
)

from _reference import rand_complex_symmetric, rand_real_symmetric, reference_cg

EPS = np.finfo(np.float64).eps


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


class TestRotationUpdate:
    def test_three_four_five_rotation(self):
        # fresh state, first step: column scalars (t_nn, t_n+1,n) = (3, 4)
        v = np.array([1.0, 0.0])
        st = make_shift_state(0.0, "qmr-sym", 1.0, v, real_path=True)
        qmr_sym_update(st, alpha=3.0, beta_prev=0.0, beta=4.0, v=v, v_next=np.array([0.0, 1.0]))
        c, s = st.rot_prev
        assert abs(c - 0.6) <= 1e-15
        assert abs(s - 0.8) <= 1e-15  # real data: s == sbar
        assert abs(st.diag_prev - 5.0) <= 1e-15
        assert abs(st.g - (-0.8)) <= 1e-15  # g_{n+1} = -sbar * g_n
        # x_1 = (c*g / t) p_1 with p_1 = v_1
        assert np.allclose(st.x, (0.6 / 5.0) * v.astype(complex), rtol=1e-15)

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
        pairs = []

        def cb(n, states):
            for st in states:
                if st.rot_prev is not None:
                    pairs.append(st.rot_prev)

        solve_all(A, b, [0.3 + 0.2j, 0.8 + 0.1j], method="qmr-sym", tol=1e-12, callback=cb)
        assert pairs
        for c, s in pairs:
            assert isinstance(c, float) and c >= 0.0
            assert abs(c * c + abs(s) ** 2 - 1.0) <= 1e-14

    def test_zero_rotation_pivot_breaks_down(self):
        # sigma = -alpha_1 makes t_{1,1} exactly zero at step 1
        A = sparse_from(np.diag([2.0, 3.0]))
        v = np.array([1.0, 0.0])
        st = make_shift_state(-2.0, "qmr-sym", 1.0, v, real_path=True)
        with pytest.raises(BreakdownError, match="rotation"):
            qmr_sym_update(st, alpha=2.0, beta_prev=0.0, beta=1.0, v=v, v_next=np.array([0.0, 1.0]))


class TestEliminationUpdate:
    def test_elimination_scalars(self):
        v = np.array([1.0, 0.0])
        st = make_shift_state(0.0, "qmr-sym-b", 1.0, v, real_path=True)
        qmr_sym_b_update(st, alpha=2.0, beta_prev=0.0, beta=1.0, v=v)
        assert st.f_prev == -0.5
        assert st.g == -0.5  # g~_{n+1} = f_n g~_n

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
            def cb(n, states, acc=step_true[method]):
                acc.append([true_residual(A, st.sigma, b, st.x) for st in states])

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
        st = make_shift_state(sigma, "qmr-sym-b", rec.g1, rec.vectors[:, 0], real_path=False)
        for k in range(10):
            qmr_sym_b_update(
                st, rec.alphas[k], 0.0 if k == 0 else rec.betas[k - 1], rec.betas[k],
                rec.vectors[:, k],
            )
            r_vec = b - M @ st.x - sigma * st.x
            predicted = st.g * rec.vectors[:, k + 1]
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

        def cb(n, states):
            snapshots.append(states[0].x.copy())

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
            def cb(n, states, acc=acc):
                acc.append([st.x.copy() for st in states])

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
    def test_cocg_residual_is_explicit_at_every_step(self, real):
        A, b = pivot_zero_banded(600, real)
        assert A.is_real == real
        frozen = []

        def cb(n, states):
            for st in states:
                # a few ulps of ||b|| = 1
                assert abs(st.res - true_residual(A, st.sigma, b, st.x)) <= 4 * EPS
            frozen.append(states[0].res)

        x, rep = solve_all(A, b, self.FAMILY, method="cocg", tol=1e-12, callback=cb)
        assert rep.iterations > 10
        assert rep.status[0] == "breakdown" and rep.iters[0] == 1
        assert all(s == "converged" for s in rep.status[1:])
        # the broken shift keeps its step-1 residual and iterate
        assert frozen == [frozen[0]] * len(frozen)
        assert rep.final_rel_estimate[0] == frozen[0] == true_residual(A, 0.0, b, x[0])

    def test_cocg_charges_one_complex_matvec_per_residual(self):
        A, b = pivot_zero_banded(600, real=True)
        counter = FlopCounter()
        _, rep = solve_all(
            A, b, self.FAMILY, method="cocg", tol=1e-12, counter=counter, true_residuals=True
        )
        assert counter.matvec_real == 2 * A.nnz * rep.iterations  # the Lanczos stream
        # one per shift per completed update, plus the final verification pass
        assert counter.matvec_complex == 2 * A.nnz * (int(rep.iters.sum()) + rep.m)

    @pytest.mark.parametrize("real", [True, False])
    def test_cocg_shift_alone_equals_shift_in_family(self, real):
        # N = 512 puts 32 shifts in one block; as neighbours deflate, shift 77
        # shares its block with different shifts from step to step
        A = generate_hamiltonian_analog(512, 8, seed=5, real=real)
        b = e1(512)
        family = 0.3 + 0.004 * np.arange(130) + 0.002j
        _, fam = solve_all(A, b, family, method="cocg", tol=1e-12, record_history=True)
        _, solo = solve_all(A, b, family[77:78], method="cocg", tol=1e-12, record_history=True)
        assert len(set(fam.iters)) > 1
        assert fam.history[77] == solo.history[0]
        assert fam.iters[77] == solo.iters[0]
        assert fam.final_rel_estimate[77] == solo.final_rel_estimate[0]

    @pytest.mark.parametrize("real_matrix", [True, False])
    @pytest.mark.parametrize("real_block", [True, False])
    def test_block_equals_row_by_row_calls(self, real_matrix, real_block):
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


class TestResidualEstimates:
    def test_real_path_returns_quasi_residual_scalar_exactly(self):
        rng = np.random.default_rng(20)
        M = rand_real_symmetric(20, rng)
        A = sparse_from(M)
        b = rng.standard_normal(20)
        checks = []

        def cb(n, states):
            for st in states:
                checks.append((st.res, abs(st.g)))

        solve_all(A, b, [0.2 + 0.4j, 0.8 + 0.1j], method="qmr-sym", tol=1e-13, callback=cb)
        assert checks
        for est, g in checks:
            assert est == g  # norm factor is exactly one on the real path

    def test_real_path_bidiagonal_estimate(self):
        rng = np.random.default_rng(21)
        A = sparse_from(rand_real_symmetric(20, rng))
        b = rng.standard_normal(20)
        checks = []

        def cb(n, states):
            for st in states:
                checks.append((st.res, abs(st.g)))

        solve_all(A, b, [0.3 + 0.2j], method="qmr-sym-b", tol=1e-13, callback=cb)
        for est, g in checks:
            assert est == g

    @pytest.mark.parametrize("method", ["qmr-sym", "qmr-sym-b", "qmr-sym-omega"])
    def test_estimate_tracks_explicit_residual(self, method):
        rng = np.random.default_rng(22)
        M = rand_complex_symmetric(12, rng)
        A = sparse_from(M)
        b = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        bnorm = np.linalg.norm(b)
        sigma = 0.25 + 0.15j
        rows = []

        def cb(n, states):
            st = states[0]
            rows.append((st.res, true_residual(A, sigma, b, st.x)))

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
        stq = make_shift_state(0.5j, "qmr-sym", rec.g1, v1, real_path=False)
        stb = make_shift_state(0.5j, "qmr-sym-b", rec.g1, v1, real_path=False)
        for k in range(3):
            args = (rec.alphas[k], 0.0 if k == 0 else rec.betas[k - 1], rec.betas[k])
            v, v_next = rec.vectors[:, k], rec.vectors[:, k + 1]
            qmr_sym_update(stq, *args, v=v, v_next=v_next)
            qmr_sym_b_update(stb, *args, v=v)
            tq = true_residual(A, 0.5j, b, stq.x)
            tb = true_residual(A, 0.5j, b, stb.x)
            assert abs(estimate_residual_qmr(stq) - tq) <= 1e-10 * tq
            assert abs(estimate_residual_qmr_b(stb, v_next) - tb) <= 1e-10 * tb

    def test_true_residual_trivia(self):
        A = sparse_from(np.array([[2.0]]))
        assert true_residual(A, 1.0, np.array([3.0]), np.array([1.0])) == 0.0
        b = np.array([3.0, 4.0])
        A2 = sparse_from(np.eye(2))
        assert true_residual(A2, 0.0, b, np.zeros(2)) == 5.0
        with pytest.raises(ValueError):
            true_residual(A2, 0.0, b, np.zeros(3))


class TestOmegaVariant:
    def test_shared_scaled_basis_vector_is_bit_identical(self):
        # solve_all divides v_{n+1} by omega_{n+1} once per step; calling
        # the update without it divides per shift, with the same result
        rng = np.random.default_rng(39)
        A = sparse_from(rand_complex_symmetric(12, rng))
        b = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        sigma = 0.3 + 0.2j
        rec = run_diagnostic(A, b, 8)
        omegas = [float(np.linalg.norm(rec.vectors[:, k])) for k in range(9)]
        st = make_shift_state(
            sigma, "qmr-sym-omega", rec.g1, rec.vectors[:, 0], real_path=False, omega1=omegas[0]
        )
        for k in range(8):
            qmr_sym_omega_update(
                st, rec.alphas[k], 0.0 if k == 0 else rec.betas[k - 1], rec.betas[k],
                rec.vectors[:, k], rec.vectors[:, k + 1],
                (1.0 if k == 0 else omegas[k - 1], omegas[k], omegas[k + 1]),
            )
        x, rep = solve_all(A, b, [sigma], method="qmr-sym-omega", tol=1e-30, max_iter=8)
        assert rep.iters[0] == 8
        assert np.array_equal(x[0], st.x)
        assert rep.final_rel_estimate[0] == estimate_residual_qmr(st) / rep.bnorm

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

        def cb(n, states):
            snaps.append(states[0].x.copy())

        solve_all(A, b, [sigma], method="qmr-sym-omega", tol=1e-16, max_iter=6, callback=cb)
        for n in range(1, 7):
            W = np.diag(omegas[: n + 1])
            y = brute_force_wqmr(rec.alphas[:n], rec.betas[:n], sigma, rec.g1, W=W)
            x_ref = rec.vectors[:, :n] @ y
            assert np.linalg.norm(snaps[n - 1] - x_ref) <= 1e-10 * max(np.linalg.norm(x_ref), 1.0)


class TestDriver:
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

            def cb(n, states, acc=trues):
                acc.append([true_residual(A, st.sigma, b, st.x) for st in states])

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

    def test_true_residual_verification_pass(self):
        rng = np.random.default_rng(30)
        A = sparse_from(rand_real_symmetric(12, rng))
        b = rng.standard_normal(12)
        x, rep = solve_all(A, b, [0.2 + 0.1j], method="qmr-sym", tol=1e-12, true_residuals=True)
        assert rep.final_rel_true is not None
        assert rep.final_rel_true[0] <= 10 * rep.tol

    def test_workers_do_not_change_results(self):
        rng = np.random.default_rng(31)
        A = sparse_from(rand_real_symmetric(20, rng))
        b = rng.standard_normal(20)
        shifts = [0.1 * k + 0.01j for k in range(1, 8)]
        x1, r1 = solve_all(A, b, shifts, method="qmr-sym-b", tol=1e-12, workers=1)
        x3, r3 = solve_all(A, b, shifts, method="qmr-sym-b", tol=1e-12, workers=3)
        assert np.array_equal(x1, x3)
        assert np.array_equal(r1.iters, r3.iters)
        assert np.array_equal(r1.final_rel_estimate, r3.final_rel_estimate)
        assert r1.flops.shift_update == r3.flops.shift_update

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
        with pytest.raises(ValueError, match="workers"):
            solve_all(A, b, [0.5], workers=0)


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

            def cb(k, states, cnt=counter, acc=marks):
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
