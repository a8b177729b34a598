import numpy as np
import pytest

from shiftkrylov import DenseOracle, SingularMatrixError, SparseSymMatrix, solve_all
from shiftkrylov.oracle import DEFAULT_CAP

from _reference import (
    brute_force_wqmr,
    build_elimination_weight,
    dense_tridiagonal,
    rand_complex_symmetric,
    run_diagnostic,
)


class TestDenseSolve:
    def test_identity_with_shift(self):
        x = DenseOracle(np.eye(2)).solve(1.0, np.array([2.0, 4.0]))
        assert np.allclose(x, [1.0, 2.0], rtol=1e-14)

    def test_permutation(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        x = DenseOracle(A).solve(0.0, np.array([1.0, 0.0]))
        assert np.allclose(x, [0.0, 1.0], rtol=1e-14)

    def test_residual_self_check(self):
        rng = np.random.default_rng(50)
        M = rand_complex_symmetric(50, rng)
        b = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        sigma = 0.3 + 0.2j
        x = DenseOracle(M).solve(sigma, b)
        r = b - M @ x - sigma * x
        assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(b)

    def test_singular_reports_pivot(self):
        with pytest.raises(SingularMatrixError, match="pivot magnitude"):
            DenseOracle(np.eye(3)).solve(-1.0, np.ones(3))

    def test_accepts_sparse_input(self):
        A = SparseSymMatrix.from_dense(np.diag([1.0, 2.0]))
        x = DenseOracle(A).solve(0.0, np.array([2.0, 2.0]))
        assert np.allclose(x, [2.0, 1.0], rtol=1e-14)


class TestDenseOracle:
    def test_refuses_above_cap(self):
        with pytest.raises(ValueError, match="cap"):
            DenseOracle(np.eye(DEFAULT_CAP + 1))
        with pytest.raises(ValueError, match="expected a square matrix"):
            DenseOracle(np.ones((2, 3)))

    def test_same_shift_solves_two_rhs(self):
        rng = np.random.default_rng(51)
        M = rand_complex_symmetric(10, rng)
        oracle = DenseOracle(M)
        b1 = rng.standard_normal(10)
        b2 = rng.standard_normal(10)
        x1 = oracle.solve(0.5j, b1)
        x2 = oracle.solve(0.5j, b2)
        assert np.linalg.norm(M @ x1 + 0.5j * x1 - b1) <= 1e-10 * np.linalg.norm(b1)
        assert np.linalg.norm(M @ x2 + 0.5j * x2 - b2) <= 1e-10 * np.linalg.norm(b2)


class TestDenseTridiagonal:
    def test_shape_and_entries(self):
        T = dense_tridiagonal([1.0, 2.0], [0.5, 0.25], sigma=1.0j)
        expected = np.array(
            [[1.0 + 1.0j, 0.5], [0.5, 2.0 + 1.0j], [0.0, 0.25]], dtype=complex
        )
        assert np.array_equal(T, expected)

    def test_square_form(self):
        T = dense_tridiagonal([1.0, 2.0], [0.5, 0.25], rectangular=False)
        assert np.array_equal(T, np.array([[1.0, 0.5], [0.5, 2.0]]))


class TestBruteForceWqmr:
    def test_single_column_is_variational_minimum(self):
        y = brute_force_wqmr([3.0], [4.0], 0.0, 1.0)
        T = dense_tridiagonal([3.0], [4.0], 0.0)
        rhs = np.array([1.0, 0.0])

        def cost(z):
            return np.linalg.norm(rhs - T @ np.array([z]))

        base = cost(y[0])
        for delta in (1e-6, -1e-6, 1e-6j, -1e-6j):
            assert cost(y[0] + delta) > base

    def test_identity_weight_matches_rotation_solver(self):
        rng = np.random.default_rng(52)
        M = rand_complex_symmetric(10, rng)
        A = SparseSymMatrix.from_dense(M)
        b = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        sigma = 0.4 + 0.3j
        rec = run_diagnostic(A, b, 10)
        snaps = []

        def cb(n, state):
            snaps.append(state.iterates([0])[0])

        solve_all(A, b, [sigma], method="qmr-sym", tol=1e-16, max_iter=10, callback=cb)
        for n in range(1, rec.steps + 1):
            y = brute_force_wqmr(rec.alphas[:n], rec.betas[:n], sigma, rec.g1)
            x_ref = rec.vectors[:, :n] @ y
            assert np.linalg.norm(snaps[n - 1] - x_ref) <= 1e-10 * max(np.linalg.norm(x_ref), 1.0)

    def test_elimination_weight_reproduces_galerkin_solution(self):
        rng = np.random.default_rng(53)
        M = rand_complex_symmetric(12, rng)
        A = SparseSymMatrix.from_dense(M)
        b = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        sigma = 0.2 + 0.1j
        rec = run_diagnostic(A, b, 8)
        for n in (3, 6, 8):
            L, _ = build_elimination_weight(rec.alphas[:n], rec.betas[:n], sigma)
            y = brute_force_wqmr(rec.alphas[:n], rec.betas[:n], sigma, rec.g1, W=L)
            Tn = dense_tridiagonal(rec.alphas[:n], rec.betas[:n], sigma, rectangular=False)
            e1 = np.zeros(n, dtype=complex)
            e1[0] = rec.g1
            y_gal = np.linalg.solve(Tn, e1)
            assert np.linalg.norm(y - y_gal) <= 1e-12 * max(np.linalg.norm(y_gal), 1.0)

    def test_rank_deficient_rejected(self):
        # alpha = beta = 0 in the first column makes T rank deficient
        with pytest.raises(ValueError, match="rank"):
            brute_force_wqmr([0.0], [0.0], 0.0, 1.0)

    def test_weight_shape_validated(self):
        with pytest.raises(ValueError, match="weight"):
            brute_force_wqmr([1.0], [0.5], 0.0, 1.0, W=np.eye(3))


class TestEliminationWeight:
    def test_unit_lower_triangular_exactly(self):
        rng = np.random.default_rng(54)
        alphas = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        betas = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        L, B = build_elimination_weight(alphas, betas, 0.3 + 0.2j)
        n1 = len(alphas) + 1
        assert L.shape == (n1, n1)
        assert np.all(np.diag(L) == 1.0)
        upper = np.triu_indices(n1, 1)
        assert np.all(L[upper] == 0.0)

    def test_eliminated_matrix_is_exactly_bidiagonal(self):
        rng = np.random.default_rng(55)
        alphas = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        betas = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        L, B = build_elimination_weight(alphas, betas, 0.1j)
        n = len(alphas)
        assert B.shape == (n + 1, n)
        # exact zeros below the diagonal, including the whole last row
        for i in range(n + 1):
            for j in range(n):
                if i > j:
                    assert B[i, j] == 0.0
                elif j > i + 1:
                    assert B[i, j] == 0.0
        assert np.all(B[n, :] == 0.0)

    def test_superdiagonal_carries_original_coupling(self):
        alphas = [2.0, 3.0, 4.0]
        betas = [0.5, 0.25, 0.125]
        L, B = build_elimination_weight(alphas, betas, 0.0)
        assert B[0, 1] == 0.5 and B[1, 2] == 0.25

    def test_product_identity_holds(self):
        rng = np.random.default_rng(56)
        alphas = rng.standard_normal(7)
        betas = rng.standard_normal(7)
        sigma = 0.4 + 0.25j
        L, B = build_elimination_weight(alphas, betas, sigma)
        T = dense_tridiagonal(alphas, betas, sigma)
        assert np.linalg.norm(L @ T - B) <= 1e-12 * np.linalg.norm(T)

    def test_zero_pivot_rejected(self):
        with pytest.raises(ValueError, match="pivot"):
            build_elimination_weight([0.0, 1.0], [1.0, 1.0], 0.0)
