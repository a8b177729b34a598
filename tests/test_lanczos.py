import cmath
import math

import numpy as np
import pytest

from shiftkrylov import BreakdownError, SparseSymMatrix
from shiftkrylov.core import _norm2, bilinear_dot, spmv
from shiftkrylov.lanczos import LanczosStep, lanczos_init, lanczos_step

from _reference import (
    dense_tridiagonal,
    rand_complex_symmetric,
    rand_real_symmetric,
    reference_lanczos,
    run_diagnostic,
)


class TestInit:
    def test_real_rhs(self):
        A = SparseSymMatrix.from_dense(np.eye(2))
        st = lanczos_init(A, np.array([3.0, 4.0]))
        assert st.g1 == 5.0
        assert np.allclose(st.v_curr, [0.6, 0.8], atol=0, rtol=1e-15)
        assert st.beta_prev == 0.0
        assert np.all(st.v_prev == 0.0)
        assert st.bnorm2 == 5.0

    @pytest.mark.parametrize("k", [-600, 600])
    def test_power_of_two_scale_keeps_v1(self, k):
        # b^T b overflowed at 2^600 and underflowed at 2^-600; the norm is
        # brought near [1/2, 1) before it is formed
        A = SparseSymMatrix.from_dense(np.eye(3))
        b = np.array([3.0 + 1.0j, -4.0, 0.5j])
        st0, st = lanczos_init(A, b), lanczos_init(A, b * 2.0**k)
        assert st.v_curr.tobytes() == st0.v_curr.tobytes()
        assert (st.g1, st.bnorm2, st.v_norms) == (st0.g1 * 2.0**k, st0.bnorm2 * 2.0**k, st0.v_norms)

    def test_principal_branch_forced(self):
        A = SparseSymMatrix.from_dense(np.eye(2))
        st = lanczos_init(A, np.array([1j, 0.0]))
        assert st.g1 == 1j
        assert np.allclose(st.v_curr, [1.0, 0.0], atol=1e-16)

    def test_negative_zero_imaginary_part_takes_the_principal_branch(self):
        # b^T b = -4 - 0j, where a bare cmath.sqrt gives -2j
        A = SparseSymMatrix.from_dense(np.array([[1.0 + 1.0j]]))
        b = np.array([complex(-0.0, 2.0)])
        btb = bilinear_dot(b, b)
        assert btb == -4.0 and math.copysign(1.0, btb.imag) == -1.0
        assert lanczos_init(A, b).g1 == 2j
        assert lanczos_init(A, np.array([1j])).g1 == 1j

    def test_real_rhs_has_a_real_nonnegative_root(self):
        A = SparseSymMatrix.from_dense(np.array([[2.0]]))
        st = lanczos_init(A, np.array([-3.0]))
        assert st.g1 == 3.0 and isinstance(st.g1, float)
        assert st.v_curr.tolist() == [-1.0]

    def test_complex_roots_have_nonnegative_real_part(self):
        rng = np.random.default_rng(3)
        A = SparseSymMatrix.from_dense(np.eye(3))
        for _ in range(200):
            b = rng.uniform(-5, 5, 3) + 1j * rng.uniform(-5, 5, 3)
            g1, btb = lanczos_init(A, b).g1, bilinear_dot(b, b)
            assert g1.real >= 0.0
            assert abs(g1 * g1 - btb) <= 1e-14 * abs(btb)

    def test_isotropic_rhs_breaks_down(self):
        A = SparseSymMatrix.from_dense(np.eye(2))
        with pytest.raises(BreakdownError, match="bilinear"):
            lanczos_init(A, np.array([1.0 + 1.0j, 1.0 - 1.0j]))

    def test_zero_rhs_rejected(self):
        A = SparseSymMatrix.from_dense(np.eye(2))
        with pytest.raises(ValueError, match="nonzero"):
            lanczos_init(A, np.zeros(2))

    def test_length_mismatch(self):
        A = SparseSymMatrix.from_dense(np.eye(2))
        with pytest.raises(ValueError):
            lanczos_init(A, np.ones(3))


class TestStep:
    def test_two_by_two_by_hand(self):
        A = SparseSymMatrix.from_dense(np.diag([1.0, 2.0]))
        st = lanczos_init(A, np.array([1.0, 1.0]))
        step = lanczos_step(st, A)
        assert step.n == 1
        assert abs(step.alpha - 1.5) <= 1e-15
        assert abs(step.beta - 0.5) <= 1e-15
        assert np.allclose(step.v_next, np.array([-1.0, 1.0]) / np.sqrt(2), rtol=1e-15)
        assert not step.lucky

    def test_step_record_is_immutable_and_built_by_keyword(self):
        A = SparseSymMatrix.from_dense(np.diag([1.0, 2.0]))
        step = lanczos_step(lanczos_init(A, np.array([1.0, 1.0])), A)
        fields = ("n", "alpha", "beta_prev", "beta", "v", "v_next", "v_next_norm", "lucky")
        again = LanczosStep(**{name: getattr(step, name) for name in fields})
        assert again == step and again.n == 1 and again.v is step.v
        with pytest.raises(AttributeError):
            step.alpha = 0.0

    def test_identity_terminates_after_one_step(self):
        A = SparseSymMatrix.from_dense(np.eye(5))
        rng = np.random.default_rng(0)
        st = lanczos_init(A, rng.standard_normal(5))
        step = lanczos_step(st, A)
        assert step.lucky and step.beta == 0.0
        assert abs(step.alpha - 1.0) <= 1e-15
        assert np.all(step.v_next == 0.0)
        assert st.finished
        with pytest.raises(RuntimeError):
            lanczos_step(st, A)

    def test_matches_dense_reference(self):
        rng = np.random.default_rng(1)
        M = rand_real_symmetric(20, rng)
        A = SparseSymMatrix.from_dense(M)
        b = np.zeros(20)
        b[0] = 1.0
        rec = run_diagnostic(A, b, 10)
        alphas, betas, V = reference_lanczos(M, b, 10)
        assert np.allclose(rec.alphas, alphas.real, rtol=1e-12, atol=0)
        assert np.allclose(rec.betas, betas.real, rtol=1e-12, atol=0)
        assert np.allclose(rec.vectors, V.real, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("real", [True, False])
    def test_in_place_step_equals_the_expression(self, real):
        # each step forms v~ in the matvec's array; earlier steps' vectors stay
        # as they were (diagnostic runs keep references to them)
        rng = np.random.default_rng(5)
        if real:
            A = SparseSymMatrix.from_dense(rand_real_symmetric(40, rng))
            b = rng.standard_normal(40)
        else:
            A = SparseSymMatrix.from_dense(rand_complex_symmetric(40, rng))
            b = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        st = lanczos_init(A, b)
        steps, copies = [], []
        for _ in range(20):
            v_prev, beta_prev = st.v_prev, st.beta_prev
            step = lanczos_step(st, A)
            Av = spmv(A, step.v)
            alpha = bilinear_dot(step.v, Av)
            vt = Av - alpha * step.v - beta_prev * v_prev
            vtv = bilinear_dot(vt, vt)
            beta = math.sqrt(vtv) if real else cmath.sqrt(vtv + 0j)  # the principal root
            assert not step.lucky
            assert complex(step.alpha) == complex(alpha) and complex(step.beta) == complex(beta)
            # a complex basis is normalized by a multiply with 1 / beta, a real one by a division
            expected = vt / beta if real else vt * (1 / beta)
            assert step.v_next.dtype == vt.dtype and step.v_next.tobytes() == expected.tobytes()
            # the published norm is ||v~|| / |beta|, a few ulps from the direct norm
            norm = _norm2(step.v_next)
            assert abs(step.v_next_norm - norm) <= 4 * np.spacing(norm)
            # v^T v = 1 up to roundings that scale with sum |v_i|^2 = ||v||^2, not with 1
            vtv_err = abs(bilinear_dot(step.v_next, step.v_next) - 1)
            assert vtv_err <= 8 * np.finfo(np.float64).eps * step.v_next_norm**2
            assert not np.shares_memory(step.v_next, step.v)
            steps.append(step)
            copies.append((step.v.copy(), step.v_next.copy()))
        for step, (v, v_next) in zip(steps, copies):
            assert step.v.tobytes() == v.tobytes() and step.v_next.tobytes() == v_next.tobytes()

    def test_serious_breakdown_detected(self):
        # A e_1 has an isotropic off-diagonal part: v~_2 = (0, 1, i) with
        # v~^T v~ = 0 but norm sqrt(2)
        M = np.array(
            [[0.0, 1.0, 1.0j], [1.0, 0.0, 0.0], [1.0j, 0.0, 0.0]], dtype=complex
        )
        A = SparseSymMatrix.from_dense(M)
        st = lanczos_init(A, np.array([1.0 + 0j, 0.0, 0.0]))
        with pytest.raises(BreakdownError, match="bilinear"):
            lanczos_step(st, A)


class TestInvariants:
    def test_bilinear_normalization(self):
        rng = np.random.default_rng(2)
        A = SparseSymMatrix.from_dense(rand_complex_symmetric(24, rng))
        rec = run_diagnostic(A, rng.standard_normal(24) + 1j * rng.standard_normal(24), 20)
        for k in range(1, rec.vectors.shape[1]):
            v = rec.vectors[:, k]
            assert abs(bilinear_dot(v, v) - 1.0) <= 1e-12

    def test_bilinear_orthogonality_at_desk_scale(self):
        # 30 steps on a 120-dim well-conditioned matrix: the subspace has not
        # collapsed yet, so near-orthogonality must still hold (later loss is
        # expected and deliberately not asserted)
        rng = np.random.default_rng(3)
        A = SparseSymMatrix.from_dense(rand_complex_symmetric(120, rng))
        b = rng.standard_normal(120) + 1j * rng.standard_normal(120)
        rec = run_diagnostic(A, b, 30)
        V = rec.vectors
        G = V.T @ V  # bilinear Gram matrix
        off = G - np.diag(np.diag(G))
        assert np.max(np.abs(off)) <= 1e-8

    def test_three_term_factorization(self):
        rng = np.random.default_rng(4)
        M = rand_complex_symmetric(36, rng)
        A = SparseSymMatrix.from_dense(M)
        b = rng.standard_normal(36) + 1j * rng.standard_normal(36)
        rec = run_diagnostic(A, b, 30)
        n = rec.steps
        Vn = rec.vectors[:, :n]
        Tn = dense_tridiagonal(rec.alphas, rec.betas, rectangular=False)
        resid = M @ Vn - Vn @ Tn
        resid[:, -1] -= rec.betas[-1] * rec.vectors[:, n]
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(M)

    def test_rectangular_factorization(self):
        rng = np.random.default_rng(5)
        M = rand_complex_symmetric(30, rng)
        A = SparseSymMatrix.from_dense(M)
        b = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        rec = run_diagnostic(A, b, 25)
        n = rec.steps
        T = dense_tridiagonal(rec.alphas, rec.betas, rectangular=True)
        assert np.linalg.norm(M @ rec.vectors[:, :n] - rec.vectors @ T) <= 1e-10 * np.linalg.norm(M)

    def test_shift_invariance(self):
        rng = np.random.default_rng(6)
        M = rand_real_symmetric(25, rng)
        A = SparseSymMatrix.from_dense(M)
        sigma = 0.7 + 0.3j
        b = rng.standard_normal(25)
        rec = run_diagnostic(A, b, 15)
        shifted = SparseSymMatrix.from_dense(M + sigma * np.eye(25))
        rec_s = run_diagnostic(shifted, b.astype(complex), 15)
        assert np.allclose(rec_s.vectors, rec.vectors, rtol=0, atol=1e-12)
        assert np.allclose(rec_s.betas, rec.betas, rtol=1e-12, atol=1e-14)
        assert np.allclose(rec_s.alphas - sigma, rec.alphas, rtol=1e-12, atol=1e-14)

    def test_real_problem_stays_in_real_arithmetic(self):
        rng = np.random.default_rng(7)
        A = SparseSymMatrix.from_dense(rand_real_symmetric(18, rng))
        rec = run_diagnostic(A, rng.standard_normal(18), 12)
        assert rec.vectors.dtype == np.float64
        assert rec.alphas.dtype == np.float64
        assert rec.betas.dtype == np.float64

    def test_lucky_termination_on_invariant_subspace(self):
        # block-diagonal matrix, rhs inside the leading 3x3 block
        M = np.zeros((6, 6))
        M[:3, :3] = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 1.0]])
        M[3:, 3:] = np.diag([5.0, 6.0, 7.0])
        A = SparseSymMatrix.from_dense(M)
        b = np.array([1.0, 2.0, 0.5, 0.0, 0.0, 0.0])
        rec = run_diagnostic(A, b, 10)
        assert rec.lucky_step == 3
        assert rec.steps == 3
        assert rec.next_norms[-1] == 0.0
