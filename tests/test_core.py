import numpy as np
import pytest

from shiftkrylov import (
    FlopCounter,
    ShiftSet,
    SparseSymMatrix,
    bilinear_dot,
    principal_sqrt,
    spmv,
)

from _reference import rand_complex_symmetric


class TestBilinearDot:
    def test_imaginary_self_product_is_negative(self):
        u = np.array([1j, 0.0])
        assert bilinear_dot(u, u) == -1.0 + 0.0j

    def test_real_vectors(self):
        assert bilinear_dot(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0

    def test_isotropic_vector_vanishes(self):
        u = np.array([1.0 + 1.0j, 1.0 - 1.0j])
        assert bilinear_dot(u, u) == 0.0

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(7)
        u = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        v = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        assert bilinear_dot(u, v) == bilinear_dot(v, u)

    def test_real_and_complex_paths_agree_bitwise(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 17, 100, 513):
            u = rng.standard_normal(n)
            v = rng.standard_normal(n)
            real = bilinear_dot(u, v)
            cplx = bilinear_dot(u.astype(complex), v.astype(complex))
            assert cplx.real == real
            assert cplx.imag == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            bilinear_dot(np.ones(3), np.ones(4))


class TestPrincipalSqrt:
    def test_negative_real_maps_to_positive_imaginary(self):
        assert principal_sqrt(-1.0 + 0.0j) == 1j
        assert principal_sqrt(complex(-4.0, -0.0)) == 2j
        assert principal_sqrt(-9.0) == 3j

    def test_real_nonnegative_stays_real(self):
        r = principal_sqrt(4.0)
        assert r == 2.0 and isinstance(r, float)

    def test_principal_branch_has_nonnegative_real_part(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            s = principal_sqrt(z)
            assert s.real >= 0.0
            assert abs(s * s - z) <= 1e-14 * max(abs(z), 1.0)


def dense_pair(n, rng):
    M = rand_complex_symmetric(n, rng)
    return SparseSymMatrix.from_dense(M), M


class TestSpmv:
    def test_identity(self):
        A = SparseSymMatrix.from_dense(np.eye(2))
        out = spmv(A, np.array([3.0, 4.0j]))
        assert np.array_equal(out, np.array([3.0, 4.0j]))

    def test_permutation(self):
        A = SparseSymMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.array_equal(spmv(A, np.array([1.0, 2.0])), np.array([2.0, 1.0]))

    @pytest.mark.parametrize("n", [10, 37, 100])
    def test_matches_dense_product(self, n):
        rng = np.random.default_rng(n)
        A, M = dense_pair(n, rng)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.max(np.abs(spmv(A, v) - M @ v)) <= 1e-14

    def test_real_and_complex_paths_agree_bitwise(self):
        rng = np.random.default_rng(5)
        M = np.triu(rng.standard_normal((30, 30)))
        M = M + np.triu(M, 1).T
        A = SparseSymMatrix.from_dense(M)
        v = rng.standard_normal(30)
        real = spmv(A, v)
        cplx = spmv(A, v.astype(complex))
        assert np.array_equal(cplx.real, real)
        assert np.all(cplx.imag == 0.0)

    def test_empty_rows_give_exact_zeros(self):
        A = SparseSymMatrix.from_coo(3, [0, 2], [0, 2], [1.5, 2.5])
        out = spmv(A, np.array([1.0, 7.0, 2.0]))
        assert np.array_equal(out, np.array([1.5, 0.0, 5.0]))

    def test_dimension_mismatch(self):
        A = SparseSymMatrix.from_dense(np.eye(3))
        with pytest.raises(ValueError):
            spmv(A, np.ones(4))

    def test_counter_split_by_arithmetic(self):
        A = SparseSymMatrix.from_dense(np.eye(3))
        c = FlopCounter()
        spmv(A, np.ones(3), counter=c)
        assert c.matvec_real == 2 * A.nnz and c.matvec_complex == 0
        spmv(A, np.ones(3, dtype=complex), counter=c)
        assert c.matvec_complex == 2 * A.nnz


class TestSparseSymMatrix:
    def test_rejects_numeric_asymmetry(self):
        with pytest.raises(ValueError, match="symmetric"):
            SparseSymMatrix.from_coo(2, [0, 0, 1, 1], [0, 1, 0, 1], [1.0, 2.0, 3.0, 1.0])

    def test_rejects_non_finite_entry_before_symmetry(self):
        # a mirrored NaN pair is symmetric in pattern and position, but
        # NaN != NaN: it must be reported as non-finite, not as asymmetric
        nan = float("nan")
        with pytest.raises(ValueError, match=r"non-finite entry nan at \(0,1\)"):
            SparseSymMatrix.from_coo(2, [0, 0, 1, 1], [0, 1, 0, 1], [1.0, nan, nan, 1.0])
        with pytest.raises(ValueError, match="non-finite"):
            SparseSymMatrix.from_dense(np.diag([1.0, complex(0.0, float("inf"))]))

    def test_rejects_structural_asymmetry(self):
        with pytest.raises(ValueError, match="symmetric"):
            SparseSymMatrix.from_coo(2, [0, 0], [0, 1], [1.0, 2.0])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            SparseSymMatrix.from_coo(2, [0, 0, 0], [0, 0, 1], [1.0, 1.0, 2.0])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SparseSymMatrix.from_coo(2, [0, 2], [0, 2], [1.0, 1.0])

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            SparseSymMatrix(0, [0], [], [])

    def test_real_normalization(self):
        A = SparseSymMatrix.from_coo(2, [0, 1], [0, 1], np.array([1.0 + 0j, 2.0 + 0j]))
        assert A.is_real and A.data.dtype == np.float64
        B = SparseSymMatrix.from_coo(2, [0, 1], [0, 1], np.array([1.0 + 1j, 2.0 + 1j]))
        assert not B.is_real and B.data.dtype == np.complex128

    def test_round_trip_dense(self):
        rng = np.random.default_rng(2)
        A, M = dense_pair(12, rng)
        assert np.array_equal(A.to_dense(), M)

    def test_shifted_adds_to_diagonal(self):
        rng = np.random.default_rng(4)
        A, M = dense_pair(6, rng)
        sigma = 0.3 + 0.7j
        assert np.allclose(A.shifted(sigma).to_dense(), M + sigma * np.eye(6), atol=0, rtol=0)

    def test_shifted_fills_missing_diagonal(self):
        A = SparseSymMatrix.from_coo(2, [0, 1], [1, 0], [1.0, 1.0])
        S = A.shifted(2.0)
        assert np.array_equal(S.to_dense(), np.array([[2.0, 1.0], [1.0, 2.0]]))


class TestShiftSet:
    def test_needs_at_least_one(self):
        with pytest.raises(ValueError):
            ShiftSet(np.array([], dtype=complex))

    def test_duplicates_allowed(self):
        s = ShiftSet(np.array([1.0, 1.0, 2.0 + 1j]))
        assert s.m == 3 and s[0] == s[1]

    def test_iteration_order(self):
        s = ShiftSet(np.array([3.0, 1.0, 2.0]))
        assert [z.real for z in s] == [3.0, 1.0, 2.0]


class TestFlopCounter:
    def test_accumulates_and_merges(self):
        c = FlopCounter()
        c.add_shift_update(10)
        c.add_least_squares(3)
        d = FlopCounter(matvec_real=4)
        c.merge(d)
        assert (c.matvec_real, c.shift_update, c.least_squares) == (4, 10, 3)
        assert c.matvec == 4
        snap = c.snapshot()
        c.reset()
        assert c.matvec == 0 and snap.shift_update == 10
