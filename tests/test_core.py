import cmath
import itertools

import numpy as np
import pytest
import scipy.sparse

from shiftkrylov import FlopCounter, ShiftSet, SparseSymMatrix, core, true_residual
from shiftkrylov.core import EntryError, bilinear_dot, principal_sqrt, spmv

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
        for n in (1, 2, 17, 100, 513, 8193, 20000):
            u = rng.standard_normal(n)
            v = rng.standard_normal(n)
            real = bilinear_dot(u, v)
            cplx = bilinear_dot(u.astype(complex), v.astype(complex))
            assert cplx.real == real
            assert cplx.imag == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            bilinear_dot(np.ones(3), np.ones(4))

    def test_symmetric_in_arguments_bitwise_across_chunks(self):
        # lengths around the BLAS chunk of 8,192 entries and beyond
        # OpenBLAS's threading bound of 10,000
        rng = np.random.default_rng(13)
        for n in (*range(1, 65), 8191, 8192, 8193, 16384, 20000):
            u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            uv, vu = bilinear_dot(u, v), bilinear_dot(v, u)
            assert (uv.real, uv.imag) == (vu.real, vu.imag), n
            assert abs(uv - np.sum(u * v)) <= 1e-12 * np.sum(np.abs(u * v)), n

    def test_zero_imaginary_part_takes_the_exact_path(self, monkeypatch):
        # zdotu of the isotropic pair has an exactly zero imaginary part, so
        # the product is expanded and reduced by the real kernel instead
        reduced, sum_all = [], core._sum_all
        monkeypatch.setattr(core, "_sum_all", lambda x: reduced.append(x) or sum_all(x))
        u = np.array([1.0 + 1.0j, 1.0 - 1.0j])
        assert np.dot(u, u).imag == 0.0
        assert bilinear_dot(u, u) == 0.0 and len(reduced) == 4
        reduced.clear()
        assert bilinear_dot(u, np.array([1.0, 0.0])) == 1.0 + 1.0j and reduced == []

    def test_nan_entry_gives_nan(self):
        for n in (5, 20000):
            u = np.ones(n, dtype=complex)
            u[n // 2] = complex(np.nan, 1.0)
            assert cmath.isnan(bilinear_dot(u, np.ones(n, dtype=complex)))
            assert cmath.isnan(bilinear_dot(np.ones(n, dtype=complex), u))


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


def tight_binding_lattice(L, disorder, seed, cap_layers=0):
    """Full-pattern triplets of a 3-D nearest-neighbour lattice: hopping -1,
    seeded on-site energies, and ``+iV`` on the outer ``cap_layers`` layers
    (complex) when ``cap_layers > 0``."""
    n = L**3
    idx = np.arange(n).reshape(L, L, L)
    rows, cols = [], []
    for axis in range(3):
        lo = np.take(idx, np.arange(L - 1), axis=axis).ravel()
        hi = np.take(idx, np.arange(1, L), axis=axis).ravel()
        rows += [lo, hi]
        cols += [hi, lo]
    onsite = np.random.default_rng(seed).uniform(-disorder / 2, disorder / 2, n)
    if cap_layers:
        coord = np.indices((L, L, L)).reshape(3, -1)
        depth = np.minimum(coord, L - 1 - coord).min(axis=0)
        onsite = onsite + 1j * np.clip((cap_layers - depth) / cap_layers, 0.0, None) ** 2
    nhop = sum(len(r) for r in rows)
    vals = np.concatenate([np.full(nhop, -1.0, dtype=onsite.dtype), onsite])
    return n, np.concatenate(rows + [np.arange(n)]), np.concatenate(cols + [np.arange(n)]), vals


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
        # a complex matrix with a real vector
        assert np.max(np.abs(spmv(A, v.real) - M @ v.real)) <= 1e-14

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
        # a real matrix keeps a complex vector in real arithmetic
        w = v + 1j * rng.standard_normal(30)
        assert np.array_equal(spmv(A, w), spmv(A, w.real) + 1j * spmv(A, w.imag))

    def test_empty_rows_give_exact_zeros(self):
        A = SparseSymMatrix.from_coo(3, [0, 2], [0, 2], [1.5, 2.5])
        out = spmv(A, np.array([1.0, 7.0, 2.0]))
        assert np.array_equal(out, np.array([1.5, 0.0, 5.0]))

    @pytest.mark.parametrize("complex_matrix", [False, True])
    def test_any_layout_gives_the_contiguous_result(self, complex_matrix):
        rng = np.random.default_rng(6)
        A, M = dense_pair(25, rng)
        if not complex_matrix:
            A = SparseSymMatrix.from_dense(M.real)
        w = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        for v in (w[::2], w.real[::2], w[:25].imag):  # strided views
            assert not v.flags.c_contiguous
            assert np.array_equal(spmv(A, v), spmv(A, v.copy()))
        frozen = w[:25].copy()
        frozen.setflags(write=False)
        assert np.array_equal(spmv(A, frozen), spmv(A, w[:25].copy()))

    @pytest.mark.parametrize("complex_matrix", [False, True])
    @pytest.mark.parametrize("complex_vector", [False, True])
    def test_block_residual_product_equals_spmv(self, complex_matrix, complex_vector):
        # one kernel, one answer: with b = spmv(A, x_0) and sigma = 0, row 0
        # of a block residual is exactly zero only if the block product
        # reproduces spmv's column bit for bit (rows here hold 30 entries)
        rng = np.random.default_rng(7)
        A, M = dense_pair(30, rng)
        if not complex_matrix:
            A = SparseSymMatrix.from_dense(M.real)
        X = rng.standard_normal((3, 30))
        if complex_vector:
            X = X + 1j * rng.standard_normal((3, 30))
        res = true_residual(A, np.zeros(3), spmv(A, X[0]), X)
        assert res[0] == 0.0
        assert np.all(res[1:] > 0.0)

    # a vector runs SciPy's csr_matvec and an (N, k) block its csr_matvecs; a
    # real matrix takes a complex operand as its float64 view with twice the
    # columns. The reference is SciPy's own product over the matrix's arrays
    @pytest.mark.parametrize("layout", ["contiguous", "strided", "read-only", "F-ordered"])
    @pytest.mark.parametrize("kind", ["real", "complex", "real matrix, complex vector",
                                      "complex matrix, real vector"])
    def test_same_bits_and_dtype_as_the_csr_product(self, kind, layout):
        rng = np.random.default_rng(8)
        A, M = dense_pair(300, rng)
        if kind.startswith("real"):
            A = SparseSymMatrix.from_dense(M.real)
        csr = scipy.sparse.csr_array((A.data, A.indices, A.indptr), shape=(300, 300))
        for k in (None, 1, 2, 32):  # a vector, then blocks of k columns
            shape = (600,) if k is None else (600, k)
            w = rng.standard_normal(shape)
            if kind in ("complex", "real matrix, complex vector"):
                w = w + 1j * rng.standard_normal(shape)
            order = "F" if layout == "F-ordered" else "C"
            v = w[::2] if layout == "strided" else w[:300].copy(order=order)
            v.setflags(write=layout != "read-only")
            dense = np.ascontiguousarray(v)
            if kind == "real matrix, complex vector":
                ref = csr @ dense.view(np.float64).reshape(300, -1)
                ref = ref.view(np.complex128).reshape(v.shape)
            else:
                ref = csr @ dense
            for out in [core._csr_product(A, v)] + ([spmv(A, v)] if k is None else []):
                assert out.dtype == ref.dtype and out.shape == v.shape
                assert out.tobytes() == ref.tobytes()

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
        # a complex matrix times a real vector runs, and is charged, in complex arithmetic
        Z = SparseSymMatrix.from_dense(np.diag([1.0, 2.0, 1j]))
        spmv(Z, np.ones(3), counter=c)
        assert (c.matvec_real, c.matvec_complex) == (2 * A.nnz, 2 * A.nnz + 2 * Z.nnz)


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

    def test_entry_error_names_the_entry(self):
        with pytest.raises(EntryError, match=r"duplicate entry \(1,2\)") as exc:
            SparseSymMatrix.from_coo(3, [0, 1, 1, 2], [0, 2, 2, 1], [1.0, 2.0, 2.0, 2.0])
        assert (exc.value.row, exc.value.col) == (1, 2)
        with pytest.raises(EntryError, match=r"not symmetric at entry \(0,1\)") as exc:
            SparseSymMatrix.from_coo(2, [0, 0, 1, 1], [0, 1, 0, 1], [1.0, 2.0, 3.0, 1.0])
        assert (exc.value.row, exc.value.col) == (0, 1)
        assert isinstance(exc.value, ValueError)
        # (1,2) and (2,1) mirror each other; (2,0) is the entry without a mirror
        with pytest.raises(EntryError) as exc:
            SparseSymMatrix.from_coo(3, [1, 2, 2], [2, 0, 1], [1.0, 1.0, 1.0])
        assert (exc.value.row, exc.value.col) == (2, 0)

    @pytest.mark.parametrize(
        "n, rows, cols, values, what, entry",
        [
            (3, [0, 1, 1, 2], [0, 2, 2, 1], [1.0, 2.0, 2.0, 2.0], "duplicate entry", (1, 2)),
            (2, [0, 0, 0], [0, 0, 1], [1.0, 1.0, 2.0], "duplicate entry", (0, 0)),
            (2, [0, 0, 1, 1], [0, 1, 0, 1], [1.0, 2.0, 3.0, 1.0], "not symmetric at entry", (0, 1)),
            (3, [1, 2, 2], [2, 0, 1], [1.0, 1.0, 1.0], "not symmetric at entry", (2, 0)),
            (2, [0, 0], [0, 1], [1.0, 2.0], "not symmetric at entry", (0, 1)),
        ],
    )
    def test_entry_error_names_the_first_entry_in_any_input_order(self, n, rows, cols, values,
                                                                    what, entry):
        # the cases of the tests above, in every order of their triplets
        for order in itertools.permutations(range(len(rows))):
            order = list(order)
            with pytest.raises(EntryError, match=rf"{what} \({entry[0]},{entry[1]}\)") as exc:
                SparseSymMatrix.from_coo(n, np.take(rows, order), np.take(cols, order),
                                         np.take(values, order))
            assert (exc.value.row, exc.value.col) == entry

    @pytest.mark.parametrize("cap_layers", [0, 2], ids=["real", "complex"])
    def test_shuffled_triplets_give_the_same_bytes(self, cap_layers):
        n, rows, cols, vals = tight_binding_lattice(10, 1.0, 42, cap_layers)
        A = SparseSymMatrix.from_coo(n, rows, cols, vals)
        assert A.is_real == (cap_layers == 0)
        for seed in range(3):
            p = np.random.default_rng(seed).permutation(len(rows))
            B = SparseSymMatrix.from_coo(n, rows[p], cols[p], vals[p])
            for name in ("indptr", "indices", "data"):
                a, b = getattr(A, name), getattr(B, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SparseSymMatrix.from_coo(2, [0, 2], [0, 2], [1.0, 1.0])
        with pytest.raises(ValueError, match="rows/cols/values length mismatch"):
            SparseSymMatrix.from_coo(2, [0, 1], [0], [1.0, 1.0])

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            SparseSymMatrix(0, [0], [], [])
        with pytest.raises(ValueError, match="dimension must be >= 1, got 0"):
            SparseSymMatrix.from_coo(0, [], [], [])
        with pytest.raises(ValueError, match="dense input must be square"):
            SparseSymMatrix.from_dense(np.ones((2, 3)))

    @pytest.mark.parametrize("args, message", [
        ((2, [0, 1], [0], [1.0]), "malformed indptr"),
        ((2, [0, 2, 1], [0], [1.0]), "indptr must be non-decreasing"),
        ((2, [0, 1, 2], [0, 1], [1.0]), "indices/data length mismatch"),
        ((2, [0, 1, 2], [0, 2], [1.0, 1.0]), "column index out of range"),
        ((2, [0, 2, 4], [1, 0, 0, 1], [1.0, 1.0, 1.0, 1.0]),
         r"row 0: column indices not strictly increasing \(unsorted\)"),
    ], ids=["indptr-shape", "indptr-decreasing", "length", "column-range", "unsorted"])
    def test_rejects_malformed_csr(self, args, message):
        with pytest.raises(ValueError, match=message):
            SparseSymMatrix(*args)

    def test_real_normalization(self):
        A = SparseSymMatrix.from_coo(2, [0, 1], [0, 1], np.array([1.0 + 0j, 2.0 + 0j]))
        assert A.is_real and A.data.dtype == np.float64
        B = SparseSymMatrix.from_coo(2, [0, 1], [0, 1], np.array([1.0 + 1j, 2.0 + 1j]))
        assert not B.is_real and B.data.dtype == np.complex128

    def test_round_trip_dense(self):
        rng = np.random.default_rng(2)
        A, M = dense_pair(12, rng)
        assert np.array_equal(A.to_dense(), M)


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
        c.add_matvec(2, real=True)
        assert (c.matvec_real, c.shift_update, c.least_squares) == (4, 10, 3)
        assert c.matvec == 4
        snap = c.snapshot()
        c.add_shift_update(5)
        assert c.shift_update == 15 and snap.shift_update == 10
