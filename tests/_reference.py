"""Reference implementations used as test oracles.

Everything here except :func:`run_diagnostic` is dense arithmetic written
against numpy directly, on purpose sharing no kernels with the package under
test. :func:`run_diagnostic` drives the package's own ``lanczos_step`` and
keeps the whole basis, so that tests can check the factorization it builds
and feed its coefficients to the projected-problem oracles below.
"""

from dataclasses import dataclass

import numpy as np

from shiftkrylov.core import SparseSymMatrix
from shiftkrylov.lanczos import lanczos_init, lanczos_step


def rand_complex_symmetric(n, rng, diag_boost=1.2):
    """Well-conditioned random complex symmetric (not Hermitian) matrix.

    Entries are scaled so the spectrum sits in a unit-radius disk, then the
    diagonal is shifted by ``diag_boost`` to keep shifted systems far from
    singular.
    """
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    A = (G + G.T) / (2.0 * np.sqrt(2.0 * n))
    return A + diag_boost * np.eye(n)


def rand_real_symmetric(n, rng, diag_boost=1.2):
    G = rng.standard_normal((n, n))
    A = (G + G.T) / (2.0 * np.sqrt(2.0 * n))
    return A + diag_boost * np.eye(n)


def reference_lanczos(A, b, steps):
    """Plain dense-arithmetic complex symmetric Lanczos recurrence.

    Returns (alphas, betas, V) with V holding v_1 .. v_{k+1} as columns.
    Uses numpy's unconjugated ``dot`` throughout.
    """
    A = np.asarray(A)
    b = np.asarray(b)
    g1 = np.sqrt(np.dot(b, b).astype(complex))
    v = b / g1
    v_prev = np.zeros_like(v, dtype=complex)
    beta_prev = 0.0
    alphas, betas, vectors = [], [], [v]
    for _ in range(steps):
        Av = A @ v
        alpha = np.dot(v, Av)
        vt = Av - alpha * v - beta_prev * v_prev
        beta = np.sqrt(np.dot(vt, vt).astype(complex))
        if abs(beta) == 0.0:
            break
        v_prev, v = v, vt / beta
        beta_prev = beta
        alphas.append(alpha)
        betas.append(beta)
        vectors.append(v)
    return np.array(alphas), np.array(betas), np.column_stack(vectors)


def reference_cg(A, b, steps):
    """Textbook conjugate gradients for real SPD systems; returns the list of
    iterates x_1 .. x_k."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = r @ r
    iterates = []
    for _ in range(steps):
        Ap = A @ p
        alpha = rs / (p @ Ap)
        x = x + alpha * p
        r = r - alpha * Ap
        iterates.append(x.copy())
        rs_new = r @ r
        if np.sqrt(rs_new) < 1e-300:
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    return iterates


@dataclass
class LanczosRecord:
    """Full transcript of a diagnostic run: every coefficient and basis
    vector, for factorization and orthogonality checks at desk scale."""

    alphas: np.ndarray
    betas: np.ndarray
    vectors: np.ndarray  # shape (N, k+1): v_1 .. v_{k+1}
    next_norms: np.ndarray  # each step's published v_next_norm: ||v_2|| .. ||v_{k+1}||
    g1: complex
    bnorm2: float
    lucky_step: int | None = None

    @property
    def steps(self) -> int:
        return len(self.alphas)


def run_diagnostic(A: SparseSymMatrix, b, steps: int) -> LanczosRecord:
    """Run up to ``steps`` Lanczos steps keeping the whole basis.

    Stops early on lucky termination. Intended for verification only; memory
    grows as ``N * steps``.
    """
    state = lanczos_init(A, b)
    vectors = [state.v_curr]
    alphas, betas, next_norms = [], [], []
    lucky_step = None
    for _ in range(steps):
        step = lanczos_step(state, A)
        alphas.append(step.alpha)
        betas.append(step.beta)
        vectors.append(step.v_next)
        next_norms.append(step.v_next_norm)
        if step.lucky:
            lucky_step = step.n
            break
    return LanczosRecord(
        alphas=np.asarray(alphas),
        betas=np.asarray(betas),
        vectors=np.column_stack(vectors),
        next_norms=np.asarray(next_norms),
        g1=state.g1,
        bnorm2=state.bnorm2,
        lucky_step=lucky_step,
    )


def dense_tridiagonal(alphas, betas, sigma=0.0, rectangular: bool = True) -> np.ndarray:
    """Materialize the shifted projected matrix ``T_{n+1,n} + sigma [I; 0]``
    (or the square ``T_n + sigma I``) from Lanczos coefficients.

    ``alphas`` has length ``n``; ``betas`` holds ``beta_1 .. beta_n`` where
    the last entry is the subdiagonal of the extra row.
    """
    alphas = np.asarray(alphas)
    betas = np.asarray(betas)
    n = len(alphas)
    if len(betas) != n:
        raise ValueError("need one beta per step (the last one is the trailing subdiagonal)")
    dtype = np.result_type(alphas.dtype, betas.dtype, type(sigma), np.float64)
    rows = n + 1 if rectangular else n
    T = np.zeros((rows, n), dtype=dtype)
    for k in range(n):
        T[k, k] = alphas[k] + sigma
        if k + 1 < n:
            T[k, k + 1] = betas[k]
        if k + 1 < rows:
            T[k + 1, k] = betas[k]
    return T


def brute_force_wqmr(alphas, betas, sigma, g1, W=None) -> np.ndarray:
    """Solve the projected weighted least-squares problem explicitly.

    Materializes ``T = T_{n+1,n} + sigma [I; 0]`` and returns the ``y``
    minimizing ``|| W (g1 e1 - T y) ||_2`` via dense QR (``W = I`` when
    omitted). This is the step-by-step oracle for all recurrence-based
    solvers: identity weight checks the rotation method, the basis-norm
    diagonal checks the omega variant, and the elimination weight checks the
    bidiagonal method.
    """
    T = dense_tridiagonal(alphas, betas, sigma)
    n1, n = T.shape
    rhs = np.zeros(n1, dtype=np.result_type(T.dtype, type(g1)))
    rhs[0] = g1
    if W is not None:
        W = np.asarray(W)
        if W.shape != (n1, n1):
            raise ValueError(f"weight must be {n1}x{n1}")
        T = W @ T
        rhs = W @ rhs
    y, _, rank, _ = np.linalg.lstsq(T, rhs, rcond=None)
    if rank < n:
        raise ValueError(f"projected system is rank deficient (rank {rank} < {n})")
    return y


def build_elimination_weight(alphas, betas, sigma):
    """Accumulate the unit-lower-triangular eliminator that maps the shifted
    tridiagonal to upper bidiagonal form.

    Applies one elementary factor per column (``f_i`` chosen to zero the
    subdiagonal entry, which is then set to an exact zero) and accumulates
    the factors into ``L``. Returns ``(L, B)`` where ``B = L @ T`` is the
    ``(n+1) x n`` eliminated matrix: upper bidiagonal on top of an exactly
    zero last row.
    """
    T = dense_tridiagonal(alphas, betas, sigma)
    n1, n = T.shape
    B = T.astype(np.complex128, copy=True)
    L = np.eye(n1, dtype=np.complex128)
    for i in range(n):
        pivot = B[i, i]
        if pivot == 0:
            raise ValueError(f"zero pivot in column {i}")
        f = -B[i + 1, i] / pivot
        F = np.eye(n1, dtype=np.complex128)
        F[i + 1, i] = f
        B = F @ B
        B[i + 1, i] = 0.0
        L = F @ L
    return L, B
