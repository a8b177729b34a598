"""The benchmark's workloads: seeded inputs, their files and their set-up.

Each workload keeps its own copy of the problem (the matrix as triplets, the
right-hand side and the shifts), made with NumPy alone. The program receives
only the generated inputs, through the same entry points a user would call,
and the correctness checks in ``checks.py`` read the benchmark's copy, never
the program's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

METHODS = ("qmr-sym", "qmr-sym-b", "qmr-sym-omega", "cocg")


@dataclass
class Problem:
    """The benchmark's own copy of one workload's inputs."""

    n: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    b: np.ndarray
    shifts: np.ndarray
    tol: float
    real: bool  # A real symmetric, so A + sigma I is normal for every shift
    inputs: dict = field(default_factory=dict)  # input files, generator seed


def tight_binding_lattice(L: int, disorder: float, seed: int, cap_layers: int = 0):
    """3-D nearest-neighbour tight-binding Hamiltonian on an ``L^3`` cube.

    Hopping ``-1`` between neighbours, open boundaries, Anderson on-site
    energies uniform in ``[-W/2, W/2]`` drawn from ``seed``. With
    ``cap_layers > 0`` a complex absorbing potential ``+i V(d)`` is added on
    the outer layers, ``V(d) = ((cap_layers - d) / cap_layers)^2`` for the
    site's distance ``d`` to the surface, so it ramps quadratically up to 1
    and ``A`` becomes complex symmetric. Returns full-pattern triplets.
    """
    n = L**3
    idx = np.arange(n).reshape(L, L, L)
    rows, cols = [], []
    for axis in range(3):
        lo = np.take(idx, np.arange(L - 1), axis=axis).ravel()
        hi = np.take(idx, np.arange(1, L), axis=axis).ravel()
        rows += [lo, hi]
        cols += [hi, lo]
    nhop = sum(len(r) for r in rows)
    onsite = np.random.default_rng(seed).uniform(-disorder / 2, disorder / 2, n)
    if cap_layers:
        coord = np.indices((L, L, L)).reshape(3, -1)
        depth = np.minimum(coord, L - 1 - coord).min(axis=0)
        ramp = np.clip((cap_layers - depth) / cap_layers, 0.0, None) ** 2
        onsite = onsite + 1j * ramp
    rows.append(np.arange(n))
    cols.append(np.arange(n))
    vals = np.concatenate([np.full(nhop, -1.0, dtype=onsite.dtype), onsite])
    return n, np.concatenate(rows), np.concatenate(cols), vals


def centre_site(L: int) -> np.ndarray:
    b = np.zeros(L**3)
    c = L // 2
    b[(c * L + c) * L + c] = 1.0
    return b


def write_pairs(path: Path, shifts: np.ndarray) -> None:
    """Shift file of ``re im`` lines with round-trip-exact decimals."""
    path.write_text("".join(f"{float(s.real)!r} {float(s.imag)!r}\n" for s in shifts))


def write_lower_mtx(path: Path, n, rows, cols, vals) -> None:
    """Matrix Market ``complex symmetric`` file of the lower triangle."""
    keep = rows >= cols
    r, c, v = rows[keep] + 1, cols[keep] + 1, vals[keep]
    order = np.lexsort((r, c))
    lines = [f"%%MatrixMarket matrix coordinate complex symmetric\n{n} {n} {len(v)}\n"]
    lines += [f"{i} {j} {float(z.real)!r} {float(z.imag)!r}\n" for i, j, z in zip(r[order], c[order], v[order])]
    path.write_text("".join(lines))


class DeskSweep:
    """The README's sweep: ``generate_hamiltonian_analog(512, 34, seed)``,
    ``e_1``, 1001 shifts ``0.4 + 0.001(l-1) + 0.001i`` from a ``range``
    shift file, ``tol = 1e-12``."""

    name = "desk-sweep"
    # repeats of each method in one round: the sub-second solves run several
    # times so each run's mean rests on more than one sample
    reps = {"qmr-sym": 3, "qmr-sym-b": 5, "qmr-sym-omega": 2, "cocg": 1}
    setup_reps = 3  # set-up repetitions before each solve
    # program functions the set-up and each method are expected to call
    setup_calls = ("cli.generate_hamiltonian_analog", "core.from_coo", "io.read_shifts")
    source = "cli.generate_hamiltonian_analog"  # the function that makes the matrix

    def make(self, seed: int, workdir: Path) -> Problem:
        from shiftkrylov.cli import generate_hamiltonian_analog

        # the generator is program code, so the benchmark's copy of the
        # matrix is taken from one untimed call and pinned by its triplets
        A = generate_hamiltonian_analog(512, 34, seed)
        rows = np.repeat(np.arange(A.n), np.diff(A.indptr))
        b = np.zeros(512)
        b[0] = 1.0
        shifts = (0.4 + np.arange(1001, dtype=np.float64) * 0.001) + 1j * 0.001
        shift_file = workdir / "desk.shifts"
        shift_file.write_text("range 0.4 0.001 0.001 1001\n")
        return Problem(
            512, rows, A.indices.copy(), A.data.copy(), b, shifts, 1e-12, True,
            {"shifts": shift_file, "seed": seed},
        )

    def setup(self, sk, problem: Problem):
        A = sk.cli.generate_hamiltonian_analog(512, 34, problem.inputs["seed"])
        return A, sk.io.read_shifts(problem.inputs["shifts"])


class LatticeBand:
    """3-D lattice, ``L = 12`` (N = 1728, real), disorder ``W = 1``, centre
    site source, 40 energies over ``[-6, 6]`` with ``+0.1i``,
    ``tol = 1e-10``; built with ``SparseSymMatrix.from_coo``."""

    name = "lattice-band"
    reps = {"qmr-sym": 1, "qmr-sym-b": 2, "qmr-sym-omega": 1, "cocg": 1}
    setup_reps = 10
    setup_calls = ("core.from_coo", "io.read_shifts")
    source = "core.from_coo"

    def make(self, seed: int, workdir: Path) -> Problem:
        n, rows, cols, vals = tight_binding_lattice(12, 1.0, seed)
        shifts = np.linspace(-6.0, 6.0, 40) + 0.1j
        shift_file = workdir / "band.shifts"
        write_pairs(shift_file, shifts)
        return Problem(n, rows, cols, vals, centre_site(12), shifts, 1e-10, True,
                       {"shifts": shift_file})

    def setup(self, sk, problem: Problem):
        A = sk.core.SparseSymMatrix.from_coo(problem.n, problem.rows, problem.cols, problem.vals)
        return A, sk.io.read_shifts(problem.inputs["shifts"])


class AbsorbingLarge:
    """The same lattice at ``L = 24`` (N = 13,824) with ``W = 1`` and a
    ``+iV`` absorbing potential on the outer 4 layers, centre site source,
    6 energies over ``[-6, 6]`` with ``+0.1i``, ``tol = 1e-10``; read with
    ``read_matrix_market`` from a file written before timing."""

    name = "absorbing-large"
    reps = {"qmr-sym": 1, "qmr-sym-b": 1, "qmr-sym-omega": 1, "cocg": 1}
    setup_reps = 1
    setup_calls = ("io.read_matrix_market", "core.from_coo", "io.read_shifts")
    source = "io.read_matrix_market"

    def make(self, seed: int, workdir: Path) -> Problem:
        n, rows, cols, vals = tight_binding_lattice(24, 1.0, seed, cap_layers=4)
        shifts = np.linspace(-6.0, 6.0, 6) + 0.1j
        mtx, shift_file = workdir / "absorbing.mtx", workdir / "absorbing.shifts"
        write_lower_mtx(mtx, n, rows, cols, vals)
        write_pairs(shift_file, shifts)
        return Problem(n, rows, cols, vals, centre_site(24), shifts, 1e-10, False,
                       {"matrix": mtx, "shifts": shift_file})

    def setup(self, sk, problem: Problem):
        A = sk.io.read_matrix_market(problem.inputs["matrix"])
        return A, sk.io.read_shifts(problem.inputs["shifts"])


WORKLOADS = {w.name: w for w in (DeskSweep(), LatticeBand(), AbsorbingLarge())}

# wrapped functions each method is expected to reach in a traced solve
METHOD_CALLS = {
    "qmr-sym": ("solvers.qmr_sym_update", "solvers.estimate_residual_qmr"),
    "qmr-sym-b": ("solvers.qmr_sym_b_update",),
    "qmr-sym-omega": ("solvers.qmr_sym_omega_update", "solvers.estimate_residual_qmr"),
    "cocg": ("solvers.cocg_galerkin_update", "solvers.true_residual"),
}
SHARED_CALLS = ("solvers.solve_all", "lanczos.lanczos_init", "lanczos.lanczos_step",
                "core.spmv", "core.bilinear_dot")
