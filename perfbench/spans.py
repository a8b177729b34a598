"""Spans around the program's public functions, from outside the program.

:class:`Tracer` replaces each function in the module namespace where the
program looks it up (``shiftkrylov.lanczos.spmv``, ``shiftkrylov.solvers.
qmr_sym_b_update``, ...) by a wrapper that records one span per call: the
function's id, start, end and the index of the enclosing span. Spans stay in
memory in flat arrays until :meth:`save`. A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from array import array

import numpy as np

# (module, attribute, span name): every place the program looks a public
# function up. Several places may share one span name.
WRAP_POINTS = (
    ("shiftkrylov.cli", "generate_hamiltonian_analog", "cli.generate_hamiltonian_analog"),
    ("shiftkrylov.io", "read_matrix_market", "io.read_matrix_market"),
    ("shiftkrylov.io", "read_shifts", "io.read_shifts"),
    ("shiftkrylov.lanczos", "spmv", "core.spmv"),
    ("shiftkrylov.solvers", "spmv", "core.spmv"),
    ("shiftkrylov.lanczos", "bilinear_dot", "core.bilinear_dot"),
    ("shiftkrylov.solvers", "lanczos_init", "lanczos.lanczos_init"),
    ("shiftkrylov.solvers", "lanczos_step", "lanczos.lanczos_step"),
    ("shiftkrylov.solvers", "solve_all", "solvers.solve_all"),
    ("shiftkrylov.solvers", "qmr_sym_update", "solvers.qmr_sym_update"),
    ("shiftkrylov.solvers", "qmr_sym_b_update", "solvers.qmr_sym_b_update"),
    ("shiftkrylov.solvers", "qmr_sym_omega_update", "solvers.qmr_sym_omega_update"),
    ("shiftkrylov.solvers", "cocg_galerkin_update", "solvers.cocg_galerkin_update"),
    ("shiftkrylov.solvers", "estimate_residual_qmr", "solvers.estimate_residual_qmr"),
    ("shiftkrylov.solvers", "true_residual", "solvers.true_residual"),
)
FROM_COO = "core.from_coo"  # SparseSymMatrix.from_coo, a classmethod


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.ids = array("l")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.missing: list[str] = []  # wrap points the program no longer has

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name: str):
        fid = self._name_id(name)
        ids, parents, starts, ends, stack = self.ids, self.parents, self.starts, self.ends, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            k = len(ids)
            ids.append(fid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(k)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[k] = clock()
                starts[k] = t0
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every wrap point for the duration of the block."""
        saved = []
        try:
            for modname, attr, name in WRAP_POINTS:
                mod = importlib.import_module(modname)
                if not hasattr(mod, attr):
                    self.missing.append(f"{modname}.{attr}")
                    continue
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self.wrap(getattr(mod, attr), name))
            cls = importlib.import_module("shiftkrylov.core").SparseSymMatrix
            saved.append((cls, "from_coo", cls.__dict__["from_coo"]))
            cls.from_coo = classmethod(self.wrap(cls.__dict__["from_coo"].__func__, FROM_COO))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def mark(self) -> int:
        return len(self.ids)

    def summary(self, lo: int, hi: int) -> dict:
        """``{name: (calls, self_s)}`` over spans ``lo..hi-1``, which must
        hold whole call trees."""
        ids = np.frombuffer(self.ids[lo:hi], dtype=np.int_)
        parents = np.frombuffer(self.parents[lo:hi], dtype=np.int_) - lo
        dur = np.frombuffer(self.ends[lo:hi]) - np.frombuffer(self.starts[lo:hi])
        inner = parents >= 0
        own = dur - np.bincount(parents[inner], weights=dur[inner], minlength=len(dur))
        calls = np.bincount(ids, minlength=len(self.names))
        self_s = np.bincount(ids, weights=own, minlength=len(self.names))
        return {name: (int(calls[i]), float(self_s[i]))
                for i, name in enumerate(self.names) if calls[i]}

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            ids=np.array(self.ids, dtype=np.int_),
            parents=np.array(self.parents, dtype=np.int_),
            starts=np.array(self.starts),
            ends=np.array(self.ends),
        )
