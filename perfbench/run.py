"""Benchmark of shiftkrylov's multi-shift solvers.

    python3 perfbench/run.py --workload desk-sweep --seed 42 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``. A run builds the workload's inputs from ``--seed``, makes one small
untimed warm-up solve per method, then repeats whole rounds -- every method
``reps`` times, interleaved, each solve preceded by ``setup_reps`` timed
set-ups -- as long as the next round should end within ``--seconds``.
Every shift of every solve is checked by ``checks.py``.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (mean set-up time),
``solve_s.<method>`` (mean solve time), their sum ``solve_s`` and
``peak_rss_mib``. The times are scaled to one reference host speed, which
``hostclock.py`` samples while they run. ``--trace 1`` times each solve
untraced and then traced, with wall times as measured,
and prints the per-layer split from the spans of ``spans.py`` and the
tracing overhead. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the environment, CPU
steal and check margins go to standard error and, with every sample, to
``.perfbench/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import os

# one BLAS thread: on a small shared machine the default thread pool makes
# the Lanczos vector operations far noisier (set before NumPy loads)
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import shiftkrylov as sk  # noqa: E402  (its __init__ loads every submodule)
from checks import Checker  # noqa: E402
from hostclock import HostClock  # noqa: E402
from spans import FROM_COO, Tracer  # noqa: E402
from workloads import METHOD_CALLS, METHODS, SHARED_CALLS, WORKLOADS  # noqa: E402

UPDATE_FN = {m: calls[0] for m, calls in METHOD_CALLS.items()}
ESTIMATE_FNS = ("solvers.estimate_residual_qmr", "solvers.true_residual")
STREAM_FNS = ("core.spmv", "core.bilinear_dot", "lanczos.lanczos_init", "lanczos.lanczos_step")
WARMUP_SHIFTS, WARMUP_ITERS = 8, 20


def cpu_ticks():
    """(busy, steal) jiffies of the whole machine from ``/proc/stat``."""
    try:
        with open("/proc/stat") as fh:
            f = [int(t) for t in fh.readline().split()[1:9]]
    except OSError:
        return None
    user, nice, system, _idle, _iowait, irq, softirq, steal = f
    return user + nice + system + irq + softirq, steal


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the build-info layout differs between NumPy versions
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
    }


class Ledger:
    """Operation accounting: one operation is one shift of one solve.

    Status, residual and estimate checks run after each solve; the forward
    error check runs once per distinct solution array after timing, on a
    copy saved to disk, so neither the reference nor the copies count in
    peak memory."""

    def __init__(self, checker: Checker, workdir: Path):
        self.checker = checker
        self.workdir = workdir
        self.solves = []  # (per-shift ok flags, solution digest)
        self.saved = {}  # digest -> (file, iteration counts)
        self.worst = {"residual_over_tol": 0.0, "estimate_gap_ratio": 0.0,
                      "forward_error_share": 0.0}

    def record(self, X, report):
        ok, worst = self.checker.check_solve(X, report)
        for key, val in worst.items():
            self.worst[key] = max(self.worst[key], val)
        digest = hashlib.blake2b(np.ascontiguousarray(X)).hexdigest()
        if digest not in self.saved:
            path = self.workdir / f"x{len(self.saved)}.npy"
            np.save(path, X)
            self.saved[digest] = (path, np.asarray(report.iters))
        self.solves.append((ok, digest))

    def tally(self):
        forward = {}
        for digest, (path, iters) in self.saved.items():
            ok, share = self.checker.forward_ok(np.load(path), iters)
            forward[digest] = ok
            if share is not None:
                self.worst["forward_error_share"] = max(self.worst["forward_error_share"], share)
        attempted = failed = 0
        for ok, digest in self.solves:
            if forward[digest] is not None:
                ok = ok & forward[digest]
            attempted += len(ok)
            failed += int(len(ok) - ok.sum())
        return attempted, failed


class Session:
    """One run's set-up, solves and samples.

    Set-up repetitions are spread over the run, ``wl.setup_reps`` before
    every solve, so that they see the same machine as the solves do. In a
    traced run both are timed with the wrap points installed; the untraced
    solves are kept as the baseline for the tracing overhead."""

    def __init__(self, wl, problem, checker, tracer):
        self.wl, self.problem, self.checker, self.tracer = wl, problem, checker, tracer
        self.setup_samples = []  # (wall, spans or None)
        self.correct = True

    def traced(self):
        return self.tracer.installed() if self.tracer else contextlib.nullcontext()

    def spans_since(self, lo):
        return self.tracer.summary(lo, self.tracer.mark()) if self.tracer else None

    def setup(self):
        for _ in range(self.wl.setup_reps):
            lo = self.tracer.mark() if self.tracer else 0
            with self.traced():
                t0 = time.perf_counter()
                A, shifts = self.wl.setup(sk, self.problem)
                wall = time.perf_counter() - t0
            self.setup_samples.append((wall, self.spans_since(lo), t0))
            self.correct &= self.checker.same_inputs(A, shifts)
        return A, shifts

    def solve(self, A, shifts, method, traced=False):
        counter = sk.core.FlopCounter()
        lo = self.tracer.mark() if traced else 0
        with self.tracer.installed() if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            X, report = sk.solvers.solve_all(A, self.problem.b, shifts, method=method,
                                             tol=self.problem.tol, counter=counter)
            wall = time.perf_counter() - t0
        return wall, t0, X, report, counter, self.spans_since(lo) if traced else None


def mean_wall(samples):
    """Mean wall time of a run's samples of one phase, as measured (the
    traced run's baseline for the tracing overhead)."""
    return statistics.fmean(wall for wall, *_ in samples)


def mean_self(samples, *names):
    """Mean over traced samples of the summed self time of ``names``."""
    return statistics.fmean(sum(spans.get(n, (0, 0.0))[1] for n in names)
                            for _, spans, _ in samples)


def setup_layers(wl, samples):
    """Per-layer set-up split from the traced self times: ``from_coo``,
    ``read_shifts`` and the workload's matrix source (the generator, the
    Matrix Market parser, or ``from_coo`` itself where it is the whole
    build)."""
    return {"core.from_coo.self_s": mean_self(samples, FROM_COO),
            "io.read_shifts.self_s": mean_self(samples, "io.read_shifts"),
            "setup.source.self_s": mean_self(samples, wl.source)}


def layer_metrics(method, samples, counter, overhead):
    """Per-layer metrics of one method from the spans of its traced solves."""
    spans = samples[0][1]

    def calls(name):
        return spans.get(name, (0, 0.0))[0]

    out = {
        f"core.spmv.self_s.{method}": mean_self(samples, "core.spmv"),
        f"core.spmv.calls.{method}": calls("core.spmv"),
        f"core.bilinear_dot.self_s.{method}": mean_self(samples, "core.bilinear_dot"),
        f"lanczos.lanczos_step.self_s.{method}": mean_self(samples, "lanczos.lanczos_step"),
        f"lanczos.lanczos_step.calls.{method}": calls("lanczos.lanczos_step"),
        f"solvers.update.self_s.{method}": mean_self(samples, UPDATE_FN[method]),
        f"solvers.update.calls.{method}": calls(UPDATE_FN[method]),
        f"solvers.solve_all.self_s.{method}": mean_self(samples, "solvers.solve_all"),
        f"core.matvec_flops.{method}": counter.matvec,
        f"solvers.update_flops.{method}": counter.shift_update,
        f"trace.overhead_s.{method}": overhead,
    }
    if method != "qmr-sym-b":  # its estimate is computed inline in solve_all
        out[f"solvers.estimate.self_s.{method}"] = mean_self(samples, *ESTIMATE_FNS)
    return out


def measure(run, ledger, seconds):
    """Whole rounds within ``seconds``: every method ``reps`` times,
    interleaved so that each method's samples spread over the round, each
    solve preceded by set-ups; in a traced run each untraced solve is
    followed by a traced one. Another round starts only if, at the length of
    the last one, it ends within ``seconds``; the first always runs. Every
    solve goes to the ledger."""
    reps = run.wl.reps
    plain = {m: [] for m in METHODS}  # (wall, None)
    traced = {m: [] for m in METHODS}  # (wall, spans)
    counters = {}
    start = time.perf_counter()
    rounds = 0
    last = 0.0
    while rounds == 0 or time.perf_counter() - start + last <= seconds:
        begin = time.perf_counter()
        for k in range(max(reps.values())):
            for method in (m for m in METHODS if reps[m] > k):
                A, shifts = run.setup()
                for with_trace in (False, True) if run.tracer else (False,):
                    wall, t0, X, report, counters[method], spans = run.solve(
                        A, shifts, method, with_trace)
                    (traced if with_trace else plain)[method].append((wall, spans, t0))
                    ledger.record(X, report)
                    del X, report
        rounds += 1
        last = time.perf_counter() - begin
    return plain, traced, counters, rounds


def per_layer(run, traced, mean, counters, info):
    """The per-layer metrics of a traced run. Also records in ``info`` the
    mean self time per function of the set-up and of each method, the layer
    shares, and every expected call that was never made (printed to
    standard error)."""
    unit = lambda k: "count" if ".calls." in k or "_flops." in k else "s"  # noqa: E731
    metrics = {k: (v, "s") for k, v in setup_layers(run.wl, run.setup_samples).items()}
    called = set().union(*(spans for _, spans, _ in run.setup_samples))
    missing = {"setup": [f for f in run.wl.setup_calls if f not in called]}
    info["setup_self_s"] = {n: mean_self(run.setup_samples, n) for n in sorted(called)}
    info["traced_solve_s"], info["traced_self_s"], info["shares"] = {}, {}, {}
    for m in METHODS:
        samples = traced[m]
        wall = mean_wall(samples)
        for k, v in layer_metrics(m, samples, counters[m], wall - mean[m]).items():
            metrics[k] = (v, unit(k))
        called = set().union(*(spans for _, spans, _ in samples))
        missing[m] = [f for f in SHARED_CALLS + METHOD_CALLS[m] if f not in called]
        info["traced_solve_s"][m] = [w for w, *_ in samples]
        info["traced_self_s"][m] = {n: mean_self(samples, n) for n in sorted(called)}
        info["shares"][m] = {
            "solvers_update_and_loop": mean_self(samples, UPDATE_FN[m], "solvers.solve_all") / wall,
            "core_and_lanczos": mean_self(samples, *STREAM_FNS) / wall,
            "estimate": mean_self(samples, *ESTIMATE_FNS) / wall,
        }
    missing["wrap_points"] = run.tracer.missing
    info["never_called"] = {k: v for k, v in missing.items() if v}
    for where, names in info["never_called"].items():
        print(f"perfbench: {run.wl.name} {where}: expected call never made: "
              f"{', '.join(names)}", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    outdir = ROOT / ".perfbench"
    workdir = outdir / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ticks0 = cpu_ticks()
    try:
        problem = wl.make(args.seed, workdir)
        checker = Checker(problem)
        ledger = Ledger(checker, workdir)
        tracer = Tracer() if args.trace else None
        run = Session(wl, problem, checker, tracer)
        A, shifts = run.setup()
        for method in METHODS:  # warm-up: code paths, allocator, caches
            sk.solvers.solve_all(A, problem.b, shifts.shifts[:WARMUP_SHIFTS], method=method,
                                 tol=problem.tol, max_iter=WARMUP_ITERS)

        clock = HostClock() if tracer is None else contextlib.nullcontext()
        with clock:
            plain, traced, counters, rounds = measure(run, ledger, args.seconds)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted, failed = ledger.tally()

        info = {"workload": wl.name, "seed": args.seed, "env": environment(), "rounds": rounds,
                "solve_samples_s": {m: [w for w, *_ in plain[m]] for m in METHODS},
                "setup_samples_s": [w for w, *_ in run.setup_samples]}
        if tracer is None:
            windows = lambda samples: [(t0, wall) for wall, _, t0 in samples]  # noqa: E731
            setup_s, _ = clock.scaled(windows(run.setup_samples), pooled=True)
            solve, info["mean_tick_s"] = {}, {"run": statistics.fmean(clock.ticks)}
            for m in METHODS:
                solve[m], info["mean_tick_s"][m] = clock.scaled(windows(plain[m]))
            metrics = {"setup_s": (setup_s, "s")}
            metrics.update({f"solve_s.{m}": (solve[m], "s") for m in METHODS})
            metrics["solve_s"] = (sum(solve.values()), "s")
            metrics["peak_rss_mib"] = (peak_rss_mib, "MiB")
        else:
            mean = {m: mean_wall(plain[m]) for m in METHODS}
            metrics = per_layer(run, traced, mean, counters, info)
            tracer.save(outdir / f"{wl.name}-seed{args.seed}.spans.npz")

        ticks1 = cpu_ticks()
        if ticks0 and ticks1:
            busy, steal = (t1 - t0 for t0, t1 in zip(ticks0, ticks1))
            info["cpu_steal_share"] = steal / max(busy + steal, 1)
        info["checks"] = ledger.worst
        result = {
            "correct": bool(run.correct),
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        (outdir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({**info, "result": result}, indent=1))
        print(json.dumps({k: info.get(k) for k in ("env", "rounds", "checks", "cpu_steal_share",
                                                    "shares") if k in info}), file=sys.stderr)
        print(json.dumps(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
