"""Run the benchmark in two sets of runs and judge its steadiness.

    python3 perfbench/steady.py --workload desk-sweep

Each set makes, one run at a time, one run for each of the seeds 1-10 and,
interleaved with them, ten runs of seed 42. The seeds 1-10 runs show the
spread that a set of runs over different inputs has; the seed-42 runs show
run-to-run noise alone, the noise a before/after comparison at a fixed seed
sees. For each group and every end-to-end metric it prints each set's
median and quartiles as a Markdown table, the spread ``(q3 - q1) / median``,
and the change of set 2's median from set 1's. A spread over the metric's
bound from ``BENCHMARK.json``, a median change over the bound in either
direction, a differing share of failed operations or an incorrect run makes
it exit with code 1; a spread over a third of the bound is flagged. Raw
results go to ``.perfbench/steady-<workload>-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
SEEDS = range(1, 11)
REPEAT_SEED = 42


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((ROOT / ".perfbench" / f"{workload}-seed{seed}-trace0.json").read_text())
    print(f"{workload} seed {seed}: {wall:.1f} s, {detail['rounds']} rounds, "
          f"correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}", flush=True)
    return {"seed": seed, "wall_s": wall, "rounds": detail["rounds"], **result,
            **{k: v for k, v in detail.items() if k.endswith("samples_s")}}


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def judge(group, sets, bounds):
    """Prints one group's table; returns whether every metric passes."""
    ok = True
    print(f"\n{group}:\n")
    print("| metric | set 1 median [q1, q3] | spread | set 2 median [q1, q3] | spread "
          "| set 2 vs 1 |\n|---|---|---|---|---|---|")
    for name, bound in bounds.items():
        cells, medians = [], []
        for runs in sets:
            q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in runs])
            spread = (q3 - q1) / med
            ok &= spread <= bound
            flag = "" if spread <= bound / 3 else (" (over bound/3)" if spread <= bound
                                                    else " (OVER BOUND)")
            cells += [f"{med:.4g} [{q1:.4g}, {q3:.4g}]", f"{spread:.1%}{flag}"]
            medians.append(med)
        change = medians[1] / medians[0] - 1
        ok &= abs(change) <= bound
        verdict = "" if abs(change) <= bound else " (OVER BOUND)"
        print(f"| `{name}` | {' | '.join(cells)} | {change:+.1%}{verdict} |")
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", required=True)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workload:
        cross = [[] for _ in range(SETS)]
        repeat = [[] for _ in range(SETS)]
        for k in range(SETS):
            for seed in SEEDS:
                cross[k].append(run_once(bench, workload, seed))
                repeat[k].append(run_once(bench, workload, REPEAT_SEED))
        (ROOT / ".perfbench" / f"steady-{workload}-{time.strftime('%Y%m%d-%H%M%S')}.json"
         ).write_text(json.dumps({"seeds": cross, "repeat": repeat}))

        runs = [r for group in (cross, repeat) for runs in group for r in runs]
        print(f"\n## {workload}: {SETS} sets, run_seconds={bench['run_seconds']}, "
              f"rounds per run {sorted({r['rounds'] for r in runs})}")
        ok &= judge(f"seeds {SEEDS.start}-{SEEDS.stop - 1}, one run each", cross, bounds)
        ok &= judge(f"seed {REPEAT_SEED}, {len(SEEDS)} runs", repeat, bounds)
        shares = {sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in cross + repeat}
        correct = all(r["correct"] for r in runs)
        ok &= len(shares) == 1 and correct
        print(f"\nfailed share per set and group: {sorted(shares)}; "
              f"attempted per run {sorted({r['attempted'] for r in runs})}; "
              f"all correct: {correct}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
