#!/usr/bin/env python3
"""Steadiness self-check: run every workload over two sets of seeds and
report, per end-to-end metric and set, the median, the quartiles and the
spread (Q3 - Q1) as a share of the median, then the drift between the two
medians, each against the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py                      # 2 x 10 seeds, every workload
    python3 perfbench/steady.py --seeds 5 --workloads farm_cells

Run from the root of a checkout. The first set runs seeds 1..N, the second
N+1..2N. A spread or drift at or above a third of its bound is flagged
"noisy", above the bound "FAIL". Exit code 1 when any FAIL is printed.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
from run import WORKLOADS  # noqa: E402


def run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("steady: %s seed %d failed (exit %d)" % (workload, seed, out.returncode))
    res = json.loads(lines[-1])
    if not res["correct"]:
        sys.exit("steady: %s seed %d reported incorrect output" % (workload, seed))
    return {k: v["value"] for k, v in res["metrics"].items()}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def verdict(share, bound):
    if share > bound:
        return "FAIL"
    return "noisy" if share >= bound / 3 else "ok"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=names, choices=WORKLOADS)
    ap.add_argument("--seeds", type=int, default=10, help="seeds per set")
    ap.add_argument("-v", "--verbose", action="store_true",
                    help="also print every run's value")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    failed = False
    for w in args.workloads:
        sets = []
        for first in (1, 1 + args.seeds):
            runs = [run(w, seed, bench["run_seconds"])
                    for seed in range(first, first + args.seeds)]
            sets.append({m: [r[m] for r in runs] for m in bounds})
        print("%s (2 sets of %d seeds)" % (w, args.seeds))
        print("  %-16s %5s %12s %12s %12s %8s %6s %s" %
              ("metric", "set", "median", "q1", "q3", "spread", "bound", "verdict"))
        for m, bound in bounds.items():
            meds = []
            for k, vals in enumerate(sets):
                med, q1, q3, spread = summarize(vals[m])
                meds.append(med)
                v = verdict(spread, bound)
                failed |= v == "FAIL"
                print("  %-16s %5d %12.6g %12.6g %12.6g %8.4f %6.2f %s" %
                      (m, k + 1, med, q1, q3, spread, bound, v))
                if args.verbose:
                    print("      " + " ".join("%.4g" % x for x in vals[m]))
            drift = abs(meds[1] - meds[0]) / meds[0]
            v = verdict(drift, bound)
            failed |= v == "FAIL"
            print("  %-16s %5s %12s %12s %12s %8.4f %6.2f %s" %
                  (m, "drift", "", "", "", drift, bound, v))
        sys.stdout.flush()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
