#!/usr/bin/env python3
"""Check how steady the benchmark's end-to-end metrics are.

    python3 perfbench/steadiness.py --runs 10 --sets 2 --first-seed 1 \
        [--workloads a,b] [--out runs.json]

Runs every workload (or the listed ones) --sets x --runs times untraced,
each run with its own seed, at BENCHMARK.json's run_seconds.  The sets
are interleaved: round i runs, for every workload, run i of each set in
turn, so a drift in host speed reaches every set alike.  For each set
and end-to-end metric it prints the median of the per-run values and
their spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median.  A spread
within the metric's bound passes; below a third of it counts as steady.
With two or more sets it then prints, per metric, the worst shift of
one set's median from another's in the metric's worse direction,
against the same bound.  Every metric is checked, setup_s included.
Exits 1 when a spread or a shift exceeds its bound.
"""

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit("%s seed %d failed (exit %d)" % (workload, seed, out.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("%s seed %d: a correctness check failed" % (workload, seed))
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def worse_shift(old, new, better):
    """How much worse [new] is than [old], as a share of [old]."""
    return (new - old) / old if better == "lower" else (old - new) / old


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    runs = {w: [[] for _ in range(args.sets)] for w in names}
    for i in range(args.runs):
        for w in names:
            for s in range(args.sets):
                seed = args.first_seed + s * args.runs + i
                runs[w][s].append(run_once(w, seed, spec["run_seconds"]))
                print("%s set %d seed %d done" % (w, s, seed), file=sys.stderr)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)
    ok = True
    print("%-13s %-15s %3s %14s %8s %6s  %s" % (
        "workload", "metric", "set", "median", "spread", "bound", "verdict"))
    for w in names:
        for name, m in metrics.items():
            medians = []
            for s, set_runs in enumerate(runs[w]):
                values = [r[name] for r in set_runs]
                med = statistics.median(values)
                medians.append(med)
                sp = spread(values) if len(values) >= 2 else 0.0
                if sp <= m["bound"] / 3:
                    verdict = "steady"
                elif sp <= m["bound"]:
                    verdict = "within bound"
                else:
                    verdict, ok = "TOO WIDE", False
                print("%-13s %-15s %3d %14.6g %8.4f %6.3f  %s" % (
                    w, name, s, med, sp, m["bound"], verdict))
            if len(medians) >= 2:
                shift = max(worse_shift(a, b, m["better"])
                            for a, b in itertools.permutations(medians, 2))
                verdict = "within bound" if shift <= m["bound"] else "WORSE THAN BOUND"
                if shift > m["bound"]:
                    ok = False
                print("%-13s %-15s %3s %14s %8.4f %6.3f  worst median shift: %s" % (
                    w, name, "all", "", shift, m["bound"], verdict))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
