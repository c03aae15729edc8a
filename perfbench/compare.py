#!/usr/bin/env python3
"""Run two sets of benchmark runs of the same build and compare them.

Usage (from the repository root):
    python3 perfbench/compare.py [--runs N] [--sets 1|2] [--workloads a,b]

Every run lasts BENCHMARK.json's run_seconds; run i of every workload uses
seed i in both sets.  Sets alternate per run and per workload (set 1 first
on even runs, set 2 first on odd runs), so drift on the machine spreads over
both.  For every workload and end-to-end metric it prints each set's median
and quartiles, the spread (quartile distance over median), and whether the
spread and the difference of the two medians stay within the metric's bound
from BENCHMARK.json.  With --sets 1 it prints one set and checks the spreads
only.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2, choices=(1, 2))
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()

    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    seconds = bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    # results[set][workload] = list of result objects
    results = [{w: [] for w in workloads} for _ in range(args.sets)]
    for i in range(args.runs):
        seed = i + 1
        order = list(range(args.sets))
        if i % 2 == 1:
            order.reverse()
        for w in workloads:
            for s in order:
                r = run_once(w, seed, seconds)
                results[s][w].append(r)
                print(f"run {i + 1}/{args.runs} set {s + 1} {w} seed {seed}: "
                      f"attempted {r['attempted']} failed {r['failed']} "
                      f"correct {r['correct']}", file=sys.stderr, flush=True)
            order.reverse()

    ok = True
    for w in workloads:
        print(f"\n== {w}")
        shares = set()
        for s in range(args.sets):
            rs = results[s][w]
            shares.add(tuple(sorted({r["failed"] / r["attempted"] for r in rs})))
            if not all(r["correct"] for r in rs):
                ok = False
                print(f"  set {s + 1}: an output check failed")
        if len(shares) > 1 or any(len(x) > 1 for x in shares):
            ok = False
        print(f"  failed share per set: {sorted(shares)}")
        for name, spec in bounds.items():
            cells, medians = [], []
            for s in range(args.sets):
                vals = [r["metrics"][name]["value"] for r in results[s][w]]
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / abs(med) if med else float("inf")
                medians.append(med)
                flag = ""
                if spread > spec["bound"]:
                    flag, ok = " SPREAD>BOUND", False
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] "
                             f"spread {spread:.3f}{flag}")
            line = f"  {name:20s} " + " | ".join(cells)
            if args.sets == 2:
                d = (medians[1] - medians[0]) / abs(medians[0])
                agree = abs(d) <= spec["bound"]
                ok = ok and agree
                line += (f" | diff {d:+.3f} bound {spec['bound']} "
                         f"{'agree' if agree else 'DISAGREE'}")
            print(line)
    print("\nall within bounds" if ok else "\nNOT within bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
