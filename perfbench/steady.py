#!/usr/bin/env python3
"""Steadiness check: runs each workload N times, one seed per run, and prints
each end-to-end metric's median, quartiles and spread next to its bound.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workload W ...]

Spread = (Q3 - Q1) / median, with Q1 and Q3 from statistics.quantiles(n=4).
A metric is steady when its spread is below a third of its bound in
BENCHMARK.json; every metric, setup_s included, is held to that rule. A run
that exits non-zero or reports correct=false makes the check fail. Raw
results go to .bench_out/steady-<workload>.json and each run's report to
.bench_out/steady-<workload>-<seed>.err.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(".bench_out", exist_ok=True)
    steady = True
    for workload in workloads:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            proc = subprocess.run(
                bench["command"] + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            with open(f".bench_out/steady-{workload}-{seed}.err", "w") as f:
                f.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit code {proc.returncode}")
                steady = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            steady &= result["correct"]
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        with open(f".bench_out/steady-{workload}.json", "w") as f:
            json.dump(results, f, indent=1)
        if len(results) < 2:
            continue
        print(f"\n{workload}: {len(results)} runs")
        print(f"  {'metric':24s} {'median':>12s} {'Q1':>12s} {'Q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ok = spread < bound / 3
            steady &= ok
            print(f"  {name:24s} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} "
                  f"{bound:6.2f} {'' if ok else '<- not below bound/3'}")
        print(flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
