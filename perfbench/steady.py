#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs every workload of BENCHMARK.json k times, each with another seed,
and prints per end-to-end metric the median, the quartiles and the spread
(interquartile distance over the median) against the metric's bound.
Each run lasts BENCHMARK.json's run_seconds. Quartiles are Python's
statistics.quantiles(values, n=4). Every report starts with a host
fingerprint: nproc, `rustc -V` and the git commit.

    python3 perfbench/steady.py                  # 10 runs per workload
    python3 perfbench/steady.py --runs 5 --workloads forward-checked

Run it from the root of the repository. Exits 1 if a run fails or a
spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def fingerprint():
    def out(cmd):
        try:
            return subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "rustc": out(["rustc", "-V"]),
        "git": out(["git", "rev-parse", "--short=12", "HEAD"]),
    }


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of a sample."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", help="comma-separated subset")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    seconds = bench["run_seconds"]
    host = fingerprint()
    print(f"host: nproc={host['nproc']} rustc=\"{host['rustc']}\" git={host['git']}")
    print(f"{args.runs} runs of {seconds}s per workload, seeds 1 to {args.runs}")

    steady = True
    for name in names:
        results = [run_once(bench["command"], name, seed, seconds, 0)
                   for seed in range(1, args.runs + 1)]
        print(f"\n{name}")
        print(f"  {'metric':<16} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            med, q1, q3, s = spread(values)
            flag = ""
            if s > metric["bound"]:
                flag, steady = "  OVER BOUND", False
            elif s > metric["bound"] / 3:
                flag = "  above a third of the bound"
            print(f"  {metric['name']:<16} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{s:>8.4f} {metric['bound']:>6}{flag}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
