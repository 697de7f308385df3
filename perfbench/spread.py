#!/usr/bin/env python3
"""Runs the benchmark several times per workload, one seed per run, and
prints each end-to-end metric's median and quartile spread (IQR / median)
next to its bound, the way the acceptance check computes them.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--verbose] [WORKLOAD ...]

Run it from the repository root. Without workload names it covers every
workload in BENCHMARK.json. Exits 1 when any spread exceeds a third of its
metric's bound or a run reports a failed gate.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--verbose", action="store_true", help="print every run's values")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    ok = True
    for name in names:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{name} seed {seed}: {result['failed']} failed gates")
                ok = False
            for metric, series in values.items():
                series.append(result["metrics"][metric]["value"])
        for m in bench["end_to_end"]:
            series = values[m["name"]]
            if args.verbose:
                print(f"{name:16} {m['name']:16} " + " ".join(f"{v:.6g}" for v in series))
            med = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / med
            steady = spread < m["bound"] / 3
            ok &= steady
            flag = "" if steady else "  <-- above bound/3"
            print(f"{name:16} {m['name']:16} median {med:<14.6g} spread {spread:7.2%}"
                  f"  bound {m['bound']:.2f}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
