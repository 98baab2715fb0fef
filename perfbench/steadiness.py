#!/usr/bin/env python3
"""Steadiness report: run the benchmark repeatedly, one seed per run,
and report each end-to-end metric's median, quartiles and spread.

The spread is (Q3 - Q1) / median over the runs of one workload, with
quartiles as `statistics.quantiles(values, n=4)` gives them. A metric
is steady when its spread stays below a third of its bound in
BENCHMARK.json. Run from the
repository root:

    python3 perfbench/steadiness.py --runs 10 [--workloads cosim]

It writes the full table to perfbench/out/steadiness.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} ops failed")
    return result["metrics"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = p.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    steady = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            metrics = run_once(bench["command"], workload, seed, args.seconds)
            for name in bounds:
                values[name].append(metrics[name]["value"])
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{n}={metrics[n]['value']:.4g}" for n in bounds), flush=True)
        report[workload] = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ok = spread < bounds[name] / 3
            steady &= ok
            report[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                      "bound": bounds[name], "steady": ok, "values": vals}
            print(f"{workload:8} {name:12} median {med:12.5g}  Q1 {q1:12.5g}  Q3 {q3:12.5g}"
                  f"  spread {spread:7.2%}  bound/3 {bounds[name] / 3:6.2%}"
                  f"  {'ok' if ok else 'UNSTEADY'}", flush=True)
    out = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "steadiness.json"), "w") as f:
        json.dump(report, f, indent=2)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
