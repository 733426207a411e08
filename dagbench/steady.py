#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

Runs every workload (or the ones named) once per seed, each run a fresh
process with BENCHMARK.json's command and run length, and prints, for each
end-to-end metric, the median, the quartiles (statistics.quantiles, n=4)
and the relative IQR, (q3 - q1) / median, next to the metric's bound.

    python3 dagbench/steady.py --runs 10 --out dagbench/steadiness.json
    python3 dagbench/steady.py --runs 5 --workloads fleet-ni

Run it from the root of a checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "0",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs wrong\n{out.stderr}")
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload, seeds first-seed onwards")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="", help="comma-separated names (default: all)")
    ap.add_argument("--out", default="", help="write the record as JSON here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    record = {"run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    for name in names:
        values = {}
        for seed in seeds:
            res = run_once(bench, name, seed)
            for metric, m in res["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
        rows = {}
        for metric, vs in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            rel = (q3 - q1) / med if med else 0.0
            bound = bounds[metric]
            rows[metric] = {"median": med, "q1": q1, "q3": q3, "rel_iqr": rel, "bound": bound, "values": vs}
            verdict = "ok" if rel < bound / 3 else "WIDE"
            print(f"{name:13s} {metric:18s} median={med:<12.6g} q1={q1:<12.6g} q3={q3:<12.6g} "
                  f"rel_iqr={rel:.4f} bound={bound} {verdict}", flush=True)
        record["workloads"][name] = rows
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
