#!/usr/bin/env python3
"""Steadiness record: run the benchmark several times per workload, each
time with another seed, and report every metric's median, quartiles and
quartile spread (q3 - q1, as a share of the median).

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--trace 0|1]
                                [--jobs J] [--first-seed 1] [--out FILE]

Run from the repository root.  The spread of each end-to-end metric is
compared with a third of its bound in BENCHMARK.json; a metric over
that line is flagged (setup_s is exempt, as only its median shift is
bounded).  --out writes the whole record as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds, trace, jobs):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--jobs", str(jobs)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {"run_seconds": bench["run_seconds"], "runs": args.runs,
              "trace": args.trace, "jobs": args.jobs, "workloads": {}}
    flagged = []
    for workload in args.workloads.split(","):
        seeds = range(args.first_seed, args.first_seed + args.runs)
        runs = [run(workload, s, bench["run_seconds"], args.trace, args.jobs)
                for s in seeds]
        metrics = {}
        for name in runs[0]:
            values = [r[name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            metrics[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": spread, "values": values}
            line = f"{workload:20s} {name:26s} median {med:12.6g}  spread {spread:7.2%}"
            if name in bounds and name != "setup_s":
                limit = bounds[name] / 3
                line += f"  (limit {limit:.2%})"
                if spread > limit:
                    flagged.append(f"{workload}/{name}")
                    line += "  OVER"
            print(line, flush=True)
        record["workloads"][workload] = {"seeds": list(seeds), "metrics": metrics}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    if flagged:
        print("spread over a third of the bound: " + ", ".join(flagged))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
