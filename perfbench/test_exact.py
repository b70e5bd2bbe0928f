#!/usr/bin/env python3
"""The benchmark's own test: two traced runs of one workload, with one
seed, must both reproduce the reference verdicts and agree exactly on
every count the trace takes (solver and concolic counts, allocation
deltas, store and wire volumes).

    python3 perfbench/test_exact.py [--workload curated_cold] [--seed 7]

Run from the repository root; exits 1 on any difference.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import COUNT_LAYERS, WORKLOADS  # noqa: E402

EXACT = COUNT_LAYERS + ("exec.store_mb",)


def traced(workload, seed):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="curated_cold", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    a, b = traced(args.workload, args.seed), traced(args.workload, args.seed)
    failures = []
    for i, r in enumerate((a, b)):
        if not r["correct"] or r["failed"]:
            failures.append(f"run {i + 1} does not reproduce the reference "
                            f"({r['failed']} of {r['attempted']} units differ)")
    for name in EXACT:
        va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
        status = "same" if va == vb else "DIFFERENT"
        print(f"{name:26s} {va!r:>22} {vb!r:>22}  {status}")
        if va != vb:
            failures.append(f"{name}: {va!r} != {vb!r}")
    for f in failures:
        print("FAIL: " + f)
    print("ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
