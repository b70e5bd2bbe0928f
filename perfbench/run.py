#!/usr/bin/env python3
"""End-to-end benchmark of the campaign pipeline.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/perfbench.exe with dune
(into .bench_build/), then runs repetitions of workload W, each in a
fresh process, for about S seconds, and prints one JSON object as the
last line of standard output.  With --trace 0 it reports the end-to-end
metrics; with --trace 1 it pairs each untraced repetition with a traced
one and reports the per-layer metrics.  Every repetition's per-unit
verdicts are checked against perfbench/reference/; a unit that is not
`ok` or whose verdict hash differs counts as failed.

--seed draws the orders in which units are dealt (see deal_seed).
Verdicts do not depend on the order, so one committed reference serves
every seed.  The extracted corpus is fixed by --corpus-seed and
--corpus-size.  Timings are scaled to a reference host speed measured
by a probe inside each repetition (see PROBE_REF_NS and perfbench.ml).

--write-reference runs one untraced repetition and records its verdicts
as the workload's reference instead of checking them.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("curated_cold", "extracted_validate", "warm_workers")
BINARY = os.path.join(".bench_build", "dune", "default", "perfbench", "perfbench.exe")
STATE = os.path.join(".bench_build", "perfbench")
REFERENCE_DIR = os.path.join("perfbench", "reference")

# Fewest measured repetitions per run, whatever --seconds says; the
# number of set-up samples a run aims for (set-up-only repetitions top
# up the ones every measured repetition already gives), and the share of
# --seconds kept for them.
MIN_REPS = 3
SETUP_SAMPLES = 15
SETUP_SHARE = 0.1
# Seconds after the build by which every repetition must have ended; a
# run must end within 180 s, and one still running then is killed.
RUN_DEADLINE_S = 170.0
# The host speed probe's kernel time (see perfbench.ml) that every
# timing is scaled to: about its time on a 2.0 GHz Xeon vCPU at the
# host's fast speed.  Timings scale with (PROBE_REF_NS / probe time) to
# the power PROBE_EXPONENT: across 60 runs of the three workloads, a
# run's log throughput fell 1.34-1.45 times as fast as its probe's log
# time rose (correlation 0.95).  Both are fixed, so that runs of
# different commits compare.
PROBE_REF_NS = 50000.0
PROBE_EXPONENT = 1.4

COUNT_LAYERS = (
    "concolic.calls", "concolic.iterations", "concolic.alloc_mw",
    "concolic.cache_hit_ratio", "solver.queries", "solver.misses",
    "solver.hit_ratio", "difftest.calls", "difftest.alloc_mw", "jit.calls",
    "jit.machine_instrs", "verify.static_calls", "verify.validator_queries",
    "verify.decided_ratio", "exec.store_writes", "exec.store_loads",
    "exec.store_hit_ratio", "exec.wire_mb",
)
TIME_LAYERS = (
    "concolic.ms", "difftest.ms", "jit.ms", "verify.static_ms",
    "verify.validate_ms", "exec.wire_ms", "templates.ms",
    "trace.unattributed_ms",
)

_child = None  # the repetition in flight, killed if we are
_deadline = math.inf  # monotonic time at which it is killed


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def kill_child():
    global _child
    if _child is not None:
        try:
            os.killpg(_child, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(_child, 0)
        except ChildProcessError:
            pass
        _child = None


def on_signal(signum, _frame):
    kill_child()
    sys.exit(128 + signum)


def build():
    cmd = ["dune", "build", "--root", ".", "--build-dir",
           os.path.abspath(os.path.join(".bench_build", "dune")), "--cache=disabled",
           "--display", "quiet", "./perfbench/perfbench.exe"]
    try:
        rc = subprocess.run(cmd, stdout=sys.stderr, timeout=850).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return False
    if rc != 0 or not os.path.isfile(BINARY):
        log(f"build failed (exit {rc})")
        return False
    return True


def rep(mode, args, store=None, spans=None, seed=None):
    """Run one repetition in a fresh process.  Returns its figures plus
    `setup_s` (spawn to the end of set-up, on the shared monotonic
    clock) and `rss_mb` (largest resident set of the process and every
    worker it reaped)."""
    global _child
    out = os.path.join(STATE, f"rep-{os.getpid()}.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [BINARY, "rep", "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed if seed is None else seed),
           "--corpus-seed", str(args.corpus_seed),
           "--corpus-size", str(args.corpus_size), "--jobs", str(args.jobs),
           "--out", out]
    if store:
        cmd += ["--store", store]
    if spans:
        cmd += ["--spans", spans]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=sys.stderr,
                            start_new_session=True)
    _child = proc.pid
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > _deadline:
            kill_child()
            raise RuntimeError(f"{mode} repetition ran past the run's deadline")
        time.sleep(0.02)
    _child = None
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} repetition exited {proc.returncode}")
    with open(out) as f:
        r = json.load(f)
    os.remove(out)
    r["setup_s"] = r["setup_end"] - t0
    r["rss_mb"] = usage.ru_maxrss / 1024.0
    r["elapsed_s"] = time.monotonic() - t0
    if "wall_s" in r:
        log(f"{mode} repetition: set-up {r['setup_s']:.4f} s, "
            f"measured {r['wall_s']:.3f} s")
    return r


def dir_mb(path):
    total = 0
    for d, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(d, name))
    return total / 1e6


def reference_path(args):
    name = args.workload
    if args.workload != "curated_cold":
        name += f"-c{args.corpus_seed}-n{args.corpus_size}"
    return os.path.join(REFERENCE_DIR, name + ".json")


def warm_store(args):
    """The warm_workers store, filled once per build by a separate
    process, outside every timed phase."""
    with open(BINARY, "rb") as f:
        build_id = hashlib.md5(f.read()).hexdigest()[:12]
    store = os.path.join(
        STATE, f"warm-store-{build_id}-c{args.corpus_seed}-n{args.corpus_size}")
    ready = store + ".ready"
    if not os.path.exists(ready):
        # stores filled by earlier builds are stale: drop them all
        for name in os.listdir(STATE):
            if name.startswith("warm-store-"):
                path = os.path.join(STATE, name)
                if os.path.isdir(path):
                    shutil.rmtree(path, ignore_errors=True)
                else:
                    os.remove(path)
        log("filling the warm store (not timed)")
        r = rep("prepare", args, store=store)
        if r["ok"] != r["attempted"]:
            raise RuntimeError("warm-store preparation had failing units")
        open(ready, "w").close()
    return store


class Store:
    """The store a repetition runs against: none, a fresh empty one
    (removed afterwards), or the shared warm one.  A traced repetition
    also gets the store's size on disk as `store_mb`.

    Every cold store of every run has a path of one length: the library
    builds entry paths from it, so a longer path allocates more words
    and would change the traced `concolic.alloc_mw` count."""

    def __init__(self, args):
        self.args = args
        self.warm = warm_store(args) if args.workload == "warm_workers" else None

    def run(self, mode, spans=None, seed=None):
        if self.args.workload == "extracted_validate":
            r = rep(mode, self.args, spans=spans, seed=seed)
            r["store_mb"] = 0.0
            return r
        if self.warm:
            store = self.warm
        else:
            store = os.path.join(STATE, f"cold-store-{os.getpid():010d}")
            shutil.rmtree(store, ignore_errors=True)
        try:
            r = rep(mode, self.args, store=store, spans=spans, seed=seed)
            if mode == "traced":
                r["store_mb"] = dir_mb(store)
        finally:
            if not self.warm:
                shutil.rmtree(store, ignore_errors=True)
        return r


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    k = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[k]


def check(r, ref):
    """Units of repetition `r` that failed: not ok, or a verdict that
    differs from the reference; and whether the aggregates match."""
    failed = sum(1 for h, want in zip(r["unit_hashes"], ref["unit_hashes"])
                 if h != want)
    failed += abs(len(r["unit_hashes"]) - len(ref["unit_hashes"]))
    return failed, r["digest"] == ref["digest"]


def deal_seed(seed, k):
    """The deal-order seed of a run's k-th untraced repetition.  Which
    explorations and solver queries hit the caches other subjects filled
    follows the deal order, so one order's per-unit times carry its own
    structure; on `curated_cold` the 50th percentile of single
    repetitions moved by up to 2x between seeds.  Every untraced
    repetition therefore deals
    in its own order drawn from the run's seed, and the run's figures
    average over them.  Traced repetitions keep the run's seed, so their
    exact counts compare."""
    return seed * 1000 + k


def end_to_end(reps, setups, attempted, failed, scale):
    """Throughput is all units over all measured wall time, where a
    median over a few repetitions jumps between the host's slow and fast
    stretches.  A unit's time is its median over the repetitions, and
    the percentiles are taken over those: on `curated_cold` the 50th
    percentile sits on the edge of a gap between two clusters of units,
    so a percentile over single timings moves with every slow sample.
    Every timing is multiplied by `scale`, the run's host speed factor."""
    med = statistics.median
    per_unit = ([t for t in ts if t >= 0] for ts in zip(*(r["unit_ms"] for r in reps)))
    ms = sorted(med(ts) for ts in per_unit if ts) or [0.0]
    wall = sum(r["wall_s"] for r in reps) * scale
    return {
        "units_per_s": sum(r["attempted"] for r in reps) / wall,
        "unit_p50_ms": percentile(ms, 0.50) * scale,
        "unit_p98_ms": percentile(ms, 0.98) * scale,
        "cpu_s": med(r["cpu_s"] for r in reps) * scale,
        "setup_s": med(setups) * scale,
        "peak_rss_mb": med(r["rss_mb"] for r in reps),
        "unit_ok_ratio": (attempted - failed) / attempted,
    }


def per_layer(untraced, traced, scale, probe_ns):
    """Layer timings are scaled like the end-to-end ones, by the probe of
    the untraced repetitions (traced ones run without it); `host.probe_ns`
    is the probe's unscaled mean, the host speed they were scaled by."""
    med = statistics.median
    m = {k: traced[0]["layers"][k] for k in COUNT_LAYERS}
    for k in TIME_LAYERS:
        m[k] = med(t["layers"][k] for t in traced) * scale
    m["exec.store_mb"] = traced[0]["store_mb"]
    m["exec.coordinator_cpu_s"] = med(r["coordinator_cpu_s"] for r in untraced) * scale
    m["exec.worker_cpu_s"] = med(r["worker_cpu_s"] for r in untraced) * scale
    m["exec.redeals"] = sum(r["redeals"] for r in untraced)
    m["exec.garbage"] = sum(r["garbage"] for r in untraced)
    m["templates.accept_ratio"] = traced[0]["corpus_accept_ratio"]
    m["trace.overhead_ratio"] = (
        med(t["wall_s"] for t in traced) / med(r["wall_s"] for r in untraced) - 1.0)
    m["host.probe_ns"] = probe_ns
    return m


def exact_counts_differ(traced):
    first = {k: traced[0]["layers"][k] for k in COUNT_LAYERS}
    return [k for t in traced[1:] for k in COUNT_LAYERS
            if t["layers"][k] != first[k]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corpus-seed", type=int, default=42)
    ap.add_argument("--corpus-size", type=int, default=700)
    ap.add_argument("--jobs", type=int, default=1,
                    help="in-process domains for the in-process workloads")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)

    os.makedirs(STATE, exist_ok=True)
    if not build():
        return 2
    global _deadline
    _deadline = time.monotonic() + RUN_DEADLINE_S
    store = Store(args)

    if args.write_reference:
        r = store.run("untraced")
        if r["digest"]["units_ok"] != r["attempted"]:
            log("refusing to record a reference with failing units")
            return 1
        os.makedirs(REFERENCE_DIR, exist_ok=True)
        with open(reference_path(args), "w") as f:
            json.dump({"digest": r["digest"], "unit_hashes": r["unit_hashes"]}, f,
                      separators=(",", ":"))
            f.write("\n")
        log(f"wrote {reference_path(args)}")
        return 0

    ref_file = reference_path(args)
    if not os.path.isfile(ref_file):
        log(f"no reference {ref_file} for these corpus arguments")
        return 1
    with open(ref_file) as f:
        ref = json.load(f)

    start = time.monotonic()
    seconds = min(args.seconds, 150.0)
    budget = seconds if args.trace else (1 - SETUP_SHARE) * seconds
    untraced, traced, setups = [], [], []
    attempted = failed = 0
    correct = True
    probe = [0, 0]  # the host speed probe's ns and samples, all repetitions

    def sample(r):
        probe[0] += r["probe_ns"]
        probe[1] += r["probe_n"]
        return r

    def account(r, what):
        nonlocal attempted, failed, correct
        sample(r)
        bad, digest_ok = check(r, ref)
        attempted += r["attempted"]
        failed += bad
        if bad or not digest_ok:
            correct = False
            log(f"{what} repetition: {bad} unit(s) differ from the reference"
                + ("" if digest_ok else "; aggregate digest differs"))
        setups.append(r["setup_s"])

    spans = os.path.join(STATE, f"spans-{args.workload}-seed{args.seed}.tsv")
    while True:
        r = store.run("untraced", seed=deal_seed(args.seed, len(untraced)))
        account(r, "untraced")
        untraced.append(r)
        last = r["elapsed_s"]
        if args.trace:
            t = store.run("traced", spans=spans)
            account(t, "traced")
            traced.append(t)
            last += t["elapsed_s"]
        elapsed = time.monotonic() - start
        enough = len(untraced) >= (1 if args.trace else MIN_REPS)
        if enough and elapsed + last > budget:
            break

    if args.trace:
        differ = exact_counts_differ(traced)
        if differ:
            correct = False
            log("exact counts differ between traced repetitions: "
                + ", ".join(sorted(set(differ))))
    else:
        # top the set-up samples up with set-up-only repetitions
        while len(setups) < SETUP_SAMPLES and time.monotonic() - start < seconds:
            setups.append(sample(store.run("setup"))["setup_s"])

    probe_ns = probe[0] / max(1, probe[1])
    scale = (PROBE_REF_NS / probe_ns) ** PROBE_EXPONENT if probe_ns > 0 else 1.0
    log(f"host speed probe: {probe_ns:.0f} ns over {probe[1]} samples; "
        f"timings scaled by {scale:.4f}")
    if args.trace:
        metrics = per_layer(untraced, traced, scale, probe_ns)
    else:
        metrics = end_to_end(untraced, setups, attempted, failed, scale)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as e:
        kill_child()
        log(str(e))
        sys.exit(1)
