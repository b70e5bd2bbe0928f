#!/bin/sh -e
# CI gate: full build, the test suite, the static-verification pristine
# gate (any wrongness finding on the defect-free configuration is a
# verifier false positive and fails the build), the machine-layer
# abstract-interpretation gate (pristine must be clean on all three
# ISAs — x86, arm32 and the flagless rv32; the seeded sweep must flag
# both seeded accessor-gap families; counters land in VERIFY_ci.json
# with a per-ISA section each), then the
# translation-validation pristine gate (any confirmed refutation on the
# defect-free configuration, absent templates excepted, is a validator
# false positive and fails the build).  The validation run writes a
# machine-readable report; override the artifact path with
# CI_VALIDATE_REPORT, the solver-query budget with CI_VALIDATE_BUDGET,
# and the worker-domain count with CI_JOBS.  Unbudgeted validation
# output is byte-identical at any -j; with a budget the query cap is
# enforced but runs that actually exhaust it may differ slightly in
# which verdicts degrade to Unknown (see Campaign.run_supervised).
#
# The mutation gates follow: `vmtest mutate --pristine` runs every
# scheduled unit under an inert identity mutant and fails the build on
# any false kill, then a quick kill-matrix smoke (one subject per
# operator x compiler) writes MUTATION_ci.json and fails the build if
# any operator's mutants all survive or the overall kill rate drops
# below 90%.  The same smoke under --workers 2 must reproduce
# MUTATION_ci.json exactly once the pool's process stats and the store
# counters are popped.
#
# The robustness gates follow: a chaos campaign (three injected harness
# faults — a raising solver, a hung exploration, an allocation bomb —
# at seed-derived unit indices) must finish with exit 0, every fault
# contained as exactly its target unit's verdict, zero collateral
# damage and zero quarantines; it writes ROBUST_ci.json.  Then a resume
# smoke: a journalled campaign is truncated mid-way and resumed, and
# the merged JSON report must be byte-identical to a single-shot run's.
#
# The process-isolation gates follow: a chaos campaign with
# process-level faults (worker SIGKILL, SIGSTOP freeze, pipe garbage,
# exit 2) under --workers 2 must contain every lethal fault as a
# counted worker_died verdict with zero collateral loss (the result
# merges into ROBUST_ci.json as its process_chaos section); the
# campaign aggregate JSON must be byte-identical at --workers 1, 2 and
# 4 and equal to the in-process engine's modulo worker-side cache
# counters; the extracted:300 validate report must be byte-identical
# at -j 1 and -j 2 and equal at --workers 2 modulo the same counters;
# and a coordinator SIGKILLed mid-campaign must resume from
# its fsync'd --journal-sync journal to a byte-identical report.
#
# The warm-store validate gate follows: the extracted:300 validation
# fills a fresh store cold at -j 2 and then runs warm at -j 1, -j 2 and
# --workers 2; every report must equal the no-store -j 1 report once
# the store and cache counters, the pool's process stats and the
# validator query counts (a work counter that reads 0 when the store
# answers) are popped.  Warm in-process runs must read the store at
# most once per unit and once per subject (plus the corpus build's
# chunk reads) and hit it at least 95% of the time.
#
# Every report of a run without injected chaos must count zero
# retries: a retry nothing injected is a bug, not resilience.
#
# The warm-store gate follows: the same campaign twice against one
# fresh persistent store (`--store`); the second run must be served
# from disk (>= 95% store hit rate) and its aggregate JSON must be
# byte-identical to the cold run's once the store counters — the only
# honest difference — are popped.
#
# The corpus gate follows: a seeded 2k template-extracted mini-corpus
# is built through the full pipeline (compose, hole-fill, verify,
# probe, dedup) twice against one fresh store; the cold run must accept
# every requested subject with zero post-filter verifier rejections and
# out-cover the curated universe, the warm rebuild must be pure store
# hits with a byte-identical report (modulo store counters), and a
# --kills pass must kill every operator extracted-only that the curated
# corpus kills (the final report lands in CORPUS_ci.json).
#
# The bench smoke at the end replays the perf trajectory on a reduced
# universe and writes BENCH_ci.json; it exits non-zero when the solver
# cache's accounting is inconsistent (hits + misses != queries posed),
# when the warm-store replay diverges from the cold run, or (on the
# full universe) when the warm run is under 5x faster or cold solver
# queries regress above 80% of the PR 3 baseline.  `bench corpus`
# replays the corpus build cold and warm and gates the same invariants
# on throughput numbers (BENCH_ci_corpus.json).
cd "$(dirname "$0")/.."
# no_retries REPORT...: every unit of a run without injected chaos
# succeeded on its first attempt
no_retries() {
  python3 - "$@" <<'EOF'
import json, sys
for f in sys.argv[1:]:
    n = json.load(open(f))["supervision"]["totals"]["retries"]
    assert n == 0, f"{f}: {n} retries with no fault injected"
EOF
}
: "${CI_VALIDATE_REPORT:=_build/validate-pristine.json}"
: "${CI_VALIDATE_BUDGET:=2000}"
: "${CI_JOBS:=$(nproc 2>/dev/null || echo 2)}"
dune build @all
dune runtest
dune exec bin/vmtest.exe -- verify --pristine
dune exec bin/vmtest.exe -- verify --abstract --pristine > /dev/null
echo "ci: abstract pristine gate passed (zero false positives, 3 ISAs)"
dune exec bin/vmtest.exe -- verify --abstract --json VERIFY_ci.json > /dev/null
python3 - <<'EOF'
import json
v = json.load(open("VERIFY_ci.json"))
assert v["units"] > 600, f"abstract sweep covered only {v['units']} units"
assert v["truncated"] == 0, f"{v['truncated']} programs hit the path budget"
assert v["crosschecked"] == v["programs"], "symexec cross-check incomplete"
# per-ISA sections: each of the three ISAs must have lowered every unit
isas = {s["arch"]: s for s in v["per_isa"]}
assert set(isas) == {"x86", "arm32", "rv32"}, f"ISA sections: {set(isas)}"
for name, s in isas.items():
    assert s["programs"] == v["units"], \
        f"{name}: lowered {s['programs']} of {v['units']} units"
    assert s["truncated"] == 0, f"{name}: {s['truncated']} truncations"
assert v["programs"] == 3 * v["units"], "unit matrix is not 3x"
causes = {c["cause"] for c in v["causes"]}
seeded = {"missing reflective getter for rScr1",
          "missing reflective setter for rScr2"}
assert seeded <= causes, f"seeded families not flagged: {seeded - causes}"
print(f"ci: abstract sweep: {v['units']} units x {len(isas)} ISAs, "
      f"{v['programs']} programs, "
      f"{v['findings']} findings over {len(causes)} causes")
EOF
echo "ci: abstract verification report at VERIFY_ci.json"
dune exec bin/vmtest.exe -- validate --pristine -j "$CI_JOBS" \
  --budget "$CI_VALIDATE_BUDGET" --json "$CI_VALIDATE_REPORT" > /dev/null
no_retries "$CI_VALIDATE_REPORT"
CI_VALIDATE_REPORT="$CI_VALIDATE_REPORT" python3 - <<'EOF'
import json, os
v = json.load(open(os.environ["CI_VALIDATE_REPORT"]))
assert set(v["arches"]) == {"x86", "arm32", "rv32"}, \
    f"validate gate ran on {v['arches']}, expected all three ISAs"
for c in v["compilers"]:
    covered = {p["arch"] for p in c["per_arch"]}
    assert covered == set(v["arches"]), \
        f"{c['compiler']}: validated only {covered}"
print(f"ci: validation gate covered {len(v['arches'])} ISAs x "
      f"{len(v['compilers'])} compilers")
EOF
echo "ci: validation report at $CI_VALIDATE_REPORT"
dune exec bin/vmtest.exe -- mutate --pristine -j "$CI_JOBS" > /dev/null
echo "ci: mutation pristine gate passed (zero false kills)"
dune exec bin/vmtest.exe -- mutate -j "$CI_JOBS" --per-operator 1 \
  --json MUTATION_ci.json > /dev/null
no_retries MUTATION_ci.json
python3 - <<'EOF'
import json
m = json.load(open("MUTATION_ci.json"))
bad = [r["label"] for r in m["by_operator"] if r["units"] == 0 or r["survived"] == r["units"]]
assert not bad, f"operators never killed: {bad}"
rate = m["totals"]["kill_rate"]
assert rate >= 0.90, f"overall kill rate {rate:.2%} below 90%"
# the mc-* operators must exercise the flagless rv32 lowering, and
# every fired rv32 machine-layer mutant must die statically
mc_rv32 = [o for o in m["outcomes"]
           if o["operator"].startswith("mc-") and o["arch"] == "rv32"]
assert mc_rv32, "no mc-* mutants scheduled on rv32"
alive = [o for o in mc_rv32 if o["fired"] and o["kill"] != "static"]
assert not alive, f"fired rv32 mc-* mutants not killed statically: " \
    f"{[(o['operator'], o['subject'], o['kill']) for o in alive]}"
print(f"ci: mutation smoke: {m['totals']['units']} mutants, kill rate "
      f"{rate:.1%}; {len(mc_rv32)} mc-* mutants on rv32, all fired ones "
      f"killed statically")
EOF
echo "ci: mutation report at MUTATION_ci.json"
dune exec bin/vmtest.exe -- mutate --workers 2 --per-operator 1 \
  --json _build/ci-mutate-w2.json > /dev/null
no_retries _build/ci-mutate-w2.json
python3 - <<'EOF'
import json
pool = json.load(open("_build/ci-mutate-w2.json"))
inproc = json.load(open("MUTATION_ci.json"))
proc = pool["supervision"].pop("process")
inproc["supervision"].pop("process")
assert proc["deaths"] == proc["redeals"] == proc["garbage"] == 0, \
    f"pristine mutate workers run had incidents: {proc}"
pool.pop("store", None); inproc.pop("store", None)
assert pool == inproc, "mutate workers report diverges from in-process run"
print(f"ci: mutate workers gate: --workers 2 == in-process over "
      f"{inproc['totals']['units']} mutants")
EOF
dune exec bin/vmtest.exe -- campaign --chaos --seed 7 -j "$CI_JOBS" \
  --max-iterations 24 --json ROBUST_ci.json > /dev/null
python3 - <<'EOF'
import json
r = json.load(open("ROBUST_ci.json"))
sup, chaos = r["supervision"], r["chaos"]
assert chaos["enabled"] and len(chaos["targets"]) >= 3, "chaos plan too small"
incidents = {i["unit"]: i for i in sup["incidents"]}
targets = {t["unit"]: t["kind"] for t in chaos["targets"]}
# every fault contained as exactly its target unit's verdict
expected = {"solver-raise": "crashed", "explorer-hang": "timed_out",
            "alloc-bomb": "timed_out"}
for unit, kind in targets.items():
    got = incidents.get(unit)
    assert got, f"chaos fault at {unit} left no incident"
    assert got["verdict"] == expected[kind], \
        f"{unit}: {kind} yielded {got['verdict']}, expected {expected[kind]}"
# zero collateral damage: no incident outside the chaos schedule
stray = [u for u in incidents if u not in targets]
assert not stray, f"units lost outside the chaos schedule: {stray}"
t = sup["totals"]
assert t["quarantined"] == 0, f"{t['quarantined']} units quarantined"
assert t["timed_out"] + t["crashed"] == len(targets), "totals inconsistent"
print(f"ci: chaos gate: {len(targets)} faults injected, "
      f"{len(incidents)} contained, 0 lost, 0 quarantined")
EOF
echo "ci: robustness report at ROBUST_ci.json"
rm -f _build/ci-journal.jsonl _build/ci-journal-trunc.jsonl
dune exec bin/vmtest.exe -- campaign -j "$CI_JOBS" --max-iterations 24 \
  --journal _build/ci-journal.jsonl --json _build/ci-single.json > /dev/null
head -n 200 _build/ci-journal.jsonl > _build/ci-journal-trunc.jsonl
dune exec bin/vmtest.exe -- campaign -j "$CI_JOBS" --max-iterations 24 \
  --resume _build/ci-journal-trunc.jsonl --json _build/ci-resumed.json \
  > /dev/null
cmp _build/ci-single.json _build/ci-resumed.json
no_retries _build/ci-single.json _build/ci-resumed.json
echo "ci: resume smoke: truncated-journal resume is byte-identical"
# process-isolation gates.  First a chaos campaign with process-level
# faults (worker SIGKILL, SIGSTOP freeze, pipe garbage, exit 2) under
# --workers 2: every lethal fault must be contained as a counted
# worker_died verdict on exactly its target unit, pipe garbage must
# cost frames but never a verdict, nothing outside the schedule may
# be lost, and the pool's counters must equal the plan's exact figures.  The supervision section merges into ROBUST_ci.json as its
# process_chaos extension.
dune exec bin/vmtest.exe -- campaign --workers 2 --worker-deadline 2 \
  --chaos --chaos-faults 4 --seed 7 --max-iterations 24 \
  --json _build/ci-process-chaos.json > /dev/null
python3 - <<'EOF'
import json
r = json.load(open("_build/ci-process-chaos.json"))
sup, chaos = r["supervision"], r["chaos"]
proc = sup["process"]
assert proc is not None, "workers run reported no process stats"
assert not sup["interrupted"], "pristine chaos run flagged as interrupted"
targets = {t["unit"]: t["kind"] for t in chaos["targets"]}
incidents = {i["unit"]: i for i in sup["incidents"]}
lethal = {u: k for u, k in targets.items() if k != "pipe-garbage"}
for unit, kind in lethal.items():
    got = incidents.get(unit)
    assert got, f"process fault at {unit} left no incident"
    assert got["verdict"] == "worker_died", \
        f"{unit}: {kind} yielded {got['verdict']}, expected worker_died"
garbage_targets = [u for u, k in targets.items() if k == "pipe-garbage"]
for u in garbage_targets:
    assert u not in incidents, f"pipe garbage cost unit {u} its verdict"
if garbage_targets:
    assert proc["garbage"] >= len(garbage_targets), \
        f"garbage frames uncounted: {proc}"
stray = [u for u in incidents if u not in targets]
assert not stray, f"units lost outside the chaos schedule: {stray}"
t = sup["totals"]
assert t["quarantined"] == 0, f"{t['quarantined']} units quarantined"
assert t["worker_died"] == len(lethal), "worker_died total inconsistent"
assert t["timed_out"] == 0 and t["crashed"] == 0, \
    "process faults leaked into in-process verdicts"
# exact death accounting for this plan: each lethal fault kills its
# worker on both attempts its unit gets (the stop by the deadline), and
# a unit a dying worker had only queued goes back uncharged, so it adds
# no redeal, no retry and no attempt
assert (proc["deaths"], proc["preempted"], proc["redeals"], proc["garbage"]) \
    == (6, 2, 3, 1), f"process counters moved: {proc}"
assert (t["ok"], t["worker_died"], t["retries"]) == (682, 3, 3), \
    f"totals moved: {t}"
died = sorted((i["unit"], i["detail"], i["attempts"]) for i in sup["incidents"])
assert died == sorted([("native|primFloatEqual", "signal sigkill", 2),
                       ("simple|special[bitOr:]", "deadline signal sigkill", 2),
                       ("s2r|jump5", "exit 2", 2)]), f"incidents moved: {died}"
rob = json.load(open("ROBUST_ci.json"))
rob["process_chaos"] = {"supervision": sup, "targets": chaos["targets"]}
json.dump(rob, open("ROBUST_ci.json", "w"), separators=(",", ":"))
print(f"ci: process-chaos gate: {len(lethal)} lethal faults -> worker_died, "
      f"{len(garbage_targets)} garbage fault(s) recovered "
      f"({proc['garbage']} frames counted), 0 lost, 0 quarantined")
EOF
echo "ci: process-isolation chaos gate merged into ROBUST_ci.json"
# worker-count determinism: the aggregate JSON must be byte-identical
# at any worker count, and must equal the in-process engine's
# everywhere the coordinator can honestly observe (solver/path caches
# live inside the workers, so their counters are popped)
dune exec bin/vmtest.exe -- campaign --workers 1 --max-iterations 24 \
  --json _build/ci-w1.json > /dev/null
dune exec bin/vmtest.exe -- campaign --workers 2 --max-iterations 24 \
  --json _build/ci-w2.json > /dev/null
dune exec bin/vmtest.exe -- campaign --workers 4 --max-iterations 24 \
  --json _build/ci-w4.json > /dev/null
cmp _build/ci-w1.json _build/ci-w2.json
cmp _build/ci-w2.json _build/ci-w4.json
no_retries _build/ci-w2.json
python3 - <<'EOF'
import json
pool = json.load(open("_build/ci-w2.json"))
inproc = json.load(open("_build/ci-single.json"))
proc = pool["supervision"].pop("process")
inproc["supervision"].pop("process")
assert proc["deaths"] == proc["redeals"] == proc["garbage"] == 0, \
    f"pristine workers run had incidents: {proc}"
pool.pop("caches", None); inproc.pop("caches", None)
assert pool == inproc, "workers aggregates diverge from in-process engine"
print("ci: worker-count determinism: workers 1 == 2 == 4, == in-process "
      "modulo pool process stats")
EOF
# extracted-validation determinism: each unit's static analysis and
# each path's compiled IR are computed once and handed down within the
# unit, never shared across domains or processes.  The validate report
# over a seeded extracted:300 corpus must be byte-identical at -j 1 and
# -j 2, and the --workers 2 report must equal them modulo the pool's
# process stats and the worker-side cache counters (as above)
dune exec bin/vmtest.exe -- validate --corpus extracted:300 -j 1 \
  --json _build/ci-vx-j1.json > /dev/null
dune exec bin/vmtest.exe -- validate --corpus extracted:300 -j 2 \
  --json _build/ci-vx-j2.json > /dev/null
dune exec bin/vmtest.exe -- validate --corpus extracted:300 --workers 2 \
  --json _build/ci-vx-w2.json > /dev/null
cmp _build/ci-vx-j1.json _build/ci-vx-j2.json
no_retries _build/ci-vx-j1.json _build/ci-vx-w2.json
python3 - <<'EOF'
import json
pool = json.load(open("_build/ci-vx-w2.json"))
inproc = json.load(open("_build/ci-vx-j1.json"))
proc = pool["supervision"].pop("process")
assert inproc["supervision"].pop("process") is None
assert proc["deaths"] == proc["redeals"] == proc["garbage"] == 0, \
    f"extracted validate workers run had incidents: {proc}"
pool.pop("caches"); inproc.pop("caches")
assert pool == inproc, "extracted validate: --workers 2 diverges from -j 1"
print("ci: extracted-validation determinism: -j 1 == -j 2 == --workers 2 "
      "modulo pool process stats")
EOF
# warm-store validation: a store filled cold at -j 2 serves warm runs
# at -j 1, -j 2 and --workers 2 whose reports equal the no-store one.
# A warm validated unit reads its unit-verdict entry and its subject's
# exploration, and nothing else
rm -rf _build/ci-vx-store
dune exec bin/vmtest.exe -- validate --corpus extracted:300 -j 2 \
  --store _build/ci-vx-store --json _build/ci-vx-cold.json > /dev/null
dune exec bin/vmtest.exe -- validate --corpus extracted:300 -j 1 \
  --store _build/ci-vx-store --json _build/ci-vx-warm-j1.json > /dev/null
dune exec bin/vmtest.exe -- validate --corpus extracted:300 -j 2 \
  --store _build/ci-vx-store --json _build/ci-vx-warm-j2.json > /dev/null
dune exec bin/vmtest.exe -- validate --corpus extracted:300 --workers 2 \
  --store _build/ci-vx-store --json _build/ci-vx-warm-w2.json > /dev/null
no_retries _build/ci-vx-cold.json _build/ci-vx-warm-j1.json \
  _build/ci-vx-warm-j2.json _build/ci-vx-warm-w2.json
python3 - <<'EOF'
import json
def load(name):
    return json.load(open(f"_build/ci-vx-{name}.json"))
def no_queries(counts):
    return {k: v for k, v in counts.items() if k != "queries"}
def stripped(r):
    store = r.pop("store")
    r.pop("caches")
    r["supervision"].pop("process")
    # validator queries count work done, and a warm run does none
    r["totals"] = no_queries(r["totals"])
    for c in r["compilers"]:
        c["totals"] = no_queries(c["totals"])
        for p in c["per_arch"]:
            p["counts"] = no_queries(p["counts"])
    return r, store
base, _ = stripped(load("j1"))
cold, cs = stripped(load("cold"))
assert cs["enabled"] and cs["writes"] > 0, f"cold validate wrote nothing: {cs}"
assert cold == base, "extracted validate: cold store run diverges from no store"
assert load("cold")["totals"]["queries"] == load("j1")["totals"]["queries"], \
    "cold store run posed a different number of validator queries"
# the --workers 2 coordinator runs no unit: its store reads are the
# corpus build's chunk reads alone
_, ws = stripped(load("warm-w2"))
chunk_reads = ws["hits"] + ws["misses"]
for name in ("warm-j1", "warm-j2", "warm-w2"):
    warm, ws = stripped(load(name))
    assert warm == base, f"extracted validate: {name} diverges from no store"
    reads = ws["hits"] + ws["misses"]
    assert reads and ws["hits"] / reads >= 0.95, \
        f"{name}: store hit rate {ws['hits']}/{reads} below 95%"
    if name == "warm-w2":
        continue
    ok = {c["compiler"]: c["counts"]["ok"] for c in warm["supervision"]["per_compiler"]}
    units = sum(ok.values())
    # the byte-code front-ends share one subject list
    subjects = ok.get("native", 0) + max(
        (n for c, n in ok.items() if c != "native"), default=0)
    bound = units + subjects + chunk_reads
    assert reads <= bound, \
        f"{name}: {reads} store reads exceed {units} units + " \
        f"{subjects} subjects + {chunk_reads} corpus chunks"
    print(f"ci: warm-store validate gate: {name}: {reads} store reads "
          f"(bound {bound}), {ws['hits']} hits, report equals no-store")
print(f"ci: warm-store validate gate: cold run wrote {cs['writes']} entries")
EOF
# crash-only coordinator: SIGKILL the coordinator mid-campaign, then
# resume from its fsync'd (--journal-sync) journal; the merged report
# must be byte-identical to an uninterrupted --workers 2 run
rm -f _build/ci-kill-journal.jsonl
./_build/default/bin/vmtest.exe campaign --workers 2 --max-iterations 24 \
  --journal _build/ci-kill-journal.jsonl --journal-sync \
  --json _build/ci-kill-unfinished.json > /dev/null 2>&1 &
CI_KILL_PID=$!
sleep 1
kill -9 "$CI_KILL_PID" 2>/dev/null || true
wait "$CI_KILL_PID" 2>/dev/null || true
dune exec bin/vmtest.exe -- campaign --workers 2 --max-iterations 24 \
  --resume _build/ci-kill-journal.jsonl --json _build/ci-kill-resumed.json \
  > /dev/null
cmp _build/ci-w2.json _build/ci-kill-resumed.json
echo "ci: coordinator-kill resume is byte-identical"
rm -rf _build/ci-store
dune exec bin/vmtest.exe -- campaign -j "$CI_JOBS" --max-iterations 24 \
  --store _build/ci-store --json _build/ci-store-cold.json > /dev/null
dune exec bin/vmtest.exe -- campaign -j "$CI_JOBS" --max-iterations 24 \
  --store _build/ci-store --json _build/ci-store-warm.json > /dev/null
no_retries _build/ci-store-cold.json _build/ci-store-warm.json
python3 - <<'EOF'
import json
cold = json.load(open("_build/ci-store-cold.json"))
warm = json.load(open("_build/ci-store-warm.json"))
cs, ws = cold.pop("store"), warm.pop("store")
assert cs["enabled"] and ws["enabled"], "store not active in campaign runs"
assert cs["writes"] > 0, "cold campaign wrote nothing to the store"
reads = ws["hits"] + ws["misses"]
rate = ws["hits"] / reads if reads else 0.0
assert rate >= 0.95, f"warm campaign store hit rate {rate:.1%} below 95%"
assert cold == warm, "cold and warm campaign aggregates differ"
print(f"ci: warm-store gate: {cs['writes']} entries written cold, "
      f"{ws['hits']}/{reads} warm reads hit ({rate:.1%}), "
      f"aggregates identical modulo store counters")
EOF
echo "ci: warm-store gate passed"
rm -rf _build/ci-corpus-store
dune exec bin/vmtest.exe -- corpus -n 2000 --seed 42 -j "$CI_JOBS" \
  --store _build/ci-corpus-store --json _build/ci-corpus-cold.json > /dev/null
dune exec bin/vmtest.exe -- corpus -n 2000 --seed 42 -j "$CI_JOBS" \
  --store _build/ci-corpus-store --json _build/ci-corpus-warm.json > /dev/null
python3 - <<'EOF'
import json
cold = json.load(open("_build/ci-corpus-cold.json"))
warm = json.load(open("_build/ci-corpus-warm.json"))
cs, ws = cold.pop("store"), warm.pop("store")
assert cold["gate"]["passed"], f"corpus gate failed: {cold['gate']}"
assert cold["stats"]["accepted"] >= cold["n"], \
    f"only {cold['stats']['accepted']} of {cold['n']} subjects accepted"
assert cold["stats"]["post_filter_rejections"] == 0, \
    f"{cold['stats']['post_filter_rejections']} post-filter rejections"
ec, cc = cold["coverage"]["extracted"], cold["coverage"]["curated"]
assert ec["fingerprints"] > cc["fingerprints"], \
    f"extracted {ec['fingerprints']} fingerprints vs curated {cc['fingerprints']}"
assert cs["writes"] > 0, "cold corpus build wrote nothing to the store"
assert ws["misses"] == 0, f"warm corpus rebuild missed {ws['misses']} reads"
assert cold == warm, "cold and warm corpus reports differ"
print(f"ci: corpus gate: {cold['stats']['accepted']} subjects accepted, "
      f"0 post-filter rejections, dedup ratio {cold['dedup_ratio']:.4f}, "
      f"{ec['paths']} paths ({ec['distinct_paths']} distinct) vs curated "
      f"{cc['paths']} ({cc['distinct_paths']}); warm rebuild "
      f"{ws['hits']} hits / 0 misses, report identical")
EOF
dune exec bin/vmtest.exe -- corpus -n 2000 --seed 42 -j "$CI_JOBS" --kills \
  --store _build/ci-corpus-store --json CORPUS_ci.json > /dev/null
python3 - <<'EOF'
import json
c = json.load(open("CORPUS_ci.json"))
assert c["gate"]["passed"], f"corpus kill gate failed: {c['gate']}"
lost = [k["operator"] for k in c["kills"] if k["curated"] and not k["extracted"]]
assert not lost, f"operators lost extracted-only: {lost}"
killed = sum(1 for k in c["kills"] if k["extracted"])
print(f"ci: corpus kill gate: {killed}/{len(c['kills'])} operators killed "
      f"extracted-only, none lost vs curated")
EOF
echo "ci: corpus report at CORPUS_ci.json"
dune exec bench/main.exe -- perf --quick -j "$CI_JOBS" --json ci
echo "ci: bench smoke report at BENCH_ci.json"
dune exec bench/main.exe -- verify --quick --json ci_verify
python3 - <<'EOF'
import json
b = json.load(open("BENCH_ci_verify.json"))
for p in b["phases"]:
    isas = {s["arch"] for s in p["per_isa"]}
    assert isas == {"x86", "arm32", "rv32"}, \
        f"{p['name']}: per-ISA timing covers only {isas}"
print(f"ci: verify bench: {len(b['phases'])} phase(s), per-ISA timing "
      f"for all three ISAs")
EOF
echo "ci: abstract-interp timing report at BENCH_ci_verify.json (full \
reference trajectory committed as BENCH_pr7.json)"
dune exec bench/main.exe -- corpus --n 2000 --seed 42 -j "$CI_JOBS" \
  --json ci_corpus
echo "ci: corpus throughput report at BENCH_ci_corpus.json"
echo "ci: OK"
