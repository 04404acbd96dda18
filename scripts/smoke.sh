#!/usr/bin/env bash
# End-to-end CLI smoke: three tables, each row one line, plus the checks
# `xmpsim verify` cannot express.
#
#   1. verify rows: `xmpsim verify` runs a scenario on every worker count
#      its logical shards allow, checkpointed and killed + restored, and
#      byte-compares the results of every leg (DESIGN.md §15); then content
#      asserts on kept legs' summary.json, and on the flip row's manifest:
#      the kill leg resumed from a snapshot;
#   2. checks verify cannot do: the routing policy x fault matrix, the
#      checkpoint count across worker counts, SIGTERM -> exit 143 + restore under
#      --invariants, trace validation, campaign kill/resume for a seed and
#      an FCT sweep, a sweep without --out (the same campaign in a temp dir
#      under TMPDIR) and the resume of a load no JSON double would round;
#   3. reject rows: a one-line diagnostic and exit 2 for every unsupported
#      flag combination, unknown flag and flag with no effect on the run.
#
#   scripts/smoke.sh [build-dir]   # default: build
set -euo pipefail
cd "$(dirname "$0")/.."

build="${1:-build}"
bin="$(pwd)/$build/apps/xmpsim"
[ -x "$bin" ] || { echo "missing $bin (build first)" >&2; exit 2; }

tmp="$(mktemp -d)"
campaign=""
cleanup() {
  # A campaign runs in its own process group (setsid): reap all of it.
  if [ -n "$campaign" ]; then kill -9 -- "-$campaign" 2>/dev/null || true; fi
  rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

fail() { echo "FAIL: $*" >&2; exit 1; }

# json_check FILE 'EXPR; EXPR; ...': every Python expression must hold, with
# the document's top-level keys (and the whole document as `s`) in scope.
json_check() {
  python3 - "$@" <<'EOF'
import json, sys
s = json.load(open(sys.argv[1]))
env = dict(s, s=s)
for e in filter(None, map(str.strip, sys.argv[2].split(";"))):
    if not eval(e, {}, env):
        sys.exit(f"FAIL: {sys.argv[1]}: {e}")
EOF
}

# Newest snapshot in DIR (highest seq), as a path; empty if none.
newest_ckpt() {
  local name
  name="$(cd "$1" && ls -v ckpt_*.bin 2>/dev/null | tail -1)"
  [ -z "$name" ] || echo "$1/$name"
}

perm="--pattern=permutation --scheme=xmp --subflows=2 --k=4 --seed=11"
# Every gray kind at once, overlapping in time, on distinct links; then the
# gray kinds crossed with hard faults on yet other links.
gray="degrade,link=2,at=0.01,factor=0.4,until=0.03;delay,link=5,at=0.005,dt=1e-4,jitter=5e-5,until=0.04;reorder,link=7,at=0.01,p=0.05,dt=2e-4;duplicate,link=9,at=0,p=0.02;overmark,link=11,at=0.02,p=0.3"
mixed="$gray;down,link=14,at=0.015,until=0.035;loss,link=3,at=0,p=0.01,corrupt=0.2;gilbert,link=16,at=0.01,pgb=0.01,pbg=0.1,pbad=0.3"
# 500 finite fluid aggregates (2 MB, the last 256 kB promoted to packets) +
# 2 packet flows. Band: a k=4 tree has 160 Gbps of edge capacity, 0.2 s is
# 1000 ticks of 200 us, and every aggregate is fluid, promoted or complete.
hybrid="--hybrid --scheme=xmp --subflows=2 --k=4 --hybrid-bg=500:2000000 --hybrid-fg=2 --hybrid-promote-bytes=256000 --duration=0.2 --seed=11"
band='0 < hybrid["fluid_throughput_mbps"] <= 160000; 0 <= hybrid["mean_mark_p"] <= 1; hybrid["ticks"] == 1000; hybrid["active_fluid"] + hybrid["promotions"] + hybrid["fluid_completions"] == hybrid["bg_flows"]; hybrid["promotions"] > 0'
imp='impairments["duplicated"] > 0; impairments["delayed"] > 0; impairments["overmarked"] > 0'
inv='summary["invariant_checks"] > 0; summary["invariant_violations"] == 0'
# Three links down at 50 ms with no reroute for 60 s: four subflows re-home
# at ~0.65 s, after the kill legs' first snapshot.
rehome="--pattern=permutation --scheme=xmp --subflows=2 --k=4 --rounds=4 --duration=1.0 --seed=7 --faults=down,link=40,at=0.05;down,link=44,at=0.05;down,link=8,at=0.05 --reroute-delay=60 --dead-after=2 --rehome=4 --checkpoint-every=0.05"

echo "== 1. verify rows =="
# name     | legs the asserts read | asserts                 | scenario
verify_rows=(
  "one       | shards1        | 'sharding' in s       | $perm --rounds=1 --duration=0.05"
  "flip      | shards1        | 'sharding' in s       | $perm --rounds=2 --duration=0.3"
  "gray      | shards1        | $imp                  | $perm --rounds=1 --duration=0.05 --faults=$gray"
  "mixed     | shards1        | $inv                  | $perm --rounds=1 --duration=0.05 --routing=ecmp --faults=$mixed --invariants"
  "flowlet   | shards1        | routing['flowlet_repaths'] > 0 | $perm --rounds=1 --duration=0.05 --routing=flowlet"
  "hybrid    | shards1        | $band                 | $hybrid"
  "websearch | shards1        | fct['completed'] > 0  | --workload=configs/workloads/websearch.wl --load=0.3 --k=4 --duration=0.05 --seed=11"
  "random    |                |                       | --pattern=random --scheme=xmp --k=4 --duration=0.05 --seed=11"
  "coexist   | shards1        | summary['avg_goodput_b_mbps'] > 0 | --pattern=random --scheme=xmp --subflows=2 --coexist=dctcp --k=4 --duration=0.05 --seed=11"
  "rehome    | shards1        | routing['path_rehomes'] > 0 | $rehome"
  "incast    |                |                       | --pattern=incast --scheme=xmp --k=4 --duration=0.05 --seed=11"
)
for row in "${verify_rows[@]}"; do
  IFS='|' read -r name legs checks flags <<< "$row"
  read -r name <<< "$name"
  read -r -a argv <<< "$flags"
  echo "-- verify $name"
  "$bin" verify "${argv[@]}" --dir="$tmp/$name" || fail "verify $name"
  for leg in $legs; do json_check "$tmp/$name/$leg/summary.json" "$checks"; done
  if [ "$name" = flip ]; then
    # The kill leg was SIGKILLed at a snapshot and resumed from one.
    json_check "$tmp/$name/sweep_manifest.json" "
      [j['attempts'] for j in jobs if j['dir'].endswith('-kill')] == [2];
      all(j['lineage'][1].startswith('ckpt_') for j in jobs if j['dir'].endswith('-kill'))"
  fi
  rm -rf "${tmp:?}/$name"
done

echo "== 2. checks verify cannot do =="

echo "-- routing policy x fault matrix"
# One rack uplink and one core link fail mid-run, then the rack link heals.
route_plan='down,link=4,at=0.05; down,link=40,at=0.05; up,link=4,at=0.2'
for policy in pinned ecmp wcmp flowlet; do
  for faults in none plan; do
    args=(run --pattern=permutation --scheme=xmp --subflows=2 --k=4 --duration=0.3 --seed=7
          "--routing=$policy" "--json=$tmp/route.json")
    checks="routing['policy'] == '$policy'; routing['forwarded'] > 0"
    if [ "$faults" = plan ]; then
      args+=("--faults=$route_plan" --reroute-delay=0.002)
      checks+="; routing['reroutes'] >= 1"
    fi
    "$bin" "${args[@]}" > /dev/null || fail "route $policy/$faults"
    json_check "$tmp/route.json" "$checks"
  done
done

echo "-- same checkpoint count at every worker count"
# Boundaries lie strictly before a horizon that is a multiple of the
# cadence: one inline worker and two workers both write at 1, 2 and 3 ms,
# neither at the horizon.
cadence=(--pattern=permutation --scheme=xmp --k=4 --rounds=1 --duration=0.004
         --checkpoint-every=0.001)
for shards in 0 2; do
  mkdir -p "$tmp/cadence-$shards"
  "$bin" run "${cadence[@]}" "--shards=$shards" "--checkpoint-dir=$tmp/cadence-$shards" \
    | grep -o 'checkpoints: [0-9]* written' > "$tmp/cadence-$shards.txt"
done
cmp -s "$tmp/cadence-0.txt" "$tmp/cadence-2.txt" ||
  fail "checkpoint count: --shards=0 $(cat "$tmp/cadence-0.txt"), --shards=2 $(cat "$tmp/cadence-2.txt")"
snap="$(newest_ckpt "$tmp/cadence-0")"
# One flipped payload byte: the CRC check must reject it (reject rows).
bad="$tmp/bad.bin"
cp "$snap" "$bad"
printf '\x5a' | dd of="$bad" bs=1 seek=80 conv=notrunc status=none

echo "-- SIGTERM writes a final snapshot, exits 143, and restores under --invariants"
term="$tmp/term"; mkdir -p "$term"
term_run=(--pattern=permutation --scheme=xmp --subflows=2 --k=4 --rounds=2 --duration=0.4 --seed=11)
"$bin" run "${term_run[@]}" --checkpoint-every=0.005 "--checkpoint-dir=$term" \
  > "$term/out.txt" 2> "$term/err.txt" &
pid=$!
for _ in $(seq 1 200); do
  [ -n "$(newest_ckpt "$term")" ] && break
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.05
done
kill -TERM "$pid" 2>/dev/null || true
rc=0; wait "$pid" || rc=$?
if [ "$rc" -eq 143 ]; then
  grep -q "interrupted at" "$term/err.txt" || fail "exit 143 without the 'interrupted at' notice"
  ck="$(newest_ckpt "$term")"
  [ -n "$ck" ] || fail "exit 143 but no checkpoint on disk"
  "$bin" run "--restore=$ck" "${term_run[@]}" --invariants > "$term/restore.txt"
  grep -q "invariant" "$term/restore.txt" || fail "restore --invariants printed no invariant summary"
else
  # The run can win the race and finish first: an empty sample, not a failure.
  [ "$rc" -eq 0 ] || fail "SIGTERM run exited $rc (want 143 or 0)"
  echo "   SIGTERM run finished before the signal landed; skipped"
fi

echo "-- traced run: Chrome trace JSON and metrics"
(cd "$tmp" && "$bin" run --pattern=permutation --scheme=xmp --subflows=2 --k=4 --duration=0.1 \
  --seed=7 --trace=trace.json --trace-csv=trace.csv --metrics=metrics.json > /dev/null)
python3 scripts/validate_trace.py "$tmp/trace.json" --require-counter 'cwnd[' --require-counter 'gain['
[ -s "$tmp/trace.csv" ] || fail "traced run wrote no trace.csv"
python3 -c "import json, sys; json.load(open(sys.argv[1]))" "$tmp/metrics.json"

# campaign NAME TOTAL "SUMMARIES" SWEEP-ARGS...: two seeded campaigns agree
# (the first one's stdout is kept in $tmp/NAME/ref.txt);
# a campaign SIGKILLed (whole process group) after some of its TOTAL jobs
# publishes no summary; --resume reproduces the summaries byte for byte
# without re-running settled jobs; a second --resume is a no-op.
campaign_check() {
  local name="$1" total="$2" summaries="$3"; shift 3
  local d="$tmp/$name" f n
  mkdir -p "$d"
  "$bin" "$@" "--out=$d/ref" > "$d/ref.txt"
  "$bin" "$@" "--out=$d/ref2" > /dev/null
  for f in $summaries; do
    cmp "$d/ref/$f" "$d/ref2/$f" || fail "$name: two seeded campaigns disagree on $f"
  done
  setsid "$bin" "$@" "--out=$d/int" > /dev/null 2>&1 &
  campaign=$!
  succeeded() { grep -c '"state": "succeeded"' "$d/int/sweep_manifest.json" 2>/dev/null || true; }
  for _ in $(seq 1 400); do
    n="$(succeeded)"
    [ "${n:-0}" -ge 2 ] && break
    sleep 0.05
  done
  kill -9 -- "-$campaign" 2>/dev/null || true
  wait "$campaign" 2>/dev/null || true
  campaign=""
  n="$(succeeded)"; n="${n:-0}"
  echo "   $name: killed with $n/$total jobs succeeded"
  [ "$n" -ge 1 ] && [ "$n" -lt "$total" ] || fail "$name: kill did not land mid-campaign"
  for f in $summaries; do
    [ ! -f "$d/int/$f" ] || fail "$name: interrupted campaign published $f"
  done
  "$bin" sweep "--resume=$d/int" > /dev/null
  for f in $summaries; do
    cmp "$d/ref/$f" "$d/int/$f" || fail "$name: resumed $f differs from the uninterrupted one"
  done
  json_check "$d/int/harness_metrics.json" "counters['harness.jobs_resumed'] >= $n;
    counters['harness.spawns'] <= $total - $n + counters['harness.retries']"
  "$bin" sweep "--resume=$d/int" > /dev/null
  for f in $summaries; do
    cmp "$d/ref/$f" "$d/int/$f" || fail "$name: a second resume changed $f"
  done
}

echo "-- seed sweep campaign kill/resume"
seed_sweep=(sweep --param=seed --values=1,2,3,4,5,6,7,8 --pattern=random --scheme=xmp --k=4
            --duration=0.05 --jobs=1 --retries=1)
campaign_check sweep 8 "sweep_summary.json" "${seed_sweep[@]}"

echo "-- a sweep without --out: the same campaign in a temp dir, removed after"
scratch="$tmp/tmpdir"; mkdir -p "$scratch"
TMPDIR="$scratch" "$bin" "${seed_sweep[@]}" > "$tmp/sweep/noout.txt"
cmp "$tmp/sweep/ref.txt" "$tmp/sweep/noout.txt" || fail "sweep stdout differs without --out"
[ -z "$(ls -A "$scratch")" ] || fail "a sweep without --out left $(ls "$scratch") behind"
TMPDIR="$scratch" "$bin" sweep --param=seed --values=1,2 --pattern=permutation --k=4 \
  --rounds=1 --duration=0.03 --checkpoint-every=0.01 > /dev/null ||
  fail "a checkpointed sweep without --out failed"
[ -z "$(ls -A "$scratch")" ] || fail "a checkpointed sweep left $(ls "$scratch") behind"

echo "-- a load campaign resumes with the exact value it swept"
# "%.9g" would store 0.1234567891 as 0.123456789: a different grid.
load_sweep=(sweep --param=load --values=0.1234567891 --workload=configs/workloads/websearch.wl
            --k=4 --duration=0.02 --seed=5 --jobs=1)
"$bin" "${load_sweep[@]}" "--out=$tmp/load" > "$tmp/load.txt"
"$bin" sweep "--resume=$tmp/load" > "$tmp/load-resumed.txt" || fail "load campaign did not resume"
cmp "$tmp/load.txt" "$tmp/load-resumed.txt" || fail "resumed load campaign printed another table"

echo "-- FCT campaign kill/resume (2 loads x 4 schemes, websearch CDF)"
campaign_check fct 8 "fct_summary.json sweep_summary.json" \
  sweep --param=load --values=0.1,0.3 --schemes=xmp,dctcp,lia,olia \
  --workload=configs/workloads/websearch.wl --k=4 --duration=1.0 --seed=5 --jobs=1 --retries=1
python3 - "$tmp/fct/ref/fct_summary.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["param"] == "load", doc.get("param")
table = doc["table"]
assert len(table) == 8, f"expected 8 rows, got {len(table)}"
bins = {"0-10K", "10K-100K", "100K-1M", "1M-10M", ">10M"}
quantiles = {"count", "mean", "p50", "p95", "p99"}
for row in table:
    for key in ("index", "value", "scheme", "offered_load", "completed", "censored"):
        assert key in row, f"row missing {key}: {row}"
    assert row["scheme"] in ("xmp", "dctcp", "lia", "olia"), row["scheme"]
    assert 0 < row["value"] <= 1.2, row["value"]
    assert set(row["all"]) == quantiles, row["all"]
    assert set(row["bins"]) == bins, sorted(row["bins"])
    for b in bins:
        assert set(row["bins"][b]) == quantiles
    # Open-loop accounting: the "all" distribution counts every completion.
    assert row["all"]["count"] == row["completed"], row
    if row["completed"] > 0:
        assert row["all"]["p50"] >= 1.0, f"slowdown below ideal: {row}"
        assert row["all"]["p99"] >= row["all"]["p50"], row
assert sum(r["completed"] for r in table) > 0, "campaign completed zero flows"
EOF

echo "== 3. reject rows =="
# diagnostic (grep -E)                                   | argv
reject_rows=(
  "--coexist=dctcp has no effect on this run               | run $perm --coexist=dctcp --duration=0.01"
  "--hybrid-bg=10 has no effect on this run                | run --hybrid-bg=10 --duration=0.01"
  "--hybrid requires --scheme=xmp                          | run --hybrid --scheme=tcp --duration=0.01"
  "--pattern=stride has no effect on this run              | run --hybrid --scheme=xmp --subflows=2 --pattern=stride --duration=0.01"
  "bad --hybrid-bg=0                                       | run --hybrid --scheme=xmp --subflows=2 --hybrid-bg=0 --duration=0.01"
  "--faults=.* has no effect on this run                   | run --hybrid --faults=$gray"
  "--fct-csv=x.csv has no effect on this run               | run --pattern=permutation --fct-csv=x.csv --duration=0.01"
  "unknown flag --bogus=1                                  | run $perm --bogus=1 --duration=0.01"
  "--rounds=4 has no effect on this run                    | run --pattern=random --scheme=xmp --k=4 --rounds=4 --duration=0.01"
  "restore failed: .*CRC mismatch                          | run ${cadence[*]} --checkpoint-dir=$tmp --restore=$bad"
  "restore failed: .*config fingerprint mismatch           | run $hybrid --checkpoint-dir=$tmp --restore=$snap"
  "verify drives --shards itself                           | verify $perm --duration=0.05 --shards=4"
  "verify drives --json itself                             | verify $perm --duration=0.05 --json=out.json"
)
for row in "${reject_rows[@]}"; do
  IFS='|' read -r want argv <<< "$row"
  read -r want <<< "$want"
  read -r -a args <<< "$argv"
  rc=0; "$bin" "${args[@]}" > /dev/null 2> "$tmp/err.txt" || rc=$?
  [ "$rc" -eq 2 ] || { cat "$tmp/err.txt" >&2; fail "'${args[*]}' exited $rc, want 2"; }
  grep -qE -e "$want" "$tmp/err.txt" ||
    { cat "$tmp/err.txt" >&2; fail "'${args[*]}' lacks the diagnostic '$want'"; }
  echo "   rejected: $want"
done
echo "OK"
