#!/usr/bin/env bash
# Sharded-engine smoke: the same experiment through the CLI at --shards=1,
# 2, 3 and 4 (k=4 has four logical shards, so 3 workers split them 2/1/1),
# once for a single round and once for two rounds (the round flip runs as
# serial micro-steps across every shard), asserting the summary JSON,
# timeline CSV and metrics dump are all byte-for-byte identical across N
# (worker-count invariance is the engine's core guarantee — logical shards
# are fixed by the topology, so N only changes wall-clock, never results).
# Also asserts the up-front one-line rejections for unsupported feature
# combinations exit 2 without running anything.
#
#   scripts/shard_smoke.sh [build-dir]   # default: build
set -euo pipefail
cd "$(dirname "$0")/.."

build="${1:-build}"
bin="$build/apps/xmpsim"
[ -x "$bin" ] || { echo "missing $bin (build first)" >&2; exit 2; }

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

common=(run --pattern=permutation --scheme=xmp --subflows=2 --k=4 --seed=11)
# name:extra-args; "flip" crosses a round flip.
for spec in "one:--rounds=1 --duration=0.05" "flip:--rounds=2 --duration=0.3"; do
  tag="${spec%%:*}"
  read -r -a extra <<< "${spec#*:}"
  for n in 1 2 3 4; do
    echo "== shard smoke ($tag): --shards=$n =="
    "$bin" "${common[@]}" "${extra[@]}" "--shards=$n" "--json=$tmp/summary-$tag-$n.json" \
      "--trace-csv=$tmp/trace-$tag-$n.csv" "--metrics=$tmp/metrics-$tag-$n.json" \
      > "$tmp/out-$tag-$n.txt"
    grep -q '"sharding":' "$tmp/summary-$tag-$n.json" || {
      echo "FAIL($tag, --shards=$n): summary JSON has no sharding block" >&2
      exit 1
    }
  done

  for n in 2 3 4; do
    for f in summary-X.json trace-X.csv metrics-X.json; do
      cmp "$tmp/${f/X/$tag-1}" "$tmp/${f/X/$tag-$n}" || {
        echo "FAIL($tag): --shards=$n ${f%%-*} differs from --shards=1 (determinism broken)" >&2
        exit 1
      }
    done
  done
  echo "$tag: shards=1/2/3/4 summary/trace/metrics byte-identical"
done

# Unsupported combinations must be rejected up front with exit 2.
expect_exit2() {
  local why="$1"; shift
  set +e
  "$bin" "$@" > /dev/null 2> "$tmp/reject-err.txt"
  local rc=$?
  set -e
  if [ "$rc" -ne 2 ]; then
    echo "FAIL($why): expected exit 2, got $rc" >&2
    cat "$tmp/reject-err.txt" >&2
    exit 1
  fi
  [ -s "$tmp/reject-err.txt" ] || {
    echo "FAIL($why): no diagnostic on stderr" >&2
    exit 1
  }
}
expect_exit2 "random pattern"  run --pattern=random  --scheme=xmp --k=4 --duration=0.01 --shards=2
expect_exit2 "coexist"         run --pattern=permutation --scheme=xmp --coexist=dctcp --k=4 --duration=0.01 --shards=2
expect_exit2 "flowlet routing" run --pattern=permutation --scheme=xmp --routing=flowlet --k=4 --duration=0.01 --shards=2
expect_exit2 "invariants"      run --pattern=permutation --scheme=xmp --invariants --k=4 --duration=0.01 --shards=2
expect_exit2 "rehome"          run --pattern=permutation --scheme=xmp --rehome=1 --k=4 --duration=0.01 --shards=2
echo "unsupported combinations rejected with exit 2"
echo "OK"
