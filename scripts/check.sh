#!/usr/bin/env bash
# Tier-1 verification: configure, build, run the full test suite.
#
#   scripts/check.sh            # default RelWithDebInfo build + ctest
#   scripts/check.sh asan       # AddressSanitizer + UBSan build + ctest
#   scripts/check.sh tsan       # ThreadSanitizer build + ParallelRunner tests
#
# Every mode finishes with a chaos soak (tests/faults/chaos_soak_test.cpp)
# at a CHAOS_RUNS volume sized to the preset's sanitizer overhead.
#   scripts/check.sh all        # default, then asan, then tsan
#   scripts/check.sh routing    # default build + routing-policy smoke matrix
#   scripts/check.sh sweep      # default build + sweep kill/resume smoke
#   scripts/check.sh shard      # default build + sharded-engine CLI smoke
#   scripts/check.sh ckpt       # default build + checkpoint kill/resume smoke
#   scripts/check.sh fct        # default build + FCT study kill/resume smoke
#   scripts/check.sh hybrid     # default build + hybrid fluid/packet smoke
#   scripts/check.sh gray       # default build + gray-failure verify diff
#
# The tsan mode also runs the "shard" ctest label (the sharded engine's
# worker pool) under ThreadSanitizer; the default mode finishes with the
# shard CLI smoke (scripts/shard_smoke.sh: --shards=1/2/3/4 byte-compare).
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="${JOBS:-$(nproc)}"

# An interrupted check must not leave build/test children (ctest workers,
# chaos soak, smoke-script campaigns) running in the background.
on_interrupt() {
  trap - INT TERM
  pkill -P $$ 2>/dev/null || true
  exit 130
}
trap on_interrupt INT TERM

run_preset() {
  local preset="$1"
  echo "== preset: $preset =="
  cmake --preset "$preset"
  cmake --build --preset "$preset" -j "$jobs"
  # The chaos soak (hundreds of randomized fault-injection runs, ctest
  # label "chaos") is excluded from the fast suite and run separately with
  # a volume matched to the preset's sanitizer overhead.
  ctest --preset "$preset" -j "$jobs" -LE chaos
}

run_chaos() {
  local build_dir="$1" runs="$2"
  echo "== chaos soak: $build_dir (CHAOS_RUNS=$runs) =="
  CHAOS_RUNS="$runs" "$build_dir/tests/test_chaos"
}

# One CLI smoke script on the default build: configure, build xmpsim, run
# scripts/NAME.sh against it. The scripts:
#   route_smoke         routing-policy smoke matrix
#   sweep_resume_smoke  sweep kill/resume
#   shard_smoke         --shards=1/2/3/4 byte-compare, incl. a round flip
#   ckpt_smoke          SIGKILL + --restore byte-identity, corrupt-snapshot
#                       rejection, SIGTERM exit-143 and replay
#   fct_smoke           FCT campaign: schema, seeded and SIGKILL + --resume
#                       byte-identity
#   hybrid_smoke        hybrid fluid/packet determinism, tolerance band,
#                       SIGKILL + --restore, strict flag rejection
#   gray_diff           `xmpsim verify` over every gray fault kind, plus the
#                       fault-layer CLI rejects
run_smoke() {
  local name="$1"
  echo "== smoke: $name =="
  cmake --preset default
  cmake --build --preset default -j "$jobs" --target xmpsim
  "scripts/$name.sh" build
}

# The sharded engine's worker pool under ThreadSanitizer: exactly the tests
# labeled "shard" (tests/core/sharded_engine_test.cpp), on top of the tsan
# preset's name-filtered suite.
run_shard_tsan() {
  echo "== shard lane (tsan) =="
  ctest --test-dir build-tsan -L shard -j "$jobs" --output-on-failure
}

case "${1:-default}" in
  default)
    run_preset default; run_chaos build 210
    for name in shard_smoke ckpt_smoke fct_smoke hybrid_smoke gray_diff; do run_smoke "$name"; done
    ;;
  asan)    run_preset asan-ubsan; run_chaos build-asan 42 ;;
  tsan)    run_preset tsan; run_shard_tsan; run_chaos build-tsan 14 ;;
  routing) run_smoke route_smoke ;;
  sweep)   run_smoke sweep_resume_smoke ;;
  shard)   run_smoke shard_smoke ;;
  ckpt)    run_smoke ckpt_smoke ;;
  fct)     run_smoke fct_smoke ;;
  hybrid)  run_smoke hybrid_smoke ;;
  gray)    run_smoke gray_diff ;;
  all)
    run_preset default; run_chaos build 210
    run_preset asan-ubsan; run_chaos build-asan 42
    run_preset tsan; run_shard_tsan; run_chaos build-tsan 14
    for name in route_smoke sweep_resume_smoke shard_smoke ckpt_smoke fct_smoke hybrid_smoke gray_diff; do
      run_smoke "$name"
    done
    ;;
  *) echo "usage: $0 [default|asan|tsan|all|routing|sweep|shard|ckpt|fct|hybrid|gray]" >&2; exit 2 ;;
esac
echo "OK"
