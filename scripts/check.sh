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

run_routing() {
  echo "== routing smoke =="
  cmake --preset default
  cmake --build --preset default -j "$jobs" --target xmpsim
  scripts/route_smoke.sh build
}

run_sweep() {
  echo "== sweep resume smoke =="
  cmake --preset default
  cmake --build --preset default -j "$jobs" --target xmpsim
  scripts/sweep_resume_smoke.sh build
}

run_shard_smoke() {
  echo "== shard smoke =="
  cmake --preset default
  cmake --build --preset default -j "$jobs" --target xmpsim
  scripts/shard_smoke.sh build
}

# SIGKILL + --restore byte-identity, corrupt-snapshot rejection, SIGTERM
# exit-143 and replay (scripts/ckpt_smoke.sh), serial and sharded.
run_ckpt_smoke() {
  echo "== ckpt smoke =="
  cmake --preset default
  cmake --build --preset default -j "$jobs" --target xmpsim
  scripts/ckpt_smoke.sh build
}

# Empirical-workload FCT campaign: schema-valid fct_summary.json, byte-
# identical across seeded runs and across SIGKILL + --resume
# (scripts/fct_smoke.sh).
run_fct_smoke() {
  echo "== fct smoke =="
  cmake --preset default
  cmake --build --preset default -j "$jobs" --target xmpsim
  scripts/fct_smoke.sh build
}

# Hybrid fluid/packet engine: fixed-seed determinism, physical tolerance
# band, SIGKILL + --restore byte-identity and strict flag rejection
# (scripts/hybrid_smoke.sh), on top of the `hybrid` ctest label.
run_hybrid_smoke() {
  echo "== hybrid smoke =="
  cmake --preset default
  cmake --build --preset default -j "$jobs" --target xmpsim
  scripts/hybrid_smoke.sh build
}

# Gray-failure differential validation: `xmpsim verify` (serial vs
# --shards=2 vs checkpointed vs SIGKILL+--restore, byte-compared) over a
# plan crossing every gray fault kind, plus the fault-layer CLI rejects
# (scripts/gray_diff.sh), on top of the `gray` ctest label.
run_gray_diff() {
  echo "== gray diff =="
  cmake --preset default
  cmake --build --preset default -j "$jobs" --target xmpsim
  scripts/gray_diff.sh build
}

# The sharded engine's worker pool under ThreadSanitizer: exactly the tests
# labeled "shard" (tests/core/sharded_engine_test.cpp), on top of the tsan
# preset's name-filtered suite.
run_shard_tsan() {
  echo "== shard lane (tsan) =="
  ctest --test-dir build-tsan -L shard -j "$jobs" --output-on-failure
}

case "${1:-default}" in
  default) run_preset default; run_chaos build 210; run_shard_smoke; run_ckpt_smoke; run_fct_smoke; run_hybrid_smoke; run_gray_diff ;;
  asan)    run_preset asan-ubsan; run_chaos build-asan 42 ;;
  tsan)    run_preset tsan; run_shard_tsan; run_chaos build-tsan 14 ;;
  routing) run_routing ;;
  sweep)   run_sweep ;;
  shard)   run_shard_smoke ;;
  ckpt)    run_ckpt_smoke ;;
  fct)     run_fct_smoke ;;
  hybrid)  run_hybrid_smoke ;;
  gray)    run_gray_diff ;;
  all)
    run_preset default; run_chaos build 210
    run_preset asan-ubsan; run_chaos build-asan 42
    run_preset tsan; run_shard_tsan; run_chaos build-tsan 14
    run_routing
    run_sweep
    run_shard_smoke
    run_ckpt_smoke
    run_fct_smoke
    run_hybrid_smoke
    run_gray_diff
    ;;
  *) echo "usage: $0 [default|asan|tsan|all|routing|sweep|shard|ckpt|fct|hybrid|gray]" >&2; exit 2 ;;
esac
echo "OK"
