#!/usr/bin/env bash
# Tier-1 verification: configure, build, run the full test suite.
#
#   scripts/check.sh            # default RelWithDebInfo build + ctest
#   scripts/check.sh asan       # AddressSanitizer + UBSan build + ctest
#   scripts/check.sh tsan       # ThreadSanitizer build + the tsan preset's
#                               # WorkerPool|ChaosSoak|ShardedEngine tests,
#                               # the two sharded Checkpoint cases
#                               # (ShardedResumeMatchesUninterrupted,
#                               # ShardedRestoreThenSaveReproducesThePayload)
#                               # + `ctest -L shard`
#   scripts/check.sh all        # default, then asan, then tsan
#   scripts/check.sh smoke      # default build of xmpsim + scripts/smoke.sh
#
# Every build mode also runs a chaos soak (tests/faults/chaos_soak_test.cpp)
# at a CHAOS_RUNS volume sized to the preset's sanitizer overhead. The
# default and all modes finish with the CLI smoke (scripts/smoke.sh:
# `xmpsim verify` over every engine leg, kill/resume, rejects).
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

# The CLI smoke on the default build: configure, build xmpsim, run
# scripts/smoke.sh against it.
run_smoke() {
  echo "== smoke =="
  cmake --preset default
  cmake --build --preset default -j "$jobs" --target xmpsim
  scripts/smoke.sh build
}

# The sharded engine's worker pool under ThreadSanitizer: exactly the tests
# labeled "shard" (tests/core/sharded_engine_test.cpp), on top of the tsan
# preset's name-filtered suite.
run_shard_tsan() {
  echo "== shard lane (tsan) =="
  ctest --test-dir build-tsan -L shard -j "$jobs" --output-on-failure
}

case "${1:-default}" in
  default) run_preset default; run_chaos build 210; run_smoke ;;
  asan)    run_preset asan-ubsan; run_chaos build-asan 42 ;;
  tsan)    run_preset tsan; run_shard_tsan; run_chaos build-tsan 14 ;;
  smoke)   run_smoke ;;
  all)
    run_preset default; run_chaos build 210
    run_preset asan-ubsan; run_chaos build-asan 42
    run_preset tsan; run_shard_tsan; run_chaos build-tsan 14
    run_smoke
    ;;
  *) echo "usage: $0 [default|asan|tsan|all|smoke]" >&2; exit 2 ;;
esac
echo "OK"
