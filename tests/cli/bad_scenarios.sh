#!/bin/sh
# Usage: bad_scenarios.sh XMPSIM DIR
#
# Writes one malformed testbed scenario per case into DIR and passes iff
# `XMPSIM run --workload=FILE` exits 2 on each with a single stderr line
# naming FILE:3 (the malformed line); then checks that a single-path
# --scheme refuses a line without scheme= that has two paths.
bin=$1
dir=$2
mkdir -p "$dir" || exit 1
head='topology pinned
bottleneck 300M 500us'
n=0
while IFS= read -r line; do
  n=$((n + 1))
  f="$dir/bad$n.wl"
  printf '%s\n%s\n' "$head" "$line" > "$f"
  err=$("$bin" run --workload="$f" 2>&1 >/dev/null)
  rc=$?
  [ "$rc" -eq 2 ] || { echo "'$line': exit $rc, want 2" >&2; exit 1; }
  [ "$(printf '%s\n' "$err" | wc -l)" -eq 1 ] || { echo "'$line': not one line: $err" >&2; exit 1; }
  case "$err" in
    *"$f:3: "*) echo "ok: $err" ;;
    *) echo "'$line': no $f:3 diagnostic: $err" >&2; exit 1 ;;
  esac
done <<'CASES'
bottleneck 300X 500us
bottleneck 300M 500
flow 1000 0 scheme=cubic
flow 1000 0 paths=0,1
flow 1000 2 stop=2
flow 1000 0 paths=0,0 offsets=0
sample 0
sample 0.000001
flow 1000 0 stop=1e12
flow 1000 0 paths=0,0 offsets=0,1e300
CASES
f="$dir/two_paths.wl"
printf '%s\nflow 1000 0 paths=0,0\n' "$head" > "$f"
err=$("$bin" run --workload="$f" --scheme=dctcp 2>&1 >/dev/null)
rc=$?
[ "$rc" -eq 2 ] || { echo "two paths under --scheme=dctcp: exit $rc, want 2" >&2; exit 1; }
case "$err" in
  "xmpsim: --scheme=dctcp is single-path"*) echo "ok: $err" ;;
  *) echo "two paths under --scheme=dctcp: $err" >&2; exit 1 ;;
esac
