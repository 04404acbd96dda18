#!/bin/sh
# Usage: expect_exit.sh CODE REGEX COMMAND [ARG...]
#
# Runs COMMAND and passes iff it exits with CODE and a line of its stdout
# or stderr matches the extended regular expression REGEX.
want=$1
re=$2
shift 2
out=$("$@" 2>&1)
rc=$?
printf '%s\n' "$out"
[ "$rc" -eq "$want" ] || { echo "expect_exit: exit $rc, want $want" >&2; exit 1; }
printf '%s\n' "$out" | grep -qE -e "$re" || { echo "expect_exit: no line matches '$re'" >&2; exit 1; }
