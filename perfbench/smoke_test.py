#!/usr/bin/env python3
"""Smoke test of the benchmark harness itself (not of the simulator's speed).

    python3 perfbench/smoke_test.py

Runs every workload in --smoke mode (k=4, millisecond horizons), untraced and
traced, and checks that:
  1. each run exits 0 and its last line reports every metric BENCHMARK.json
     names (end_to_end for --trace 0, per_layer for --trace 1) with its unit;
  2. a deliberately wrong band makes the correctness gate fail: non-zero
     exit, "correct": false and "failed" > 0;
  3. --compare refuses, with exit 2, a Debug build and a context mismatch.
Exits 0 when every check passes, 1 otherwise.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN = [sys.executable, str(BENCH / "run.py")]

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(workload, trace, *extra):
    cmd = RUN + ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
                 "--smoke", *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    try:
        result = json.loads(p.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    return p.returncode, result, p.stdout + p.stderr


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        results = Path(tmp)
        for w in spec["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                out = results / f"{w['name']}-{trace}.json"
                rc, result, log = run(w["name"], trace, "--out", str(out))
                label = f"{w['name']} --trace {trace}"
                check(rc == 0 and result is not None and result["correct"],
                      f"{label}: exits 0 with a correct result" + ("" if rc == 0 else "\n" + log))
                if result is None:
                    continue
                want = {m["name"]: m["unit"] for m in spec[key]}
                got = {k: v.get("unit") for k, v in result["metrics"].items()}
                check(got == want, f"{label}: prints every {key} metric with its unit")
                check(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                      f"{label}: every value is a number")

        rc, result, _ = run("perm_k8", 0, "--band", "flows=1000000:1000000")
        check(rc != 0 and result is not None and not result["correct"] and result["failed"] > 0,
              "a wrong band (perm_k8 flows=1e6) fails the gate")

        base, new = results / "base", results / "new"
        for d, build_type in ((base, "RelWithDebInfo"), (new, "Debug")):
            d.mkdir()
            x = json.loads((results / "perm_k8-0.json").read_text())
            x["context"]["build_type"] = build_type
            (d / "r.json").write_text(json.dumps(x))
        p = subprocess.run(RUN + ["--compare", str(base), str(new)], cwd=ROOT, capture_output=True)
        check(p.returncode == 2, "--compare refuses a Debug build with exit 2")
        x = json.loads((results / "perm_k8-0.json").read_text())
        x["context"]["nproc"] = -1
        (new / "r.json").write_text(json.dumps(x))
        p = subprocess.run(RUN + ["--compare", str(base), str(new)], cwd=ROOT, capture_output=True)
        check(p.returncode == 2, "--compare refuses mismatched contexts with exit 2")
        (new / "r.json").write_text((results / "perm_k8-0.json").read_text())
        p = subprocess.run(RUN + ["--compare", str(base), str(new)], cwd=ROOT, capture_output=True)
        check(p.returncode == 0, "--compare accepts a result against itself")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
