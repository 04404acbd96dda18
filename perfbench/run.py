#!/usr/bin/env python3
"""The xmp-sim benchmark: workloads timed from outside the simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N | --seed-set baseline|heldout]
    python3 perfbench/run.py --compare BASE_DIR NEW_DIR

With --workload, one workload runs in this process and the last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. --trace 0 gives the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer ones. Without --workload, every workload runs back
to back, each in a fresh process, and a table of wall_ratio, cpu_ratio,
setup_s, peak_rss_mb, fail_frac and wall_s is printed. --compare checks two directories of
result files against the bounds in BENCHMARK.json.

Exit codes: 0 = every run passed its correctness bands; 1 = a band was
breached (or, with --compare, a metric regressed past its bound); 2 = the
benchmark cannot run or the comparison is invalid (missing sources, bad
flags, a Debug or sanitizer build, or mismatched contexts).

perfbench/README.md explains the workloads, metrics and bands.
"""

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
RESULTS = BUILD / "results"

# Seeds for claims: measure with the baseline set while writing a change,
# then re-check the claim on the held-out set.
BASELINE_SEEDS = list(range(1, 11))
HELDOUT_SEEDS = list(range(101, 111))

MIN_JOBS = 3          # measured jobs per untraced run, whatever --seconds says
SETUPS_PER_JOB = 5    # 1 us-horizon runs before each job; setup_s is their median
BUILD_TYPE = "RelWithDebInfo"
TRACED_SETUP_REPS = 3
UNTRACED_REFS = 2     # untraced jobs in a traced run, the base of obs.trace_overhead
JOB_TIMEOUT_S = 150
SETUP_HORIZON = "0.000001"
# Every trace category except the per-packet ones (queue, cwnd, srtt, gain,
# ecn). The ring keeps only the newest events, and the per-packet ones would
# push out the scheduler samples that sim.pending_* are computed from.
TRACE_FILTER = "sched,flow,drop,route,fault,harness"

INF = math.inf


def _perm(k, extra=()):
    return ["--pattern=permutation", "--scheme=xmp", f"--k={k}", *extra]


WEBSEARCH = ["--workload=" + str(ROOT / "configs/workloads/websearch.wl"), "--load=0.6"]
HYBRID = ["--hybrid", "--scheme=xmp"]

# name -> flags, serial or sharded worker count, checkpoint cadence, bands.
# A band is (observable, lo, hi) on the run's summary; see observe().
# job_s is a fixed nominal cost of one pair (a job on xmpsim and on
# xmpsim_ref) plus its setup runs on a 4-vCPU machine: an untraced run does
# --seconds / job_s pairs, so a given --seed and --seconds always measure the
# same list of inputs, however fast the machine.
# BENCHMARK.json lists the two sharded workloads. websearch_k4 and hybrid_100k
# run on the serial engine, the noisiest on a shared host; they are legs of
# perm_k8's traced run (`legs`), where they give the workload and model
# layers' numbers, and can still be run by name.
WORKLOADS = {
    "perm_k8": dict(
        base_seed=1, job_s=8.0,
        flags=_perm(8), duration="0.5", workers=3, ckpt=None,
        legs=("websearch_k4", "hybrid_100k"),
        bands=[("flows", 256, 256), ("aborted_flows", 0, 0),
               ("avg_goodput_mbps", 644.3 * 0.9, 644.3 * 1.1), ("handoff_packets", 1, INF)],
        smoke=dict(flags=_perm(4), duration="0.003",
                   bands=[("flows", 16, 16), ("aborted_flows", 0, 0),
                          ("handoff_packets", 1, INF)]),
    ),
    "perm_k16_sharded": dict(
        base_seed=42, job_s=6.0,
        flags=_perm(16, ["--rounds=1"]), duration="0.015", workers=3, ckpt="0.005",
        bands=[("flows", 1024, 1024), ("aborted_flows", 0, 0), ("handoff_packets", 1, INF)],
        smoke=dict(flags=_perm(4, ["--rounds=1"]), duration="0.004", ckpt="0.001",
                   bands=[("flows", 16, 16), ("aborted_flows", 0, 0),
                          ("handoff_packets", 1, INF)]),
    ),
    "websearch_k4": dict(
        base_seed=1, job_s=7.0,
        flags=WEBSEARCH + ["--k=4"], duration="2.0", workers=0, ckpt=None,
        bands=[("fct_completed", 1000, INF), ("censored_frac", 0, 0.0999999),
               ("slowdown_p50", 1, INF)],
        smoke=dict(flags=WEBSEARCH + ["--k=4"], duration="0.05",
                   bands=[("fct_completed", 1, INF), ("slowdown_p50", 1, INF)]),
    ),
    "hybrid_100k": dict(
        base_seed=11, job_s=13.0,
        flags=HYBRID + ["--hybrid-bg=100000", "--hybrid-fg=10", "--k=8"], duration="0.1",
        workers=0, ckpt=None,
        bands=[("hybrid_ticks", 500, 500), ("fluid_throughput_mbps", 1e-9, INF)],
        smoke=dict(flags=HYBRID + ["--hybrid-bg=1000", "--hybrid-fg=2", "--k=4"],
                   duration="0.002",
                   bands=[("hybrid_ticks", 10, 10), ("fluid_throughput_mbps", 1e-9, INF)]),
    ),
}

CDF = ROOT / "configs/cdfs/websearch.cdf"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def median(values):
    return statistics.median(values) if values else 0.0


# --- build and context -------------------------------------------------------


def build():
    """Configure and build xmpsim and perfbench_probe from the checkout, and
    xmpsim_ref from the frozen copy in perfbench/ref; returns both build dirs."""
    for need in ("src/CMakeLists.txt", "apps/xmpsim.cpp", "configs/workloads/websearch.wl"):
        if not (ROOT / need).is_file():
            fail(f"{need} is missing: run from a checkout of the simulator")
    log = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    dirs = []
    for src, name, targets in ((BENCH, "cmake", ["xmpsim", "perfbench_probe"]),
                               (BENCH / "ref", "ref", ["xmpsim_ref"])):
        out = BUILD / name
        out.mkdir(parents=True, exist_ok=True)
        if not (out / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(src), "-B", str(out),
                          f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
        steps.append(["cmake", "--build", str(out), "-j", jobs, "--target", *targets])
        dirs.append(out)
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode != 0:
                tail = log.read_text(errors="replace").splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (full log in {log})")
    return dirs


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "apps"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def context(build_dir, workers, seed):
    cache = {}
    for line in (build_dir / "CMakeCache.txt").read_text(errors="replace").splitlines():
        if ":" in line and "=" in line and not line.startswith(("//", "#")):
            key, _, value = line.partition("=")
            cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "?")
    for f in (build_dir / "CMakeFiles").glob("*/CMakeCXXCompiler.cmake"):
        text = f.read_text(errors="replace")
        ident = [l.split('"')[1] for l in text.splitlines()
                 if l.startswith(("set(CMAKE_CXX_COMPILER_ID ", "set(CMAKE_CXX_COMPILER_VERSION "))]
        compiler = " ".join(ident) or compiler
    rev = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        rev = r.stdout.strip() if r.returncode == 0 else None
    return {
        "nproc": os.cpu_count(),
        "build_type": cache.get("CMAKE_BUILD_TYPE", "?"),
        "cxx_flags": cache.get("CMAKE_CXX_FLAGS", "").strip(),
        "compiler": compiler,
        "git_rev": rev,
        "source_digest": source_digest(),
        "workers": workers,
        "seed": seed,
    }


# --- running the simulator ---------------------------------------------------


class Job:
    """One closed-loop run of a program, launched through `perfbench_probe
    exec`: wall clock, user+sys CPU, peak RSS and exit code."""

    def __init__(self, probe, cmd, cwd):
        self.cmd = cmd
        self.log = cwd / "out.txt"
        report = cwd / "rusage.json"
        with open(self.log, "w") as out:
            p = subprocess.Popen([probe, "exec", f"--report={report}", "--", *cmd], cwd=cwd,
                                 stdout=out, stderr=subprocess.STDOUT)
            try:
                p.wait(timeout=JOB_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        try:
            ru = json.loads(report.read_text())
        except (OSError, ValueError):
            ru = {"exit": -1, "wall_s": 0.0, "cpu_s": 0.0, "peak_rss_kb": 0}
        self.exit = ru["exit"] if p.returncode == 0 else -1
        self.wall_s = ru["wall_s"]
        self.cpu_s = ru["cpu_s"]
        self.peak_rss_mb = ru["peak_rss_kb"] / 1024.0


class Runner:
    def __init__(self, name, spec, dirs, seed, smoke, band_overrides):
        self.name = name
        self.dirs = dirs
        build_dir, ref_dir = dirs
        self.xmpsim = str(build_dir / "xmpsim")
        self.xmpsim_ref = str(ref_dir / "xmpsim_ref")
        self.probe = str(build_dir / "perfbench_probe")
        self.seed = seed
        self.smoke = smoke
        self.legs = spec.get("legs", ())
        mode = spec["smoke"] if smoke else spec
        self.flags = list(mode["flags"])
        self.duration = mode["duration"]
        self.workers = spec["workers"] if not smoke else min(spec["workers"], 2)
        self.ckpt = mode.get("ckpt")
        self.bands = [band_overrides.get(b[0], b) for b in mode["bands"]]
        self.base_seed = spec["base_seed"]
        self.job_s = spec["job_s"]
        self.work = BUILD / "work" / f"{name}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.count = 0

    def sim_seed(self, job):
        """Job j of a run uses its own seed, so a run samples several inputs."""
        return (self.base_seed + 1000 * self.seed + job) % 10**15

    def scenario(self, job, workers=None, ckpt=False, duration=None):
        """Flags shared by xmpsim and the probe; a fresh checkpoint dir."""
        workers = self.workers if workers is None else workers
        flags = self.flags + [f"--seed={self.sim_seed(job)}",
                              f"--duration={duration or self.duration}"]
        if workers:
            flags.append(f"--shards={workers}")
        ckpt_dir = None
        if ckpt and self.ckpt and duration is None:
            ckpt_dir = self.fresh_dir("ckpt")
            flags += [f"--checkpoint-every={self.ckpt}", f"--checkpoint-dir={ckpt_dir}"]
        return flags, ckpt_dir

    def fresh_dir(self, label):
        self.count += 1
        d = self.work / f"{label}{self.count}"
        d.mkdir()
        return d

    def xmpsim_run(self, flags, extra=(), ref=False):
        d = self.fresh_dir("job")
        program = self.xmpsim_ref if ref else self.xmpsim
        job = Job(self.probe, [program, "run", *flags, f"--json={d / 'summary.json'}", *extra], d)
        job.dir = d
        job.summary_path = d / "summary.json"
        job.summary = None
        if job.exit == 0:
            try:
                job.summary = json.loads(job.summary_path.read_text())
            except (OSError, ValueError):
                pass
        return job

    def check(self, job):
        """Correctness gate: exit 0, a parseable summary, every band held."""
        if job.exit != 0:
            return [f"exit code {job.exit} (see {job.log})"]
        if job.summary is None:
            return ["no parseable summary"]
        seen = observe(job.summary)
        breaches = []
        for name, lo, hi in self.bands:
            v = seen.get(name)
            if v is None or not lo <= v <= hi:
                breaches.append(f"{name}={v} outside [{lo}, {hi}]")
        return breaches

    def job(self, j, extra=(), workers=None, ckpt=False, ref=False):
        """A measured job plus its gate; `ref` runs it on xmpsim_ref."""
        flags, ckpt_dir = self.scenario(j, workers=workers, ckpt=ckpt)
        job = self.xmpsim_run(flags, extra, ref=ref)
        if ckpt_dir:
            snaps = list(ckpt_dir.glob("ckpt_*.bin"))
            job.ckpt_written = len(snaps)
            job.ckpt_bytes = sum(p.stat().st_size for p in snaps)
            shutil.rmtree(ckpt_dir, ignore_errors=True)
        job.breaches = self.check(job)
        return job

    def setup(self):
        """The same config at a 1 us horizon: world build, route install,
        generator set-up, collect and export, without the run."""
        flags, _ = self.scenario(0, duration=SETUP_HORIZON)
        job = self.xmpsim_run(flags)
        job.breaches = [] if job.exit == 0 and job.summary else [f"setup exit {job.exit}"]
        return job

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)


def observe(s):
    """Band observables from a summary JSON (totals only: per-link drop
    columns and hybrid util rows are known to be incomplete)."""
    fct = s.get("fct", {})
    done, cens = fct.get("completed"), fct.get("censored")
    hybrid = s.get("hybrid", {})
    return {
        "flows": s["summary"].get("flows"),
        "aborted_flows": s["summary"].get("aborted_flows"),
        "avg_goodput_mbps": s["summary"].get("avg_goodput_mbps"),
        "handoff_packets": s.get("sharding", {}).get("handoff_packets"),
        "fct_completed": done,
        "censored_frac": cens / (done + cens) if done is not None and done + cens else None,
        "slowdown_p50": fct.get("all", {}).get("p50"),
        "hybrid_ticks": hybrid.get("ticks"),
        "fluid_throughput_mbps": hybrid.get("fluid_throughput_mbps"),
    }


# --- spans ---------------------------------------------------------------------


class Spans:
    """In-memory spans (name, start, end, parent), written once at the end."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []
        self.stack = []

    @contextlib.contextmanager
    def __call__(self, name):
        self.spans.append({"name": name, "start": time.perf_counter() - self.t0, "end": None,
                           "parent": self.stack[-1] if self.stack else -1})
        idx = len(self.spans) - 1
        self.stack.append(idx)
        try:
            yield idx
        finally:
            self.stack.pop()
            self.spans[idx]["end"] = time.perf_counter() - self.t0

    def graft(self, parent, child_spans):
        """Attach another process's spans under `parent`, shifted onto this clock."""
        base, offset = len(self.spans), self.spans[parent]["start"]
        for s in child_spans:
            self.spans.append({"name": s["name"], "start": s["start"] + offset,
                               "end": s["end"] + offset,
                               "parent": parent if s["parent"] < 0 else s["parent"] + base})

    def self_times(self):
        """Span duration minus the time its children cover, summed by name.
        Children never overlap: every leg and call runs in sequence."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] >= 0:
                own[s["parent"]] -= s["end"] - s["start"]
        totals = {}
        for s, t in zip(self.spans, own):
            totals[s["name"]] = totals.get(s["name"], 0.0) + t
        return totals


# --- the two kinds of run ------------------------------------------------------


def untraced(r, seconds):
    """Pairs of one job on xmpsim and the same job (same seed) on xmpsim_ref,
    back to back, the order alternating from pair to pair so drift favours
    neither side. The host's speed changes by tens of percent over seconds to
    minutes, and the pair's ratio cancels what slows both alike."""
    setups, jobs, refs = [], [], []
    for j in range(max(MIN_JOBS, int(seconds / r.job_s))):
        setups += [r.setup() for _ in range(SETUPS_PER_JOB)]
        for ref in (False, True) if j % 2 == 0 else (True, False):
            job = r.job(j, ref=ref)
            (refs if ref else jobs).append(job)
            shutil.rmtree(job.dir, ignore_errors=True)
    runs = setups + jobs + refs
    failed = [j for j in runs if j.breaches]
    for j in failed:
        print(f"FAIL {r.name} {' '.join(j.cmd[1:])}: {'; '.join(j.breaches)}")
    for label, side in (("xmpsim", jobs), ("xmpsim_ref", refs)):
        walls = sorted(j.wall_s for j in side)
        print(f"{label}: {len(side)} jobs, seeds {r.sim_seed(0)}..{r.sim_seed(len(side) - 1)}: "
              f"wall min {walls[0]:.4f} median {median(walls):.4f} max {walls[-1]:.4f} s")
    # A failed job has no times worth dividing by; its run is failed anyway.
    passed = [(a, b) for a, b in zip(jobs, refs) if not a.breaches and not b.breaches]
    metrics = {
        "wall_ratio": (median([a.wall_s / b.wall_s for a, b in passed]), "ratio"),
        "cpu_ratio": (median([a.cpu_s / b.cpu_s for a, b in passed]), "ratio"),
        "setup_s": (median([j.wall_s for j in setups]), "s"),
        "peak_rss_mb": (median([j.peak_rss_mb for j in jobs]), "MB"),
    }
    print(f"wall_s = {median([j.wall_s for j in jobs]):.6g} s, "
          f"cpu_s = {median([j.cpu_s for j in jobs]):.6g} s (medians, not normalised)")
    print(f"fail_frac = {len(failed) / len(runs):.4f} ({len(failed)} of {len(runs)} runs)")
    record = {"jobs": [{"seed": r.sim_seed(i), "wall_s": a.wall_s, "cpu_s": a.cpu_s,
                        "peak_rss_mb": a.peak_rss_mb, "ref_wall_s": b.wall_s,
                        "ref_cpu_s": b.cpu_s, "breaches": a.breaches + b.breaches}
                       for i, (a, b) in enumerate(zip(jobs, refs))],
              "setup_s": [j.wall_s for j in setups]}
    return metrics, len(runs), len(failed), record


def traced(r, spans, tag):
    legs, breaches = {}, []

    def gate(label, job):
        legs[label] = job
        breaches.extend((label, b) for b in job.breaches)

    with spans("setup"):
        setups = [r.setup() for _ in range(TRACED_SETUP_REPS)]
    for i, s in enumerate(setups):
        gate(f"setup{i}", s)
    refs = []
    with spans("untraced"):
        for i in range(UNTRACED_REFS):
            refs.append(r.job(0))
            gate(f"untraced{i}", refs[-1])
    trace_csv = r.work / "trace.csv"
    metrics_json = r.work / "metrics.json"
    with spans("traced"):
        tj = r.job(0, extra=[f"--trace-csv={trace_csv}", f"--trace-filter={TRACE_FILTER}",
                             f"--metrics={metrics_json}"])
    gate("traced", tj)
    ref_bytes = refs[0].summary_path.read_bytes() if refs[0].summary else b""

    def same_summary(label, path):
        if not path.is_file() or path.read_bytes() != ref_bytes:
            breaches.append((label, "summary differs from the untraced run's"))

    same_summary("traced", tj.summary_path)
    one = ckpt_leg = None
    if r.workers > 1:
        # Fewer workers must give the same bytes; the 1-worker leg is also
        # the base of core.shard.speedup.
        for n in range(1, r.workers):
            with spans(f"workers{n}"):
                leg = r.job(0, workers=n)
            gate(f"workers{n}", leg)
            same_summary(f"workers{n}", leg.summary_path)
            one = one or leg
    if r.ckpt:
        with spans("checkpointed"):
            ckpt_leg = r.job(0, ckpt=True)
        gate("checkpointed", ckpt_leg)
        same_summary("checkpointed", ckpt_leg.summary_path)
    # Scenarios of layers this workload does not use (the workload generator,
    # the fluid model): one setup run and one job each, under their own bands.
    side = []
    for name in r.legs:
        leg = Runner(name, WORKLOADS[name], r.dirs, r.seed, r.smoke, {})
        try:
            with spans(name):
                leg_setup, leg_job = leg.setup(), leg.job(0)
        finally:
            leg.cleanup()
        gate(f"{name}.setup", leg_setup)
        gate(name, leg_job)
        side.append((leg_job, leg_setup))

    pending = []
    if trace_csv.is_file():
        with open(trace_csv, newline="") as f:
            pending = [float(row["a"]) for row in csv.DictReader(f)
                       if row["kind"] == "sched_sample"]
    pending_mean = statistics.fmean(pending) if pending else 0.0

    flags, _ = r.scenario(0, ckpt=True)
    probe_json = r.work / "probe_summary.json"
    probe_spans = r.work / "probe_spans.json"
    with spans("probe") as pid:
        p = subprocess.run([r.probe, "layers", *flags, f"--pending={max(1, round(pending_mean))}",
                            f"--cdf={CDF}", f"--json={probe_json}", f"--spans={probe_spans}"],
                           capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
    probe = {}
    if p.returncode == 0:
        probe = json.loads(p.stdout.strip().splitlines()[-1])
        spans.graft(pid, json.loads(probe_spans.read_text()))
        same_summary("probe", probe_json)
    else:
        breaches.append(("probe", f"exit {p.returncode}: {p.stderr.strip()[-300:]}"))

    for label, b in breaches:
        print(f"FAIL {r.name} {label}: {b}")

    s = refs[0].summary or {}
    counters = {}
    hist = {}
    if metrics_json.is_file():
        m = json.loads(metrics_json.read_text())
        counters, hist = m.get("counters", {}), m.get("histograms", {})
    summ = s.get("summary", {})
    drops = s.get("drops", {})
    shard = s.get("sharding", {})
    wall = median([j.wall_s for j in refs])
    cpu = median([j.cpu_s for j in refs])
    setup = median([j.wall_s for j in setups])

    def source(block):
        """Summary, job wall and setup wall of the first run whose summary
        has `block`: this workload's own, else a leg's."""
        runs = [(s, wall, setup)] + [(j.summary or {}, j.wall_s, st.wall_s) for j, st in side]
        return next((x for x in runs if block in x[0]), ({}, 0.0, 0.0))

    fct_summary, fct_wall, _ = source("fct")
    fct = fct_summary.get("fct", {})
    hyb_summary, hyb_wall, hyb_setup = source("hybrid")
    hyb = hyb_summary.get("hybrid", {})
    events = summ.get("events", 0)
    hops = drops.get("delivered", 0)
    ticks = hyb.get("ticks", 0)
    arrived = fct.get("completed", 0) + fct.get("censored", 0)
    tick_s = (hyb_wall - hyb_setup) / ticks if ticks else 0.0
    speedup = one.wall_s / wall if one else 0.0
    out = {
        "wall_s": (wall, "s"),
        "cpu_s": (cpu, "s"),
        "sim.events": (events, "count"),
        "sim.events_per_s": (events / wall, "1/s"),
        "sim.pending_mean": (pending_mean, "count"),
        "sim.pending_peak": (max(pending, default=0.0), "count"),
        "sim.sched_op_ns": (probe.get("sim.sched_op_ns", 0.0), "ns"),
        "net.hops": (hops, "count"),
        "net.hops_per_s": (hops / wall, "1/s"),
        "net.events_per_hop": (events / hops if hops else 0.0, "ratio"),
        "net.ecn_marks": (counters.get("ecn_marks", 0), "count"),
        "net.queue_depth_p99": (hist.get("queue_depth", {}).get("p99", 0.0), "packets"),
        "net.queue_drops": (drops.get("queue", 0), "count"),
        "net.queue_op_ns": (probe.get("net.queue_op_ns", 0.0), "ns"),
        "route.forwarded": (s.get("routing", {}).get("forwarded", 0), "count"),
        "route.install_s": (probe.get("route.install_s", 0.0), "s"),
        "topo.build_s": (probe.get("topo.build_s", 0.0), "s"),
        "topo.links": (probe.get("topo.links", 0), "count"),
        "transport.flows": (summ.get("flows", 0), "count"),
        "transport.retransmissions": (counters.get("retransmissions", 0), "count"),
        "transport.timeouts": (counters.get("timeouts", 0), "count"),
        "transport.seg_ns_bos": (probe.get("transport.seg_ns_bos", 0.0), "ns"),
        "mptcp.seg_ns_xmp2": (probe.get("mptcp.seg_ns_xmp2", 0.0), "ns"),
        "mptcp.reinjections": (counters.get("reinjections", 0), "count"),
        "workload.arrivals_per_s": (arrived / fct_wall if arrived else 0.0, "1/s"),
        "workload.fct_completed": (fct.get("completed", 0), "count"),
        "workload.censored_frac": (fct.get("censored", 0) / arrived if arrived else 0.0, "ratio"),
        "workload.cdf_sample_ns": (probe.get("workload.cdf_sample_ns", 0.0), "ns"),
        "model.ticks": (ticks, "count"),
        "model.tick_ms": (tick_s * 1e3, "ms"),
        "model.ns_per_aggregate_tick": (
            tick_s * 1e9 / hyb["bg_flows"] if ticks and hyb.get("bg_flows") else 0.0, "ns"),
        "core.run_s": (probe.get("core.run_s", 0.0), "s"),
        "core.export_s": (probe.get("core.export_s", 0.0), "s"),
        "core.shard.epochs": (shard.get("epochs", 0), "count"),
        "core.shard.barriers": (shard.get("barriers", 0), "count"),
        "core.shard.handoff_packets": (shard.get("handoff_packets", 0), "count"),
        "core.shard.micro_steps": (shard.get("micro_steps", 0), "count"),
        "core.shard.replays": (shard.get("replays", 0), "count"),
        "core.shard.events_per_epoch": (
            events / shard["epochs"] if shard.get("epochs") else 0.0, "count"),
        "core.shard.speedup": (speedup, "ratio"),
        "core.shard.efficiency": (speedup / r.workers if one else 0.0, "ratio"),
        "core.shard.cpu_per_wall": (cpu / wall if r.workers else 0.0, "ratio"),
        "core.ckpt.written": (ckpt_leg.ckpt_written if ckpt_leg else 0, "count"),
        "core.ckpt.bytes": (ckpt_leg.ckpt_bytes if ckpt_leg else 0, "B"),
        "core.ckpt.overhead_s": (ckpt_leg.wall_s - wall if ckpt_leg else 0.0, "s"),
        "core.ckpt.read_ms": (probe.get("core.ckpt.read_ms", 0.0), "ms"),
        "obs.trace_overhead": (tj.wall_s / wall, "ratio"),
    }
    attempted, failed = len(legs) + 1, len({label for label, _ in breaches})
    out["fail_frac"] = (failed / attempted, "ratio")
    legs_record = {k: {"wall_s": j.wall_s, "cpu_s": j.cpu_s, "peak_rss_mb": j.peak_rss_mb}
                   for k, j in legs.items()}
    record = {"legs": legs_record, "breaches": breaches,
              "spans_file": str(RESULTS / f"{tag}-spans.json")}
    return out, attempted, failed, record


def run_one(args):
    spec = WORKLOADS[args.workload]
    overrides = {}
    for item in args.band:
        name, _, rng = item.partition("=")
        lo, _, hi = rng.partition(":")
        try:
            overrides[name] = (name, float(lo), float(hi))
        except ValueError:
            fail(f"bad --band {item} (expected NAME=LO:HI)")
    dirs = build()
    r = Runner(args.workload, spec, dirs, args.seed, args.smoke, overrides)
    ctx = context(dirs[0], r.workers, args.seed)
    print("context " + json.dumps(ctx, sort_keys=True))
    tag = f"{args.workload}-trace{args.trace}-seed{args.seed}{'-smoke' if args.smoke else ''}"
    RESULTS.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            spans = Spans()
            with spans("run"):
                metrics, attempted, failed, record = traced(r, spans, tag)
            Path(record["spans_file"]).write_text(json.dumps(spans.spans, indent=1) + "\n")
            print("self time by span (s):")
            for name, t in sorted(spans.self_times().items(), key=lambda kv: -kv[1]):
                print(f"  {name:<28} {t:10.4f}")
        else:
            metrics, attempted, failed, record = untraced(r, args.seconds)
    finally:
        r.cleanup()
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    out = Path(args.out) if args.out else RESULTS / f"{tag}.json"
    out.write_text(json.dumps({"workload": args.workload, "trace": args.trace,
                               "smoke": args.smoke, "context": ctx, "record": record,
                               **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


# --- all workloads, and comparison -----------------------------------------------


def run_all(args):
    if args.trace:
        fail("a traced run needs --workload")
    seeds = {"baseline": BASELINE_SEEDS, "heldout": HELDOUT_SEEDS}.get(args.seed_set, [args.seed])
    build()
    rows, status = [], 0
    for name in WORKLOADS:
        per_seed = []
        for seed in seeds:
            out = RESULTS / f"all-{name}-seed{seed}.json"
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
                   "--out", str(out)]
            if args.smoke:
                cmd.append("--smoke")
            rc = subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode
            status = max(status, rc)
            per_seed.append(json.loads(out.read_text()) if out.is_file() else None)
        rows.append((name, per_seed))
    names = ("wall_ratio", "cpu_ratio", "setup_s", "peak_rss_mb")
    print(f"{'workload':<18}" + "".join(f" {m:>11}" for m in names) +
          f" {'fail_frac':>10} {'wall_s':>10}   (median over {len(seeds)} seed(s))")
    for name, results in rows:
        ok = [x for x in results if x]
        missing = len(results) - len(ok)  # a run that died before writing its result
        attempted = sum(x["attempted"] for x in ok) + missing
        failed = sum(x["failed"] for x in ok) + missing
        cells = [f"{median([x['metrics'][m]['value'] for x in ok]):11.4f}" for m in names]
        wall = median([median([j["wall_s"] for j in x["record"]["jobs"]]) for x in ok])
        print(f"{name:<18} " + " ".join(cells) + f" {failed / attempted:10.4f} {wall:10.4f}")
    print("units: wall_ratio, cpu_ratio and fail_frac ratio, setup_s s, peak_rss_mb MB, "
          "wall_s s (xmpsim alone)")
    return status


def compare(base_dir, new_dir):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    def load(d):
        by = {}
        for p in sorted(Path(d).glob("*.json")):
            try:
                x = json.loads(p.read_text())
            except ValueError:
                continue
            if isinstance(x, dict) and x.get("trace") == 0 and "context" in x:
                by.setdefault(x["workload"], []).append(x)
        return by

    base, new = load(base_dir), load(new_dir)
    if not base or not new:
        fail("no untraced result files to compare")
    keys = ("nproc", "build_type", "cxx_flags", "compiler", "workers")
    for side in (base, new):
        for runs in side.values():
            for x in runs:
                c = x["context"]
                optimized = c["build_type"] in ("Release", "RelWithDebInfo")
                if not optimized or "-fsanitize" in c["cxx_flags"]:
                    fail(f"refusing to compare a {c['build_type']} {c['cxx_flags']} build")
    status = 0
    print(f"{'workload':<18} {'metric':<12} {'base':>10} {'new':>10} {'change':>8} {'bound':>6}")
    for wl in sorted(set(base) & set(new)):
        ctx = {tuple(x["context"][k] for k in keys) for x in base[wl] + new[wl]}
        if len(ctx) != 1:
            fail(f"context mismatch on {wl}: {sorted(ctx)}")
        for name, m in bounds.items():
            b = median([x["metrics"][name]["value"] for x in base[wl]])
            n = median([x["metrics"][name]["value"] for x in new[wl]])
            change = (n - b) / b
            worse = change if m["better"] == "lower" else -change
            flag = "  << REGRESSION" if worse > m["bound"] else ""
            status = 1 if flag else status
            print(f"{wl:<18} {name:<12} {b:10.4f} {n:10.4f} {change:+7.1%} {m['bound']:6.2f}{flag}")
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=BASELINE_SEEDS[0])
    ap.add_argument("--seed-set", choices=["baseline", "heldout"])
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="k=4, millisecond horizons: checks the harness, not the simulator")
    ap.add_argument("--band", action="append", default=[], metavar="NAME=LO:HI",
                    help="replace one correctness band (used by the smoke test)")
    ap.add_argument("--out", help="result file (default .bench_build/results/...)")
    ap.add_argument("--compare", nargs=2, metavar=("BASE_DIR", "NEW_DIR"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
