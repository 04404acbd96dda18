// xmpsim — command-line front end to the library.
//
//   xmpsim <run|verify|fluid|sweep|topo> [--key=value ...]
//   xmpsim [<command>] --help    prints kUsage, every command's flags
//
// The flag rule: every value is validated up front (a malformed or
// out-of-range value prints one line naming the flag, the value and the
// accepted range), and each flag is read only in the branch where it
// changes the run. An argument that no branch read (an unknown flag, a flag
// with no effect on this run, a positional) prints one line naming it
// (cli::Args::finish). Either way the exit is 2, before any simulation
// starts, never an assert.
//
//   xmpsim run
//       Run one Fat-Tree evaluation and print the paper's summary metrics.
//       The traffic comes from --hybrid, else --workload, else --pattern.
//       --routing selects how switches spread over equal-cost up-ports
//       (default pinned = the paper's per-tag deterministic paths; ecmp
//       ignores tags and exhibits collisions); --flowlet-gap is the flowlet
//       idle gap in microseconds, --reroute-delay the failure-convergence
//       delay in seconds (with --faults only). --rehome lets MPTCP move a
//       dead subflow onto a fresh path up to N times per connection instead
//       of killing it (only where subflows can die: --dead-after above 0).
//       With --faults, the plan's events are injected on the simulation
//       clock (see src/faults/fault_plan.hpp for the grammar); --dead-after
//       defaults to 3 when faults are given (0 = failover disabled
//       otherwise); --invariants runs the runtime invariant probe.
//       --trace writes a Chrome trace-event JSON (open it in Perfetto or
//       chrome://tracing); --metrics dumps the run's counters/histograms.
//       --trace-capacity sizes each tracer ring (events; the oldest are
//       dropped first): one per logical shard plus one for the control
//       strand, merged at export.
//       Observation never perturbs the simulation: a traced run produces
//       the same summary, byte for byte, as an untraced one.
//       --shards=N runs the conservative-sync epoch loop on N worker
//       threads (0, the default, and 1 run it inline). The logical shards
//       never depend on N, so every N produces identical results: one per
//       pod for a --pattern=permutation run, one for every other traffic
//       source (random, incast, --workload, --hybrid), where a wider N
//       adds nothing.
//       --coexist=SCHEME splits the senders of a --pattern=random run
//       between --scheme and SCHEME (the paper's Table 2).
//       --checkpoint-every=T writes a verified snapshot (ckpt_<seq>.bin in
//       --checkpoint-dir, default ".") every T *simulated* seconds at a
//       quiescent point; --restore=FILE resumes a run from a snapshot and
//       produces summary/trace/metrics byte-identical to the uninterrupted
//       run. SIGTERM halts at the next quiescent point, writes a final
//       checkpoint and a partial summary, and exits 143. Every feature
//       checkpoints. A snapshot's config fingerprint must match the flags
//       given, but leaves out the observability flags and --invariants:
//       `run --restore=FILE --trace=... --invariants` re-runs a crash-point
//       capture under extra observation (a snapshot taken without the
//       checker starts a fresh one at the restore point).
//       --workload=FILE runs an empirical workload file (DESIGN.md §13):
//       open-loop Poisson arrivals whose sizes come from a flow-size CDF,
//       plus optional explicit flows; --load=0.X sets the offered load per
//       sender (overriding the file's `load` directive).
//       The run then reports FCT slowdown p50/p95/p99 per flow-size bin
//       (and an "fct" block in --json). Composes with --faults, --routing
//       and checkpointing. A `topology pinned` file is one of the paper's
//       testbeds (Figures 1, 4, 6, 7): its flows and bottlenecks come from
//       the file, K and the queue from --mark-k/--queue, β from --beta;
//       it reports utilization per bottleneck, and a file with a `sample`
//       directive writes its series as series.csv beside the --json file.
//       --fct-csv=FILE writes one row per flow of a --workload run
//       (id,bytes,start_s,finish_s,completed,slowdown; censored flows carry
//       finish_s=-1); in sweeps it becomes one file per job.
//       --hybrid runs the hybrid fluid/packet engine (DESIGN.md §14):
//       --hybrid-bg fluid background aggregates evolve as per-RTT BOS/TraSh
//       ODEs (default 1000, unbounded size unless :BYTES is given) while
//       --hybrid-fg packet-accurate foreground flows (default 4 x 8 MB,
//       restarted on completion) ride the same queues; the two couple
//       through per-queue fluid backlog (ECN marking), residual link
//       capacity, and measured packet drain. --hybrid-promote-bytes=N hands
//       a finite fluid flow to the packet domain for its last N bytes;
//       --hybrid-tick=US sets the fluid step (default 200 us, ~ one RTT).
//       Requires --scheme=xmp; composes with checkpointing, --trace and
//       --metrics. A snapshot from a non-hybrid run never restores into a
//       hybrid one (config fingerprint).
//       --csv, --json and --drops-csv each print "wrote PATH" once the file
//       is published; one that could not be written is named on stderr and
//       the run exits 5.
//
//   xmpsim verify
//       Differential validation harness (DESIGN.md §15): runs the same
//       scenario (any `run` flags) once per leg, each leg one job of a
//       campaign in --dir (default: a fresh temp dir, removed on success,
//       kept and named on failure; a reused DIR has each leg's
//       sub-directory emptied first). The legs run in parallel, each in
//       DIR/<leg>/; DIR/sweep_manifest.json records their attempts.
//       Legs: shards1..shardsN (--shards=1..N, N the worker count
//       --shards=4 gets: 4 for a k=4 permutation, 1 where the run has one
//       logical shard), shards-ckpt (periodic snapshots) and shards-kill
//       (SIGKILL mid-run + --restore), both at --shards=1. summary.json,
//       flows.csv, drops.csv (and fct.csv for a --workload run) must be
//       byte-identical across all legs, and trace.csv/metrics.json/out.txt
//       across legs with the same checkpoint flags — checkpointing
//       legitimately adds CkptWrite trace events, harness.ckpt.* meters and
//       a "checkpoints:" line. Exit 0 =
//       all legs agree, 1 = divergence (the differing file and legs are
//       named, or a leg the --job-timeout=S watchdog killed: "timed out"),
//       2 = bad flags. The harness owns --shards, --checkpoint-dir,
//       --restore and every output path; --checkpoint-every only sets the
//       snapshot cadence of the checkpoint legs (default 0.005), and
//       --job-timeout bounds each leg attempt's wall time (default 0: none).
//
//   xmpsim fluid
//       Closed-form BOS equilibrium on a single bottleneck (paper §2.1).
//
//   xmpsim sweep
//       Re-run `run` for each value and tabulate average goodput. Every
//       sweep is a resilient *campaign* in a directory: --out=DIR, or
//       without it a fresh temp dir, removed when every job succeeded and
//       kept and named otherwise. Each job runs crash-isolated in its own
//       process, N at a time (--jobs, default: hardware cores); the table
//       lists the points in the order given, identical for every N. A
//       watchdog kills attempts that exceed --job-timeout=SECONDS, and
//       failures are retried up to --retries=N times with exponential
//       backoff (--backoff=SECONDS base, deterministic per-job jitter).
//       --param=load sweeps the offered load of a --workload=FILE run (an
//       FCT study); --schemes crosses the value list with a scheme list
//       (grid = schemes x values) and the campaign emits a ready-to-plot
//       fct_summary.json next to sweep_summary.json.
//       --trace/--trace-csv/--metrics apply per job: "trace.json" becomes
//       "trace.0.json", "trace.1.json", ... (one file per sweep point).
//       --checkpoint-every snapshots each job into its directory, and a
//       retried job resumes from its newest valid snapshot.
//
//       DIR accumulates one directory per job, job_<i>/, holding its
//       summary.json (as `run --json` writes it, with a testbed's
//       series.csv beside it) and its snapshots; a
//       sweep_manifest.json updated atomically after every state change;
//       the aggregate sweep_summary.json; and the harness's own
//       metrics/trace (harness_metrics.json, harness_trace.json).
//
//       xmpsim sweep --resume=DIR picks a campaign back up: jobs already
//       succeeded are not re-run, and the final summary is byte-identical
//       to an uninterrupted campaign. The original command line is stored
//       in the manifest, so --resume=DIR alone suffices; flags given next
//       to --resume override the stored ones (e.g. a new --job-timeout).
//       Jobs that exhaust their retries are listed under "incomplete" in
//       the summary; the campaign still salvages every survivor and exits
//       0 unless --strict is given (then exit 1).
//
//   xmpsim topo
//       Print Fat-Tree dimensions and delay budget for a given k.

#include <csignal>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/cli.hpp"
#include "core/export.hpp"
#include "core/job_manifest.hpp"
#include "core/orchestrator.hpp"
#include "core/xmp.hpp"
#include "model/fluid.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "trace/writers.hpp"

namespace {

using namespace xmp;
using cli::Args;
using cli::flag_d;
using cli::flag_i;

/// Every command's flags: `--help` prints it, and Args::finish calls a flag
/// it names "no effect on this run" rather than "unknown".
constexpr std::string_view kUsage =
    "usage: xmpsim <command> [--key=value ...]   (notes: apps/xmpsim.cpp)\n"
    "  run     [--pattern=random|permutation|incast] [--scheme=xmp|dctcp|tcp|lia|olia]\n"
    "          [--subflows=2] [--beta=4] [--k=8] [--duration=0.5] [--queue=100]\n"
    "          [--mark-k=10] [--seed=1] [--rounds=2] [--scale=1] [--coexist=SCHEME]\n"
    "          [--workload=FILE.wl] [--load=0.3] [--fct-csv=FILE]\n"
    "          [--hybrid] [--hybrid-bg=FLOWS[:BYTES]] [--hybrid-fg=FLOWS[:BYTES]]\n"
    "          [--hybrid-promote-bytes=N] [--hybrid-tick=US]\n"
    "          [--routing=pinned|ecmp|wcmp|flowlet] [--flowlet-gap=100]\n"
    "          [--reroute-delay=0.001] [--faults=PLAN] [--fault-seed=1] [--dead-after=3]\n"
    "          [--rehome=0] [--invariants] [--shards=WORKERS] [--checkpoint-every=SIMTIME]\n"
    "          [--checkpoint-dir=DIR] [--restore=FILE] [--csv=flows.csv]\n"
    "          [--json=summary.json] [--drops-csv=drops.csv] [--metrics=metrics.json]\n"
    "          [--trace=timeline.json] [--trace-csv=timeline.csv]\n"
    "          [--trace-filter=cwnd,gain,queue] [--trace-capacity=262144]\n"
    "  verify  [--dir=DIR] [--checkpoint-every=0.005] [--job-timeout=S] + run's scenario flags\n"
    "          (legs in DIR/<leg>/)\n"
    "  sweep   --param=mark-k|beta|subflows|queue|seed|load --values=a,b,c\n"
    "          [--schemes=xmp,dctcp,lia,olia] [--jobs=N] + run's flags\n"
    "          [--out=DIR] [--job-timeout=S] [--retries=2] [--backoff=0.5] [--strict]\n"
    "          [--resume=DIR]   (job i runs in DIR/job_<i>/)\n"
    "  fluid   [--capacity-gbps=1] [--flows=3] [--beta=4] [--rtt-us=300]\n"
    "  topo    [--k=8]\n";

/// Flipped by the SIGTERM handler; polled by the engine at quiescent
/// points. Installed only when checkpointing is configured, so plain runs
/// keep the default (terminating) disposition.
std::atomic<bool> g_stop{false};

extern "C" void on_sigterm(int) { g_stop.store(true); }

bool parse_scheme(const std::string& name, int subflows, int beta, workload::SchemeSpec& out) {
  if (name == "tcp") {
    out.kind = workload::SchemeSpec::Kind::Tcp;
  } else if (name == "dctcp") {
    out.kind = workload::SchemeSpec::Kind::Dctcp;
  } else if (name == "xmp") {
    out.kind = workload::SchemeSpec::Kind::Xmp;
  } else if (name == "lia") {
    out.kind = workload::SchemeSpec::Kind::Lia;
  } else if (name == "olia") {
    out.kind = workload::SchemeSpec::Kind::Olia;
  } else {
    return false;
  }
  out.subflows = subflows;
  out.beta = beta;
  return true;
}

/// The hybrid engine's flags (DESIGN.md §14).
void hybrid_from(const Args& args, core::ExperimentConfig& cfg, bool& ok) {
  // FLOWS[:BYTES] spec: "--hybrid-bg=100000" or "--hybrid-bg=1000:64000000".
  auto parse_count_spec = [&](const char* key, int& count, std::int64_t& bytes) {
    const std::string v = args.get(key, "");
    if (v.empty()) return;
    const auto colon = v.find(':');
    std::int64_t n = 0;
    std::int64_t b = bytes;
    bool good = cli::parse_integer(v.substr(0, colon), n) && n >= 1 && n <= 2'000'000;
    if (good && colon != std::string::npos) {
      good = cli::parse_integer(v.substr(colon + 1), b) && b >= 1;
    }
    if (!good) {
      std::fprintf(stderr,
                   "xmpsim: bad --%s=%s (expected FLOWS[:BYTES], flows in [1, 2000000], "
                   "bytes >= 1)\n",
                   key, v.c_str());
      ok = false;
      return;
    }
    count = static_cast<int>(n);
    bytes = b;
  };
  parse_count_spec("hybrid-bg", cfg.hybrid.bg_flows, cfg.hybrid.bg_bytes);
  parse_count_spec("hybrid-fg", cfg.hybrid.fg_flows, cfg.hybrid.fg_bytes);
  cfg.hybrid.promote_bytes = flag_i(args, "hybrid-promote-bytes", 0, 0, std::int64_t{1} << 40, ok);
  cfg.hybrid.tick = sim::Time::microseconds(flag_i(args, "hybrid-tick", 200, 10, 1000000, ok));
  // In hybrid mode the pattern enum is inert (the engine replaces the
  // generators); Permutation keeps name/fingerprint output stable.
  cfg.pattern = core::Pattern::Permutation;
}

/// An empirical workload file (DESIGN.md §13) and its cross-checks.
void workload_from(const Args& args, const std::string& file, core::ExperimentConfig& cfg,
                   bool& ok) {
  auto spec = std::make_shared<workload::WorkloadSpec>();
  std::string werr;
  if (!workload::WorkloadSpec::parse_file(file, *spec, &werr)) {
    std::fprintf(stderr, "xmpsim: bad --workload: %s\n", werr.c_str());
    ok = false;
    return;
  }
  cfg.pattern = core::Pattern::Workload;
  cfg.workload = spec;
  cfg.obs.fct_csv = args.get("fct-csv", "");
  // Only Poisson arrivals have an offered load; a trace-only file has none.
  if (spec->has_cdf) cfg.offered_load = flag_d(args, "load", 0.0, 0.0001, 1.2, ok);
  if (spec->pinned) {
    // A line without scheme= runs the run's scheme; a single-path one takes
    // one path and no offsets. A testbed builds no Fat-Tree: --k stays unread.
    for (const workload::ExplicitFlow& f : spec->flows) {
      if (!f.scheme && !cfg.scheme.multipath() && (f.paths.size() > 1 || !f.offsets.empty())) {
        std::fprintf(stderr,
                     "xmpsim: --scheme=%s is single-path, but a flow of %s without scheme= has "
                     "several paths or offsets\n",
                     args.get("scheme", "xmp").c_str(), file.c_str());
        ok = false;
        break;
      }
    }
    return;
  }
  cfg.fat_tree_k = cli::flag_k(args, 8, ok);
  const int hosts = cfg.fat_tree_k * cfg.fat_tree_k * cfg.fat_tree_k / 4;
  if (spec->nodes > hosts) {
    std::fprintf(stderr, "xmpsim: workload needs %d hosts but --k=%d provides %d\n", spec->nodes,
                 cfg.fat_tree_k, hosts);
    ok = false;
  }
  if (spec->span == workload::WorkloadSpan::InterRack && spec->nodes <= cfg.fat_tree_k / 2) {
    std::fprintf(stderr,
                 "xmpsim: workload span inter-rack needs nodes in >= 2 racks "
                 "(%d nodes fit in one rack of %d hosts)\n",
                 spec->nodes, cfg.fat_tree_k / 2);
    ok = false;
  }
  if (spec->has_cdf && cfg.offered_load <= 0.0 && spec->default_load <= 0.0) {
    std::fprintf(stderr,
                 "xmpsim: workload has a cdf but no offered load "
                 "(give --load=0.X or a 'load' directive)\n");
    ok = false;
  }
}

/// A synthetic --pattern (the paper's §5.2.1) and the flags it reads.
void pattern_from(const Args& args, core::ExperimentConfig& cfg, bool& ok) {
  const std::string pattern = args.get("pattern", "random");
  if (pattern == "permutation") {
    cfg.pattern = core::Pattern::Permutation;
    cfg.permutation_rounds = static_cast<int>(flag_i(args, "rounds", 2, 1, 1000, ok));
  } else if (pattern == "random") {
    cfg.pattern = core::Pattern::Random;
    // Coexistence splits the random pattern's senders between the schemes.
    const std::string coexist = args.get("coexist", "");
    if (!coexist.empty()) {
      workload::SchemeSpec b;
      if (!parse_scheme(coexist, cfg.scheme.subflows, cfg.scheme.beta, b)) {
        std::fprintf(stderr, "xmpsim: bad --coexist=%s (expected tcp|dctcp|xmp|lia|olia)\n",
                     coexist.c_str());
        ok = false;
      }
      cfg.scheme_b = b;
    }
  } else if (pattern == "incast") {
    cfg.pattern = core::Pattern::Incast;
  } else {
    std::fprintf(stderr, "xmpsim: bad --pattern=%s (expected permutation|random|incast)\n",
                 pattern.c_str());
    ok = false;
  }
  const auto scale = flag_i(args, "scale", 1, 1, 1000000, ok);
  cfg.perm_min_bytes *= scale;
  cfg.perm_max_bytes *= scale;
  cfg.rand_min_bytes *= scale;
  cfg.rand_max_bytes *= scale;
}

/// The integer knobs `sweep --param` can vary, with the range both their
/// own flag and a `--values` entry for them accept.
struct IntKnob {
  const char* name;
  std::int64_t lo;
  std::int64_t hi;
};
constexpr IntKnob kIntKnobs[] = {{"subflows", 1, 64},       {"beta", 1, 1000},
                                 {"queue", 1, 1000000},     {"mark-k", 1, 1000000},
                                 {"seed", 0, INT64_MAX}};

const IntKnob* int_knob(const std::string& name) {
  for (const IntKnob& k : kIntKnobs) {
    if (name == k.name) return &k;
  }
  return nullptr;
}

std::int64_t knob_flag(const Args& args, const char* name, std::int64_t fallback, bool& ok) {
  const IntKnob& k = *int_knob(name);
  return flag_i(args, name, fallback, k.lo, k.hi, ok);
}

core::ExperimentConfig config_from(const Args& args, bool& ok) {
  core::ExperimentConfig cfg;
  ok = true;

  const int subflows = static_cast<int>(knob_flag(args, "subflows", 2, ok));
  const int beta = static_cast<int>(knob_flag(args, "beta", 4, ok));
  const std::string scheme = args.get("scheme", "xmp");
  if (!parse_scheme(scheme, subflows, beta, cfg.scheme)) {
    std::fprintf(stderr, "xmpsim: bad --scheme=%s (expected tcp|dctcp|xmp|lia|olia)\n",
                 scheme.c_str());
    ok = false;
  }
  cfg.duration = sim::Time::seconds(flag_d(args, "duration", 0.5, 1e-6, 3600, ok));
  cfg.queue_capacity = static_cast<std::size_t>(knob_flag(args, "queue", 100, ok));
  cfg.mark_threshold = static_cast<std::size_t>(knob_flag(args, "mark-k", 10, ok));
  cfg.seed = static_cast<std::uint64_t>(knob_flag(args, "seed", 1, ok));

  // The traffic: --hybrid, else --workload, else --pattern. The other two
  // sources' flags stay unread, so Args::finish rejects them.
  cfg.hybrid.enabled = args.has("hybrid");
  const std::string workload_file = cfg.hybrid.enabled ? "" : args.get("workload", "");
  if (cfg.hybrid.enabled) {
    hybrid_from(args, cfg, ok);
    // The fluid ODEs implement the paper's §2 XMP dynamics.
    if (cfg.scheme.kind != workload::SchemeSpec::Kind::Xmp) {
      std::fprintf(stderr, "xmpsim: --hybrid requires --scheme=xmp (got %s)\n", scheme.c_str());
      ok = false;
    }
  } else if (!workload_file.empty()) {
    workload_from(args, workload_file, cfg, ok);
  } else {
    pattern_from(args, cfg, ok);
  }
  if (cfg.pattern != core::Pattern::Workload) cfg.fat_tree_k = cli::flag_k(args, 8, ok);

  if (!cfg.hybrid.enabled) {
    const std::string faults = args.get("faults", "");
    std::string error;
    if (!faults.empty() && !faults::FaultPlan::parse(faults, cfg.fault_plan, &error)) {
      std::fprintf(stderr, "xmpsim: bad --faults: %s\n", error.c_str());
      ok = false;
    }
    if (!cfg.fault_plan.empty()) {
      cfg.fault_seed = static_cast<std::uint64_t>(flag_i(args, "fault-seed", 1, 0, INT64_MAX, ok));
    }
  }
  // Subflow failover is on by default only under fault injection, so that
  // fault-free runs stay bit-identical to builds without the fault layer.
  cfg.scheme.dead_after_rtos =
      static_cast<int>(flag_i(args, "dead-after", cfg.fault_plan.empty() ? 0 : 3, 0, 1000, ok));
  // A re-home moves a dead subflow, and no subflow dies without a
  // --dead-after budget (3 under --faults, else 0).
  if (cfg.scheme.dead_after_rtos > 0) {
    cfg.scheme.max_rehomes = static_cast<int>(flag_i(args, "rehome", 0, 0, 1000, ok));
  }
  if (cfg.scheme_b) {
    cfg.scheme_b->dead_after_rtos = cfg.scheme.dead_after_rtos;
    cfg.scheme_b->max_rehomes = cfg.scheme.max_rehomes;
  }

  const std::string routing = args.get("routing", "pinned");
  if (!route::parse_policy(routing, cfg.routing.kind)) {
    std::fprintf(stderr, "xmpsim: bad --routing=%s (expected pinned|ecmp|wcmp|flowlet)\n",
                 routing.c_str());
    ok = false;
  }
  if (cfg.routing.kind == route::PolicyKind::Flowlet) {
    cfg.routing.flowlet_gap =
        sim::Time::microseconds(flag_i(args, "flowlet-gap", 100, 1, 1000000000, ok));
  }
  // Tables reroute only around links a fault plan changes.
  if (!cfg.fault_plan.empty()) {
    cfg.routing.reroute_delay =
        sim::Time::seconds(flag_d(args, "reroute-delay", 0.001, 0, 60, ok));
  }
  cfg.check_invariants = args.has("invariants");
  cfg.shards = static_cast<int>(flag_i(args, "shards", 0, 0, 4096, ok));

  cfg.obs.trace_json = args.get("trace", "");
  cfg.obs.trace_csv = args.get("trace-csv", "");
  cfg.obs.metrics_json = args.get("metrics", "");
  if (cfg.obs.tracing()) {
    cfg.obs.capacity =
        static_cast<std::size_t>(flag_i(args, "trace-capacity", 1 << 18, 1, 1 << 26, ok));
    std::string filter_error;
    if (!obs::TimelineTracer::parse_filter(args.get("trace-filter", ""), cfg.obs.categories,
                                           &filter_error)) {
      std::fprintf(stderr, "xmpsim: bad --trace-filter: %s\n", filter_error.c_str());
      ok = false;
    }
  }

  cfg.checkpoint.every =
      sim::Time::seconds(flag_d(args, "checkpoint-every", 0.0, 1e-6, 3600, ok));
  cfg.checkpoint.dir = args.get("checkpoint-dir", ".");
  if (cfg.checkpoint.dir.empty()) {
    std::fprintf(stderr, "xmpsim: bad --checkpoint-dir= (expected a directory path)\n");
    ok = false;
    cfg.checkpoint.dir = ".";
  } else if (std::error_code ec; !std::filesystem::is_directory(cfg.checkpoint.dir, ec)) {
    // Caught here, not as one failed write per snapshot in a run that exits 0.
    std::fprintf(stderr, "xmpsim: bad --checkpoint-dir=%s (expected an existing directory)\n",
                 cfg.checkpoint.dir.c_str());
    ok = false;
  }
  cfg.checkpoint.restore_path = args.get("restore", "");
  return cfg;
}

/// Derive a per-job output path for sweeps: "dir/trace.json" -> "dir/trace.3.json".
std::string per_job_path(const std::string& path, std::size_t job) {
  if (path.empty()) return path;
  const auto slash = path.find_last_of('/');
  const auto dot = path.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return path + "." + std::to_string(job);
  }
  return path.substr(0, dot) + "." + std::to_string(job) + path.substr(dot);
}

void print_summary(const core::ExperimentConfig& cfg, const core::ExperimentResults& res) {
  const bool testbed = core::is_testbed(cfg);
  std::printf("pattern=%s scheme=%s%s%s %s sim=%.3fs events=%llu\n",
              core::pattern_name(cfg.pattern), cfg.scheme.name().c_str(),
              cfg.scheme_b ? " vs " : "", cfg.scheme_b ? cfg.scheme_b->name().c_str() : "",
              testbed ? "topology=pinned" : ("k=" + std::to_string(cfg.fat_tree_k)).c_str(),
              res.sim_duration.sec(), static_cast<unsigned long long>(res.events_dispatched));
  std::printf("large-flow goodput: mean %.1f Mbps over %zu flows\n", res.avg_goodput_mbps(),
              res.goodput.count());
  if (cfg.scheme_b) {
    std::printf("coexisting %s:     mean %.1f Mbps over %zu flows\n",
                cfg.scheme_b->name().c_str(), res.avg_goodput_b_mbps(), res.goodput_b.count());
  }
  for (int c = 2; c >= 0; --c) {
    const auto& d = res.goodput_by_category[c];
    if (d.empty()) continue;
    std::printf("  %-11s p50 %.1f Mbps (n=%zu)\n",
                topo::FatTree::category_name(static_cast<topo::FatTree::Category>(c)),
                d.percentile(50), d.count());
  }
  if (!res.jobs.empty()) {
    std::printf("incast jobs: %zu, avg completion %.1f ms, >300ms %.2f%%\n", res.jobs.size(),
                res.avg_job_completion_ms(), res.job_completion_over_ms(300) * 100);
  }
  if (res.hybrid.enabled) {
    std::printf("hybrid: %d fluid bg flows (%d still fluid at horizon), %d packet fg flows\n",
                res.hybrid.bg_flows, res.hybrid.active_fluid, res.hybrid.fg_flows);
    std::printf("  fluid ticks %llu, throughput %.1f Mbps, mean mark p %.4f, "
                "promotions %llu, fluid completions %llu\n",
                static_cast<unsigned long long>(res.hybrid.ticks),
                res.hybrid.fluid_throughput_mbps, res.hybrid.mean_mark_p,
                static_cast<unsigned long long>(res.hybrid.promotions),
                static_cast<unsigned long long>(res.hybrid.fluid_completions));
  }
  if (res.fct.enabled()) {
    std::printf("fct slowdown (load %.2f, %.0f flows/s offered): %llu completed, %llu censored\n",
                res.fct.offered_load, res.fct.arrival_rate,
                static_cast<unsigned long long>(res.fct.completed),
                static_cast<unsigned long long>(res.fct.censored));
    auto fct_row = [](const char* name, const stats::Distribution& d) {
      if (d.count() == 0) return;
      std::printf("  %-9s n=%-6zu p50 %6.2f  p95 %7.2f  p99 %7.2f\n", name, d.count(),
                  d.percentile(50), d.percentile(95), d.percentile(99));
    };
    fct_row("all", res.fct.slowdown_all);
    for (int b = 0; b < core::ExperimentResults::FctStats::kBins; ++b) {
      fct_row(core::ExperimentResults::FctStats::bin_name(b), res.fct.slowdown_by_bin[b]);
    }
  }
  for (int l = 0; l < 3 && !testbed; ++l) {
    const auto& d = res.utilization_by_layer[l];
    std::printf("util %-12s mean %.3f  p90 %.3f\n",
                topo::FatTree::layer_name(static_cast<topo::FatTree::Layer>(l)), d.mean(),
                d.percentile(90));
  }
  for (std::size_t j = 0; j < res.utilization_by_bottleneck.size(); ++j) {
    std::printf("util bottleneck %zu %.3f\n", j, res.utilization_by_bottleneck[j]);
  }
  if (!cfg.fault_plan.empty() || res.drops.total_drops() > 0) {
    std::printf("drops: queue %llu, admin-down %llu, fault %llu, corrupt %llu "
                "(offered %llu, delivered %llu)\n",
                static_cast<unsigned long long>(res.drops.queue),
                static_cast<unsigned long long>(res.drops.admin_down),
                static_cast<unsigned long long>(res.drops.fault),
                static_cast<unsigned long long>(res.drops.corrupt),
                static_cast<unsigned long long>(res.drops.offered),
                static_cast<unsigned long long>(res.drops.delivered));
  }
  const std::uint64_t impaired =
      res.drops.duplicated + res.drops.delayed + res.drops.overmarked;
  if (!cfg.fault_plan.empty() || impaired > 0) {
    std::printf("impairments: duplicated %llu, delayed %llu, overmarked %llu\n",
                static_cast<unsigned long long>(res.drops.duplicated),
                static_cast<unsigned long long>(res.drops.delayed),
                static_cast<unsigned long long>(res.drops.overmarked));
  }
  std::printf("routing %s: forwarded %llu, unroutable %llu", route::policy_name(cfg.routing.kind),
              static_cast<unsigned long long>(res.switch_forwarded),
              static_cast<unsigned long long>(res.switch_unroutable));
  if (res.route_reroutes > 0) {
    std::printf(", reroutes %llu", static_cast<unsigned long long>(res.route_reroutes));
  }
  if (res.route_collisions > 0) {
    std::printf(", collisions %llu", static_cast<unsigned long long>(res.route_collisions));
  }
  if (res.flowlet_repaths > 0) {
    std::printf(", flowlet repaths %llu", static_cast<unsigned long long>(res.flowlet_repaths));
  }
  if (res.path_rehomes > 0) {
    std::printf(", subflow rehomes %llu", static_cast<unsigned long long>(res.path_rehomes));
  }
  std::printf("\n");
  std::printf("sharded: %d logical shards, lookahead %.1f us, %llu epochs, %llu barriers, "
              "%llu handoff pkts\n",
              res.shard.logical_shards, res.shard.lookahead_us,
              static_cast<unsigned long long>(res.shard.epochs),
              static_cast<unsigned long long>(res.shard.barriers),
              static_cast<unsigned long long>(res.shard.handoff_packets));
  // Lineage-cumulative totals: a resumed run inherits its ancestors'
  // counts, so this line is byte-identical to an uninterrupted run's.
  if (res.ckpt.written > 0) {
    std::printf("checkpoints: %llu written, %llu bytes, last %s\n",
                static_cast<unsigned long long>(res.ckpt.written),
                static_cast<unsigned long long>(res.ckpt.bytes), res.ckpt.last_path.c_str());
  }
  if (res.aborted_flows > 0) {
    std::printf("aborted flows (all subflows dead): %llu\n",
                static_cast<unsigned long long>(res.aborted_flows));
  }
  if (cfg.check_invariants) {
    std::printf("invariants: %llu checks, %zu violations\n",
                static_cast<unsigned long long>(res.invariant_checks),
                res.invariant_violations.size());
    for (const auto& v : res.invariant_violations) std::printf("  VIOLATION %s\n", v.c_str());
  }
}

int cmd_run(const Args& args) {
  bool ok = true;
  auto cfg = config_from(args, ok);
  const std::string csv = args.get("csv", "");
  const std::string json = args.get("json", "");
  const std::string drops_csv = args.get("drops-csv", "");
  if (!ok || !args.finish(kUsage)) return 2;

  if (!cfg.checkpoint.restore_path.empty()) {
    // Probe before building the world: a truncated, bit-flipped or
    // mismatched snapshot is a one-line exit 2, not a deep engine error.
    core::ckpt::Header h;
    std::string err;
    if (!core::ckpt::probe_file(cfg.checkpoint.restore_path, core::ckpt::config_fingerprint(cfg),
                                h, &err)) {
      std::fprintf(stderr, "xmpsim: restore failed: %s\n", err.c_str());
      return 2;
    }
    std::fprintf(stderr, "resuming from %s (seq %llu, t=%.6fs)\n",
                 cfg.checkpoint.restore_path.c_str(), static_cast<unsigned long long>(h.seq),
                 sim::Time::nanoseconds(h.t_ns).sec());
  }
  if (cfg.checkpoint.every > sim::Time::zero()) {
    struct sigaction sa = {};
    sa.sa_handler = on_sigterm;
    ::sigaction(SIGTERM, &sa, nullptr);
    cfg.checkpoint.stop_requested = &g_stop;
  }

  const auto res = core::run_experiment(cfg);
  print_summary(cfg, res);
  // Exit 5 (as a sweep job does) when an output could not be written.
  for (const std::string& flag : res.unwritten) {
    std::fprintf(stderr, "xmpsim: run: could not write %s\n", flag.c_str());
  }
  bool write_failed = !res.unwritten.empty();
  const auto report = [&write_failed](const char* flag, const std::string& path, bool ok) {
    if (ok) {
      std::printf("wrote %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "xmpsim: run: could not write --%s=%s\n", flag, path.c_str());
      write_failed = true;
    }
  };
  if (!csv.empty()) report("csv", csv, core::export_flows_csv(res, csv));
  if (!json.empty()) report("json", json, core::export_summary_json(cfg, res, json));
  if (!json.empty() && !res.series.rows.empty()) {
    // A testbed's series has no flag of its own: it is a result file beside
    // the summary.
    const std::string series = (std::filesystem::path{json}.parent_path() / "series.csv").string();
    report("json", series, core::export_series_csv(res, series));
  }
  if (!drops_csv.empty()) report("drops-csv", drops_csv, core::export_link_drops_csv(res, drops_csv));
  if (write_failed) return 5;
  if (res.ckpt.interrupted) {
    // The partial summary above covers [0, halt); 143 = "terminated by
    // SIGTERM" so wrappers distinguish an interrupted run from a finished
    // one. The final checkpoint is the resume point.
    std::fprintf(stderr, "xmpsim: interrupted at t=%.6fs; resume with --restore=%s\n",
                 res.sim_duration.sec(), res.ckpt.last_path.c_str());
    return 143;
  }
  // Surface invariant violations in the exit code so scripted chaos runs
  // fail loudly instead of silently shipping a broken summary.
  return res.invariant_violations.empty() ? 0 : 3;
}

// --- verify: differential validation harness (DESIGN.md §15) ---------------

/// The directory verify and sweep work in: `dir` (created if missing), or,
/// when `dir` is empty, a fresh "xmp<cmd>.XXXXXX" under $TMPDIR (default
/// /tmp), flagged `ephemeral`: the command removes it on success, and keeps
/// and names it on failure. Empty, after a one-line diagnostic, when it
/// cannot be made.
std::string work_dir(const char* cmd, const char* flag, const std::string& dir, bool& ephemeral) {
  ephemeral = dir.empty();
  if (!ephemeral) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (!ec) return dir;
    std::fprintf(stderr, "xmpsim: %s: cannot create --%s=%s: %s\n", cmd, flag, dir.c_str(),
                 ec.message().c_str());
    return {};
  }
  std::string tmpl = "/tmp";
  if (const char* t = std::getenv("TMPDIR"); t != nullptr && *t != '\0') tmpl = t;
  tmpl += std::string{"/xmp"} + cmd + ".XXXXXX";
  std::vector<char> buf{tmpl.begin(), tmpl.end()};
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) == nullptr) {
    std::fprintf(stderr, "xmpsim: %s: mkdtemp(%s): %s\n", cmd, tmpl.c_str(), std::strerror(errno));
    return {};
  }
  return buf.data();
}

bool read_all(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out.clear();
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

/// One verify leg: `xmpsim run` with the scenario plus `flags`, in its own
/// sub-directory.
struct VerifyLeg {
  std::string name;
  bool ckpt;     ///< writes snapshots
  bool kill;     ///< SIGKILLed at its first snapshot, then resumed with --restore
  std::vector<std::string> flags;  ///< worker and checkpoint flags
};

int cmd_verify(const Args& args) {
  namespace fs = std::filesystem;
  bool ok = true;

  // Flags the harness owns end to end: a user-supplied value would make
  // the legs diverge by construction, so each is a one-line reject.
  static constexpr const char* kOwned[] = {"shards", "checkpoint-dir", "restore",  "csv", "json",
                                           "trace",  "trace-csv",      "metrics",  "drops-csv",
                                           "fct-csv"};
  for (const char* key : kOwned) {
    if (!args.get(key, "").empty()) {
      std::fprintf(stderr, "xmpsim: verify drives --%s itself (drop it)\n", key);
      ok = false;
    }
  }
  // Validated here; the checkpoint legs pass the value through as given.
  (void)flag_d(args, "checkpoint-every", 0.005, 1e-6, 3600, ok);
  const double job_timeout_s = flag_d(args, "job-timeout", 0.0, 0, 86400, ok);
  if (!ok) return 2;

  // Scenario flags (verify's own removed), shared by every leg. Legs run
  // inside their own directories, so a relative --workload is made absolute.
  const std::string workload_flag = "--workload=";
  std::vector<std::string> scenario;
  for (const auto& a : args.raw()) {
    if (a.rfind("--dir=", 0) == 0 || a.rfind("--checkpoint-every=", 0) == 0 ||
        a.rfind("--job-timeout=", 0) == 0) {
      continue;
    }
    std::error_code ec;
    const fs::path abs = a.rfind(workload_flag, 0) == 0
                             ? fs::absolute(a.substr(workload_flag.size()), ec)
                             : fs::path{};
    scenario.push_back(abs.empty() || ec ? a : workload_flag + abs.string());
  }
  // Validate once up front so a malformed scenario, or a flag with no
  // effect on it, is a clean exit 2 on *this* process's stderr, before any
  // leg forks (legs log to err.txt). Every leg traces, so the trace flags
  // take effect.
  Args checked{scenario};
  checked.append({"--trace-csv=trace.csv"});
  bool cok = true;
  core::ExperimentConfig cfg = config_from(checked, cok);
  if (!cok || !checked.finish(kUsage)) return 2;
  const bool workload = cfg.pattern == core::Pattern::Workload;

  // Legs (DESIGN.md §15): plain runs on 1..4 workers, as far as the run has
  // logical shards to spread (on k=4, --shards=3 splits the four unevenly:
  // 2/1/1), then a checkpointed run and a killed-and-restored one.
  cfg.shards = 4;
  std::vector<VerifyLeg> legs;
  for (int n = 1; n <= core::worker_count(cfg); ++n) {
    legs.push_back({"shards" + std::to_string(n), false, false, {"--shards=" + std::to_string(n)}});
  }
  const std::vector<std::string> ckpt_flags = {
      "--shards=1", "--checkpoint-every=" + args.get("checkpoint-every", "0.005"),
      "--checkpoint-dir=."};
  legs.push_back({"shards-ckpt", true, false, ckpt_flags});
  legs.push_back({"shards-kill", true, true, ckpt_flags});

  bool ephemeral = false;
  const std::string root = work_dir("verify", "dir", args.get("dir", ""), ephemeral);
  if (root.empty()) return 2;

  // Every result file must be identical across all legs; trace.csv,
  // metrics.json and stdout only between legs with the same
  // checkpoint flags: checkpointing legitimately adds CkptWrite timeline
  // events, harness.ckpt.* meters and a "checkpoints:" stdout line.
  std::vector<std::string> outputs = {"--json=summary.json", "--csv=flows.csv",
                                      "--drops-csv=drops.csv", "--trace-csv=trace.csv",
                                      "--metrics=metrics.json"};
  std::vector<std::string> result_files = {"summary.json", "flows.csv", "drops.csv"};
  if (workload) {
    outputs.emplace_back("--fct-csv=fct.csv");
    result_files.emplace_back("fct.csv");
    if (cfg.workload->sample > sim::Time::zero()) result_files.emplace_back("series.csv");
  }
  const std::vector<std::string> run_files = {"trace.csv", "metrics.json", "out.txt"};

  auto make_flags = [&](std::vector<std::string> extra) {
    extra.insert(extra.end(), outputs.begin(), outputs.end());
    extra.insert(extra.end(), scenario.begin(), scenario.end());
    return extra;
  };
  auto fail = [&](const std::string& msg) {
    std::fprintf(stderr, "xmpsim: verify FAIL: %s (legs kept in %s)\n", msg.c_str(), root.c_str());
    return 1;
  };

  // One campaign job per leg. Emptying each leg's directory keeps a reused
  // --dir from handing a kill leg stale snapshots; a config built from the
  // leg's own flags carries the fingerprint its snapshots do.
  core::JobManifest manifest;
  manifest.param = "leg";
  std::vector<core::CampaignJob> jobs;
  // No retries: a flaky leg is a failure, never masked by a retry.
  core::OrchestratorConfig ocfg;
  ocfg.campaign_dir = root;
  ocfg.retries = 0;
  ocfg.job_timeout_s = job_timeout_s;
  for (std::size_t i = 0; i < legs.size(); ++i) {
    const VerifyLeg& leg = legs[i];
    std::error_code ec;
    fs::remove_all(root + "/" + leg.name, ec);
    jobs.push_back({config_from(Args{make_flags(leg.flags)}, cok), leg.name});  // checked above
    manifest.jobs.emplace_back().value = core::SweepValue::of_int(static_cast<std::int64_t>(i));
    if (leg.kill) ocfg.kill_at_snapshot.push_back(i);
    std::string shown;
    for (const auto& f : leg.flags) shown += " " + f;
    std::printf("verify: leg %-11s%s%s\n", leg.name.c_str(), shown.c_str(),
                leg.kill ? " + SIGKILL mid-run + --restore" : "");
  }
  // The checkpointed legs take several times as long as a plain one (they
  // write a traced snapshot every few milliseconds; a kill leg then
  // resumes), so they start first, instead of trailing the campaign: last
  // leg first, i.e. kill before checkpoint.
  for (std::size_t i = legs.size(); i-- > 0;) {
    if (legs[i].ckpt) ocfg.spawn_first.push_back(i);
  }
  // Each leg runs `xmpsim run` inside its directory, stdout to out.txt and
  // stderr to err.txt: relative output paths keep the stdout summaries
  // comparable byte for byte, and resume notices stay out of them.
  const auto leg_body = [&](std::size_t i, const core::ExperimentConfig& eff,
                            const std::string& dir, int) {
    if (::chdir(dir.c_str()) != 0) return 127;
    if (std::freopen("out.txt", "w", stdout) == nullptr) return 127;
    if (std::freopen("err.txt", "w", stderr) == nullptr) return 127;
    std::vector<std::string> flags = legs[i].flags;
    const std::string& snap = eff.checkpoint.restore_path;
    if (!snap.empty()) flags.push_back("--restore=" + snap.substr(snap.find_last_of('/') + 1));
    const int rc = cmd_run(Args{make_flags(flags)});
    std::fflush(nullptr);  // the child leaves by _Exit, and both files are buffered
    return rc;
  };
  const core::CampaignOutcome outcome = core::Orchestrator{ocfg}.run(jobs, manifest, leg_body);

  // The lowest-index failed leg, by what went wrong.
  for (std::size_t i = 0; i < legs.size(); ++i) {
    const core::JobEntry& j = outcome.jobs[i];
    if (j.state == core::JobState::Succeeded) continue;
    const std::string& name = legs[i].name;
    const std::string dir = root + "/" + name;
    // The exit code as a shell reports it: "exit N" is N, "signal N" 128 + N.
    const int n = std::atoi(j.last_error.c_str() + j.last_error.find(' ') + 1);
    const std::string code = std::to_string(j.last_error.rfind("signal ", 0) == 0 ? 128 + n : n);
    const std::string see = " (see " + dir + "/err.txt)";
    if (j.last_error == "timeout") {
      return fail("leg " + name + " timed out (--job-timeout=" + args.get("job-timeout", "") + ")");
    }
    if (!legs[i].kill) return fail("leg " + name + " exited " + code + see);
    if (j.attempts > 1) return fail("leg " + name + " restore exited " + code + see);
    if (core::ckpt::newest_valid(dir, 0).empty()) {
      return fail("leg " + name +
                  " wrote no snapshot — raise --duration or lower --checkpoint-every");
    }
    return fail("leg " + name + " exited " + code + " before the signal" + see);
  }

  // The first file that differs between legs a and b, as a message.
  auto compare = [&](const VerifyLeg& a, const VerifyLeg& b,
                     const std::vector<std::string>& files) -> std::string {
    for (const auto& file : files) {
      std::string ca;
      std::string cb;
      if (!read_all(root + "/" + a.name + "/" + file, ca)) return a.name + "/" + file + " unreadable";
      if (!read_all(root + "/" + b.name + "/" + file, cb)) return b.name + "/" + file + " unreadable";
      if (ca != cb) return file + " differs between legs " + a.name + " and " + b.name;
    }
    return {};
  };
  std::string names;
  for (std::size_t i = 0; i < legs.size(); ++i) {
    const VerifyLeg& leg = legs[i];
    names += (i == 0 ? "" : ", ") + leg.name;
    // Each leg against the first leg, and against the first leg with the
    // same checkpoint flags.
    const VerifyLeg* first = i > 0 ? &legs[0] : nullptr;
    const VerifyLeg* peer = nullptr;
    for (std::size_t j = 0; j < i && peer == nullptr; ++j) {
      if (legs[j].ckpt == leg.ckpt) peer = &legs[j];
    }
    std::string err;
    if (first != nullptr) err = compare(*first, leg, result_files);
    if (err.empty() && peer != nullptr) err = compare(*peer, leg, run_files);
    if (!err.empty()) return fail(err);
  }

  std::printf("verify: PASS — %s agree byte for byte\n", names.c_str());
  if (ephemeral) {
    std::error_code ec;
    fs::remove_all(root, ec);
  } else {
    std::printf("verify: legs kept in %s\n", root.c_str());
  }
  return 0;
}

int cmd_fluid(const Args& args) {
  bool ok = true;
  const double cap_gbps = flag_d(args, "capacity-gbps", 1.0, 0.001, 10000, ok);
  const int n = static_cast<int>(flag_i(args, "flows", 3, 1, 1000000, ok));
  const double beta = flag_d(args, "beta", 4.0, 1, 1000, ok);
  const double rtt_us = flag_d(args, "rtt-us", 300.0, 0.1, 10000000, ok);
  if (!ok || !args.finish(kUsage)) return 2;
  const double cap_sps = cap_gbps * 1e9 / (net::kDataPacketBytes * 8.0);

  std::vector<model::FluidFlow> flows(static_cast<std::size_t>(n),
                                      model::FluidFlow{1.0, beta, rtt_us * 1e-6});
  const auto res = model::solve_single_bottleneck(flows, cap_sps);
  std::printf("BOS equilibrium on %.2f Gbps, %d flows, beta=%.0f, RTT=%.0fus:\n", cap_gbps, n,
              beta, rtt_us);
  std::printf("  marking probability per round p = %.4f\n", res.p);
  std::printf("  per-flow window  w = %.1f segments\n", res.windows.empty() ? 0.0 : res.windows[0]);
  std::printf("  per-flow rate    x = %.1f Mbps\n",
              res.rates.empty() ? 0.0 : res.rates[0] * net::kDataPacketBytes * 8 / 1e6);
  std::printf("  Eq.1 marking threshold K >= BDP/(beta-1) = %.1f packets\n",
              model::min_marking_threshold(cap_sps * rtt_us * 1e-6, beta));
  return 0;
}

/// One parsed sweep request: the grid plus the metadata the manifest and
/// summary need. With --schemes the grid is schemes x values (scheme-major)
/// and `values`/`labels` are expanded to one entry per grid point.
struct SweepSpec {
  std::string param;
  std::vector<core::SweepValue> values;  ///< swept value per grid point
  std::vector<std::string> labels;       ///< scheme per grid point ("" = --scheme)
  std::vector<core::CampaignJob> grid;   ///< grid point i runs in DIR/job_<i>
  bool schemes_swept = false;
};

bool build_sweep_grid(const Args& args, SweepSpec& spec) {
  bool ok = true;
  spec.param = args.get("param", "mark-k");
  const std::vector<double> base_values = cli::flag_list(args, "values", ok);
  if (!ok) return false;
  if (!args.get("restore", "").empty()) {
    // Per-job restore decisions belong to the campaign orchestrator (it
    // probes each job's checkpoint directory on retry).
    std::fprintf(stderr, "xmpsim: --restore applies to 'run', not 'sweep'\n");
    return false;
  }
  if (base_values.empty()) {
    std::fprintf(stderr, "xmpsim: sweep needs --values=a,b,c\n");
    return false;
  }
  const IntKnob* knob = int_knob(spec.param);
  if (knob == nullptr && spec.param != "load") {
    std::fprintf(stderr, "xmpsim: bad --param=%s (expected mark-k|beta|subflows|queue|seed|load)\n",
                 spec.param.c_str());
    return false;
  }
  // An integer knob reads each entry by its own flag's rule: a fraction or
  // an out-of-range entry is an error, never truncated.
  std::vector<std::int64_t> ints;
  if (knob != nullptr) {
    for (const std::string& entry : cli::list_entries(args, "values")) {
      std::int64_t n = 0;
      if (!cli::parse_integer(entry, n) || n < knob->lo || n > knob->hi) {
        std::fprintf(stderr,
                     "xmpsim: bad --values entry '%s' for --param=%s (expected an integer in "
                     "[%lld, %lld])\n",
                     entry.c_str(), knob->name, static_cast<long long>(knob->lo),
                     static_cast<long long>(knob->hi));
        return false;
      }
      ints.push_back(n);
    }
  }

  // Optional scheme cross product: --schemes=xmp,dctcp,lia,olia multiplies
  // the grid (scheme-major order), which is how a full load-vs-FCT study
  // becomes one resumable campaign.
  std::vector<std::string> schemes;
  {
    std::string v = args.get("schemes", "");
    while (!v.empty()) {
      const auto comma = v.find(',');
      const std::string token = v.substr(0, comma);
      workload::SchemeSpec probe;
      if (!parse_scheme(token, 1, 1, probe)) {
        std::fprintf(stderr,
                     "xmpsim: bad --schemes entry '%s' (expected tcp|dctcp|xmp|lia|olia)\n",
                     token.c_str());
        return false;
      }
      schemes.push_back(token);
      if (comma == std::string::npos) break;
      v = v.substr(comma + 1);
    }
  }
  spec.schemes_swept = !schemes.empty();
  if (schemes.empty()) schemes.emplace_back();  // sentinel: keep --scheme as given

  // Build the whole grid up front; the campaign runs it --jobs points at a
  // time and tabulates the results in grid order.
  for (const std::string& sch : schemes) {
    for (std::size_t i = 0; i < base_values.size(); ++i) {
      const double v = base_values[i];
      auto cfg = config_from(args, ok);
      if (!ok) return false;
      if (spec.param == "load") {
        if (!cfg.workload) {
          std::fprintf(stderr, "xmpsim: --param=load needs --workload=FILE\n");
          return false;
        }
        if (!cfg.workload->has_cdf) {
          std::fprintf(stderr, "xmpsim: --param=load needs a workload with a 'cdf' directive\n");
          return false;
        }
        if (v <= 0 || v > 1.2) {
          std::fprintf(stderr,
                       "xmpsim: bad --values entry %g for --param=load (expected in (0, 1.2])\n",
                       v);
          return false;
        }
      }
      if (spec.param == "mark-k") {
        cfg.mark_threshold = static_cast<std::size_t>(ints[i]);
      } else if (spec.param == "beta") {
        cfg.scheme.beta = static_cast<int>(ints[i]);
      } else if (spec.param == "subflows") {
        cfg.scheme.subflows = static_cast<int>(ints[i]);
      } else if (spec.param == "queue") {
        cfg.queue_capacity = static_cast<std::size_t>(ints[i]);
      } else if (spec.param == "load") {
        cfg.offered_load = v;
      } else {
        cfg.seed = static_cast<std::uint64_t>(ints[i]);
      }
      if (!sch.empty()) {
        // Swap the scheme kind, keeping every other knob (--subflows,
        // --beta, --dead-after, --rehome) exactly as config_from set it.
        workload::SchemeSpec s2 = cfg.scheme;
        parse_scheme(sch, s2.subflows, s2.beta, s2);
        cfg.scheme = s2;
      }
      // Each job writes its own trace/metrics files ("trace.json" ->
      // "trace.<i>.json"); concurrent jobs must never share an output path.
      const std::size_t job = spec.grid.size();
      cfg.obs.trace_json = per_job_path(cfg.obs.trace_json, job);
      cfg.obs.trace_csv = per_job_path(cfg.obs.trace_csv, job);
      cfg.obs.metrics_json = per_job_path(cfg.obs.metrics_json, job);
      cfg.obs.fct_csv = per_job_path(cfg.obs.fct_csv, job);
      spec.values.push_back(knob != nullptr ? core::SweepValue::of_int(ints[i])
                                            : core::SweepValue::of_real(v));
      spec.labels.push_back(sch);
      spec.grid.push_back({cfg, "job_" + std::to_string(job)});
    }
  }
  return true;
}

/// Aggregate campaign summary. Built ONLY from the salvaged per-job result
/// files (via CampaignOutcome), never from in-memory run state, and carries
/// no timing/attempt data — so an interrupted-and-resumed campaign writes a
/// summary byte-identical to an uninterrupted one.
void write_sweep_summary(const std::string& dir, const SweepSpec& spec,
                         const core::CampaignOutcome& outcome) {
  trace::JsonWriter json{dir + "/sweep_summary.json"};
  json.begin_object();
  json.kv("param", spec.param);
  json.kv("jobs", static_cast<std::uint64_t>(spec.grid.size()));
  json.kv("completed",
          static_cast<std::uint64_t>(spec.grid.size() - outcome.incomplete.size()));
  json.key("incomplete");
  json.begin_array();
  for (const std::size_t i : outcome.incomplete) json.value(static_cast<std::uint64_t>(i));
  json.end_array();
  json.key("table");
  json.begin_array();
  for (std::size_t i = 0; i < outcome.results.size(); ++i) {
    if (!outcome.results[i]) continue;
    const core::JobResult& r = *outcome.results[i];
    json.begin_object();
    json.kv("index", static_cast<std::uint64_t>(i));
    json.key("value");
    spec.values[i].write(json);
    json.kv("goodput_mbps", r.goodput_mbps);
    json.kv("events", r.events);
    json.kv("flows", r.flows);
    json.kv("completed_flows", r.completed_flows);
    json.kv("aborted_flows", r.aborted_flows);
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

/// Ready-to-plot load-vs-FCT table (`fct_summary.json`). Same discipline as
/// write_sweep_summary: built ONLY from the salvaged job_<i>/summary.json files, so
/// a SIGKILLed-and-resumed campaign emits a byte-identical file.
void write_fct_summary(const std::string& dir, const SweepSpec& spec,
                       const core::CampaignOutcome& outcome) {
  trace::JsonWriter json{dir + "/fct_summary.json"};
  json.begin_object();
  json.kv("param", spec.param);
  json.key("table");
  json.begin_array();
  for (std::size_t i = 0; i < outcome.results.size(); ++i) {
    if (!outcome.results[i] || !outcome.results[i]->has_fct) continue;
    const core::JobResult& r = *outcome.results[i];
    json.begin_object();
    json.kv("index", static_cast<std::uint64_t>(i));
    json.key("value");
    spec.values[i].write(json);
    json.kv("scheme", spec.labels[i].empty() ? spec.grid[i].cfg.scheme.name() : spec.labels[i]);
    json.kv("offered_load", r.fct_load);
    json.kv("completed", r.fct_completed);
    json.kv("censored", r.fct_censored);
    auto quantiles = [&](const char* name, const core::JobResult::FctQuantiles& q) {
      json.key(name);
      json.begin_object();
      json.kv("count", q.count);
      json.kv("mean", q.mean);
      json.kv("p50", q.p50);
      json.kv("p95", q.p95);
      json.kv("p99", q.p99);
      json.end_object();
    };
    quantiles("all", r.fct_all);
    json.key("bins");
    json.begin_object();
    for (int b = 0; b < core::ExperimentResults::FctStats::kBins; ++b) {
      quantiles(core::ExperimentResults::FctStats::bin_name(b), r.fct_bins[b]);
    }
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

/// Crash-isolated, resumable sweep campaign in `out` (--out=DIR; empty = a
/// fresh temp dir, see work_dir), or resumed in it (--resume=DIR).
int cmd_sweep_campaign(const Args& given, const std::string& out, bool resume) {
  core::JobManifest manifest;
  Args args = given;
  if (resume) {
    std::string err;
    if (!core::JobManifest::load(out, manifest, &err)) {
      std::fprintf(stderr, "xmpsim: cannot resume --resume=%s: %s\n", out.c_str(), err.c_str());
      return 2;
    }
    // Effective flags = today's command line first (overrides win, because
    // Args::get returns the first match), then the campaign's stored argv
    // but its --out, which --resume replaces.
    for (const auto& a : manifest.argv) {
      if (a.rfind("--out=", 0) != 0) args.append({a});
    }
  }

  SweepSpec spec;
  if (!build_sweep_grid(args, spec)) return 2;
  bool ok = true;
  core::OrchestratorConfig ocfg;
  ocfg.workers = static_cast<unsigned>(flag_i(args, "jobs", 0, 1, 4096, ok));
  ocfg.job_timeout_s = flag_d(args, "job-timeout", 0.0, 0, 86400, ok);
  ocfg.retries = static_cast<int>(flag_i(args, "retries", 2, 0, 100, ok));
  ocfg.backoff_base_s = flag_d(args, "backoff", 0.5, 0, 3600, ok);
  const bool strict = args.has("strict");
  if (!ok || !args.finish(kUsage)) return 2;

  if (resume) {
    // The grid rebuilt from the merged flags must be the campaign's grid;
    // anything else would silently mix results from different experiments.
    bool same = manifest.param == spec.param && manifest.jobs.size() == spec.grid.size();
    for (std::size_t i = 0; same && i < manifest.jobs.size(); ++i) {
      same = manifest.jobs[i].value == spec.values[i];
    }
    if (!same) {
      std::fprintf(stderr,
                   "xmpsim: --resume=%s grid mismatch (manifest sweeps %s over %zu values); "
                   "re-run without conflicting --param/--values\n",
                   out.c_str(), manifest.param.c_str(), manifest.jobs.size());
      return 2;
    }
  } else {
    manifest.param = spec.param;
    manifest.argv = given.raw();
    manifest.jobs.resize(spec.grid.size());
    for (std::size_t i = 0; i < spec.grid.size(); ++i) manifest.jobs[i].value = spec.values[i];
  }
  bool ephemeral = false;
  const std::string dir = resume ? out : work_dir("sweep", "out", out, ephemeral);
  if (dir.empty()) return 2;
  ocfg.campaign_dir = dir;

  obs::MetricsRegistry metrics;
  obs::TimelineTracer::Config tcfg;
  tcfg.capacity = 1u << 16;
  tcfg.categories = obs::cat::kHarness;
  obs::TimelineTracer tracer{tcfg};
  ocfg.metrics = &metrics;
  ocfg.tracer = &tracer;

  core::Orchestrator orch{ocfg};
  std::fprintf(stderr, "%s campaign in %s: %zu points, timeout=%gs, retries=%d\n",
               resume ? "resuming" : "starting", dir.c_str(), spec.grid.size(),
               ocfg.job_timeout_s, ocfg.retries);
  const core::CampaignOutcome outcome = orch.run(spec.grid, manifest);

  bool any_fct = false;
  for (const auto& r : outcome.results) {
    if (r && r->has_fct) any_fct = true;
  }
  // Extra columns only when the feature that produces them is in play, so
  // classic sweeps keep their exact historical stdout format.
  std::printf("%-12s", spec.param.c_str());
  if (spec.schemes_swept) std::printf(" %-8s", "scheme");
  std::printf(" %16s %16s", "goodput (Mbps)", "events");
  if (any_fct) std::printf(" %10s %10s", "fct p50", "fct p99");
  std::printf("\n");
  for (std::size_t i = 0; i < outcome.results.size(); ++i) {
    std::printf("%-12s", spec.values[i].label().c_str());
    if (spec.schemes_swept) std::printf(" %-8s", spec.labels[i].c_str());
    if (outcome.results[i]) {
      const core::JobResult& r = *outcome.results[i];
      std::printf(" %16.1f %16llu", r.goodput_mbps, static_cast<unsigned long long>(r.events));
      if (any_fct) {
        if (r.has_fct && r.fct_all.count > 0) {
          std::printf(" %10.2f %10.2f", r.fct_all.p50, r.fct_all.p99);
        } else {
          std::printf(" %10s %10s", "-", "-");
        }
      }
      std::printf("\n");
    } else {
      std::printf(" %16s %16s", "-", "-");
      if (any_fct) std::printf(" %10s %10s", "-", "-");
      std::printf("  (%s after %d attempts)\n", outcome.jobs[i].last_error.c_str(),
                  outcome.jobs[i].attempts);
    }
  }

  write_sweep_summary(dir, spec, outcome);
  if (any_fct) write_fct_summary(dir, spec, outcome);
  metrics.dump_to_file(dir + "/harness_metrics.json");
  tracer.export_chrome_json(dir + "/harness_trace.json");

  if (outcome.complete()) {
    if (ephemeral) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
    return 0;
  }
  std::fprintf(stderr, "xmpsim: %zu of %zu jobs incomplete after retries%s\n",
               outcome.incomplete.size(), spec.grid.size(),
               strict ? "" : " (salvaged the rest; --strict to fail)");
  if (ephemeral) {
    std::fprintf(stderr, "xmpsim: sweep: campaign kept in %s (--resume=%s re-runs the rest)\n",
                 dir.c_str(), dir.c_str());
  }
  return strict ? 1 : 0;
}

int cmd_sweep(const Args& args) {
  const std::string resume_dir = args.get("resume", "");
  const bool resume = !resume_dir.empty();
  return cmd_sweep_campaign(args, resume ? resume_dir : args.get("out", ""), resume);
}

int cmd_topo(const Args& args) {
  bool ok = true;
  const int k = cli::flag_k(args, 8, ok);
  if (!ok || !args.finish(kUsage)) return 2;
  sim::Scheduler sched;
  net::Network netw{sched};
  topo::FatTree::Config tc;
  tc.k = k;
  topo::FatTree tree{netw, tc};
  std::printf("Fat-Tree k=%d: %d hosts, %zu switches, %d equal-cost inter-pod paths\n", k,
              tree.n_hosts(), netw.switches().size(), tree.inter_pod_paths());
  std::printf("links per layer: rack %zu, aggregation %zu, core %zu (unidirectional)\n",
              tree.links(topo::FatTree::Layer::Rack).size(),
              tree.links(topo::FatTree::Layer::Aggregation).size(),
              tree.links(topo::FatTree::Layer::Core).size());
  const double inner = 4 * tc.rack_delay.us();
  const double pod = 2 * (2 * tc.rack_delay.us() + 2 * tc.agg_delay.us());
  const double inter = 2 * (2 * tc.rack_delay.us() + 2 * tc.agg_delay.us() + 2 * tc.core_delay.us());
  std::printf("base RTTs (no queueing): inner-rack %.0fus, inter-rack %.0fus, inter-pod %.0fus\n",
              inner, pod, inter);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc < 2 ? "" : argv[1];
  const Args args{argc, argv, 2};
  if (cmd == "--help" || (!cmd.empty() && args.has("help"))) {
    std::fputs(kUsage.data(), stdout);
    return 0;
  }
  if (cmd == "run") return cmd_run(args);
  if (cmd == "verify") return cmd_verify(args);
  if (cmd == "fluid") return cmd_fluid(args);
  if (cmd == "sweep") return cmd_sweep(args);
  if (cmd == "topo") return cmd_topo(args);
  std::fputs(kUsage.data(), stderr);
  return 2;
}
