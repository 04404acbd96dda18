// xmpsim — command-line front end to the library.
//
//   xmpsim run    --pattern=random --scheme=xmp --subflows=2 [--k=8]
//                 [--workload=FILE.wl] [--load=0.3]
//                 [--duration=0.5] [--queue=100] [--mark-k=10] [--beta=4]
//                 [--seed=1] [--coexist=dctcp] [--csv=flows.csv]
//                 [--json=summary.json]
//                 [--routing=pinned|ecmp|wcmp|flowlet] [--flowlet-gap=100]
//                 [--reroute-delay=0.001] [--rehome=0]
//                 [--faults="down,link=3,at=0.1; loss,link=5,at=0,p=0.01"]
//                 [--fault-seed=1] [--dead-after=3] [--invariants]
//                 [--drops-csv=drops.csv]
//                 [--trace=timeline.json] [--trace-csv=timeline.csv]
//                 [--trace-filter=cwnd,gain,queue] [--trace-capacity=262144]
//                 [--metrics=metrics.json] [--shards=N]
//                 [--checkpoint-every=SIMTIME] [--checkpoint-dir=DIR]
//                 [--restore=FILE] [--fct-csv=FILE]
//                 [--hybrid] [--hybrid-bg=FLOWS[:BYTES]]
//                 [--hybrid-fg=FLOWS[:BYTES]] [--hybrid-promote-bytes=N]
//                 [--hybrid-tick=US]
//       Run one Fat-Tree evaluation and print the paper's summary metrics.
//       --routing selects how switches spread over equal-cost up-ports
//       (default pinned = the paper's per-tag deterministic paths; ecmp
//       ignores tags and exhibits collisions); --flowlet-gap is the flowlet
//       idle gap in microseconds, --reroute-delay the failure-convergence
//       delay in seconds. --rehome lets MPTCP move a dead subflow onto a
//       fresh path up to N times per connection instead of killing it.
//       With --faults, the plan's events are injected on the simulation
//       clock (see src/faults/fault_plan.hpp for the grammar); --dead-after
//       defaults to 3 when faults are given (0 = failover disabled
//       otherwise); --invariants runs the runtime invariant probe.
//       --trace writes a Chrome trace-event JSON (open it in Perfetto or
//       chrome://tracing); --metrics dumps the run's counters/histograms.
//       --trace-capacity sizes each tracer ring (events; the oldest are
//       dropped first): one ring serially, k+1 with --shards (one per pod
//       plus the control strand), merged at export.
//       Observation never perturbs the simulation: a traced run produces
//       the same summary, byte for byte, as an untraced one.
//       --shards=N runs the sharded conservative-sync engine on N worker
//       threads (one logical shard per pod regardless of N, so every N —
//       including 1 — produces identical results). Permutation pattern
//       only; incompatible with --coexist, --routing=flowlet,
//       --invariants and --rehome.
//       --checkpoint-every=T writes a verified snapshot (ckpt_<seq>.bin in
//       --checkpoint-dir, default ".") every T *simulated* seconds at a
//       quiescent point; --restore=FILE resumes a run from a snapshot and
//       produces summary/trace/metrics byte-identical to the uninterrupted
//       run. SIGTERM halts at the next quiescent point, writes a final
//       checkpoint and a partial summary, and exits 143. Checkpointing is
//       incompatible with --coexist, --routing=flowlet and --rehome, and
//       --checkpoint-every with --invariants (see `replay` for that).
//       --workload=FILE replaces --pattern with an empirical workload file
//       (DESIGN.md §13): open-loop Poisson arrivals whose sizes come from a
//       flow-size CDF, plus optional explicit flows; --load=0.X sets the
//       offered load per sender (overriding the file's `load` directive).
//       The run then reports FCT slowdown p50/p95/p99 per flow-size bin
//       (and an "fct" block in --json). Composes with --faults, --routing
//       and checkpointing; incompatible with --coexist and --shards.
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
//       Requires --scheme=xmp; replaces --pattern; composes with
//       checkpointing, --trace and --metrics; incompatible with --shards,
//       --coexist, --workload and --faults. A snapshot from a non-hybrid
//       run never restores into a hybrid one (config fingerprint).
//
//   xmpsim replay --restore=FILE [--trace=...] [--invariants] ...
//       Re-run a snapshot to completion without writing new checkpoints —
//       for replaying a crash-point capture under extra observability
//       (--trace, --trace-csv, --metrics, --invariants). The snapshot's
//       config fingerprint must match the flags given.
//
//   xmpsim verify [--faults=PLAN] [--dir=DIR] [--checkpoint-every=SIMTIME]
//                 ... any scenario flags accepted by `run` ...
//       Differential validation harness (DESIGN.md §15): runs the same
//       scenario four times — serial (--shards=1), --shards=2, a
//       checkpointed reference, and a SIGKILL-mid-run + --restore leg —
//       each in its own sub-directory of DIR (default: a fresh temp dir,
//       removed on success, kept and named on failure). It then requires
//       summary.json and drops.csv to be byte-identical across ALL legs,
//       and trace.csv/metrics.json/out.txt to be byte-identical within
//       each engine-config pair (serial vs shards=2; checkpointed vs
//       kill+restore) — checkpointing legitimately adds CkptWrite trace
//       events and harness.ckpt.* meters, so those files are only compared
//       between legs with identical checkpoint flags. Exit 0 = all legs
//       agree, 1 = divergence (the differing file and legs are named),
//       2 = bad flags. The harness owns --shards, --checkpoint-dir,
//       --restore and every output path; --checkpoint-every only sets the
//       kill leg's snapshot cadence (default 0.005). Scenario flags are
//       validated up front with the same rules as `run` under --shards.
//
//   xmpsim fluid  --capacity-gbps=1 --flows=3 [--beta=4] [--rtt-us=300]
//       Closed-form BOS equilibrium on a single bottleneck (paper §2.1).
//
//   xmpsim sweep  --param={mark-k|beta|subflows|queue|seed|load} --values=a,b,c
//                 [--schemes=xmp,dctcp,lia,olia] [--jobs=N] ...
//       Re-run `run` for each value and tabulate average goodput. Points
//       run concurrently on N worker threads (default: hardware cores);
//       results are identical to a serial sweep, in the order given.
//       --param=load sweeps the offered load of a --workload=FILE run (an
//       FCT study); --schemes crosses the value list with a scheme list
//       (grid = schemes x values) and campaigns emit a ready-to-plot
//       fct_summary.json next to sweep_summary.json.
//       --trace/--trace-csv/--metrics apply per job: "trace.json" becomes
//       "trace.0.json", "trace.1.json", ... (one file per sweep point).
//
//       With --out=DIR the sweep becomes a resilient *campaign*: every job
//       runs crash-isolated in its own process, a watchdog kills attempts
//       that exceed --job-timeout=SECONDS, and failures are retried up to
//       --retries=N times with exponential backoff (--backoff=SECONDS base,
//       deterministic per-job jitter). DIR accumulates job_<i>.json result
//       files, a sweep_manifest.json updated atomically after every state
//       change, the aggregate sweep_summary.json, and the harness's own
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
//   xmpsim topo   [--k=8]
//       Print Fat-Tree dimensions and delay budget for a given k.
//
// All flag values are validated up front: a malformed or out-of-range value
// prints one line naming the flag, the offending value and the accepted
// range, then exits 2 (never an assert).

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
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

/// Flipped by the SIGTERM handler; polled by the engine at quiescent
/// points. Installed only when checkpointing is configured, so plain runs
/// keep the default (terminating) disposition.
std::atomic<bool> g_stop{false};

extern "C" void on_sigterm(int) { g_stop.store(true); }

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) args_.emplace_back(argv[i]);
  }
  /// Build from a raw flag vector (used to replay a manifest's stored argv).
  explicit Args(std::vector<std::string> raw) : args_{std::move(raw)} {}

  /// The flags verbatim, in order. `get` returns the *first* match, so
  /// prepending new flags to a stored vector overrides the stored values.
  [[nodiscard]] const std::vector<std::string>& raw() const { return args_; }

  [[nodiscard]] std::string get(const std::string& key, const std::string& fallback) const {
    const std::string prefix = "--" + key + "=";
    for (const auto& a : args_) {
      if (a.rfind(prefix, 0) == 0) return a.substr(prefix.size());
    }
    return fallback;
  }

  /// Bare boolean flag (`--invariants`, no value).
  [[nodiscard]] bool has(const std::string& key) const {
    const std::string flag = "--" + key;
    for (const auto& a : args_) {
      if (a == flag) return true;
    }
    return false;
  }

 private:
  std::vector<std::string> args_;
};

/// Strict numeric parsing: the whole token must be consumed, no overflow.
bool parse_number(const std::string& v, double& out) {
  if (v.empty()) return false;
  errno = 0;
  char* end = nullptr;
  out = std::strtod(v.c_str(), &end);
  return errno == 0 && end != nullptr && *end == '\0';
}

bool parse_integer(const std::string& v, std::int64_t& out) {
  if (v.empty()) return false;
  errno = 0;
  char* end = nullptr;
  out = std::strtoll(v.c_str(), &end, 10);
  return errno == 0 && end != nullptr && *end == '\0';
}

/// Validated flag accessors. A missing flag yields `fallback` untouched; a
/// present-but-malformed or out-of-range value prints one line naming the
/// flag, the value and the accepted range, and clears `ok` (callers exit 2).
double flag_d(const Args& args, const char* key, double fallback, double lo, double hi, bool& ok) {
  const std::string v = args.get(key, "");
  if (v.empty()) return fallback;
  double out = 0;
  if (!parse_number(v, out) || out < lo || out > hi) {
    std::fprintf(stderr, "xmpsim: bad --%s=%s (expected a number in [%g, %g])\n", key, v.c_str(),
                 lo, hi);
    ok = false;
    return fallback;
  }
  return out;
}

std::int64_t flag_i(const Args& args, const char* key, std::int64_t fallback, std::int64_t lo,
                    std::int64_t hi, bool& ok) {
  const std::string v = args.get(key, "");
  if (v.empty()) return fallback;
  std::int64_t out = 0;
  if (!parse_integer(v, out) || out < lo || out > hi) {
    std::fprintf(stderr, "xmpsim: bad --%s=%s (expected an integer in [%lld, %lld])\n", key,
                 v.c_str(), static_cast<long long>(lo), static_cast<long long>(hi));
    ok = false;
    return fallback;
  }
  return out;
}

std::vector<double> flag_list(const Args& args, const char* key, bool& ok) {
  std::vector<double> out;
  std::string v = args.get(key, "");
  while (!v.empty()) {
    const auto comma = v.find(',');
    const std::string token = v.substr(0, comma);
    double num = 0;
    if (!parse_number(token, num)) {
      std::fprintf(stderr, "xmpsim: bad --%s entry '%s' (expected a number)\n", key,
                   token.c_str());
      ok = false;
      return {};
    }
    out.push_back(num);
    if (comma == std::string::npos) break;
    v = v.substr(comma + 1);
  }
  return out;
}

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

core::ExperimentConfig config_from(const Args& args, bool& ok) {
  core::ExperimentConfig cfg;
  ok = true;

  const std::string pattern = args.get("pattern", "random");
  if (pattern == "permutation") {
    cfg.pattern = core::Pattern::Permutation;
  } else if (pattern == "random") {
    cfg.pattern = core::Pattern::Random;
  } else if (pattern == "incast") {
    cfg.pattern = core::Pattern::Incast;
  } else {
    std::fprintf(stderr, "xmpsim: bad --pattern=%s (expected permutation|random|incast)\n",
                 pattern.c_str());
    ok = false;
  }

  const std::string workload_file = args.get("workload", "");
  cfg.offered_load = flag_d(args, "load", 0.0, 0.0001, 1.2, ok);
  if (!workload_file.empty()) {
    if (!args.get("pattern", "").empty()) {
      std::fprintf(stderr, "xmpsim: --workload replaces --pattern (drop --pattern=%s)\n",
                   pattern.c_str());
      ok = false;
    }
    auto spec = std::make_shared<workload::WorkloadSpec>();
    std::string werr;
    if (!workload::WorkloadSpec::parse_file(workload_file, *spec, &werr)) {
      std::fprintf(stderr, "xmpsim: bad --workload: %s\n", werr.c_str());
      ok = false;
    } else {
      cfg.pattern = core::Pattern::Workload;
      cfg.workload = std::move(spec);
    }
  } else if (!args.get("load", "").empty()) {
    std::fprintf(stderr, "xmpsim: --load needs --workload=FILE\n");
    ok = false;
  }

  const int subflows = static_cast<int>(flag_i(args, "subflows", 2, 1, 64, ok));
  const int beta = static_cast<int>(flag_i(args, "beta", 4, 1, 1000, ok));
  const std::string scheme = args.get("scheme", "xmp");
  if (!parse_scheme(scheme, subflows, beta, cfg.scheme)) {
    std::fprintf(stderr, "xmpsim: bad --scheme=%s (expected tcp|dctcp|xmp|lia|olia)\n",
                 scheme.c_str());
    ok = false;
  }
  const std::string coexist = args.get("coexist", "");
  if (!coexist.empty()) {
    workload::SchemeSpec b;
    if (!parse_scheme(coexist, subflows, beta, b)) {
      std::fprintf(stderr, "xmpsim: bad --coexist=%s (expected tcp|dctcp|xmp|lia|olia)\n",
                   coexist.c_str());
      ok = false;
    }
    cfg.scheme_b = b;
  }

  cfg.fat_tree_k = static_cast<int>(flag_i(args, "k", 8, 2, 64, ok));
  if (cfg.fat_tree_k % 2 != 0) {
    std::fprintf(stderr, "xmpsim: bad --k=%d (expected an even integer in [2, 64])\n",
                 cfg.fat_tree_k);
    ok = false;
    cfg.fat_tree_k = 8;
  }
  cfg.duration = sim::Time::seconds(flag_d(args, "duration", 0.5, 1e-6, 3600, ok));
  cfg.queue_capacity = static_cast<std::size_t>(flag_i(args, "queue", 100, 1, 1000000, ok));
  cfg.mark_threshold = static_cast<std::size_t>(flag_i(args, "mark-k", 10, 1, 1000000, ok));
  cfg.permutation_rounds = static_cast<int>(flag_i(args, "rounds", 2, 1, 1000, ok));
  cfg.seed = static_cast<std::uint64_t>(flag_i(args, "seed", 1, 0, INT64_MAX, ok));

  const std::string faults = args.get("faults", "");
  if (!faults.empty()) {
    std::string error;
    if (!faults::FaultPlan::parse(faults, cfg.fault_plan, &error)) {
      std::fprintf(stderr, "xmpsim: bad --faults: %s\n", error.c_str());
      ok = false;
    }
  }
  cfg.fault_seed = static_cast<std::uint64_t>(flag_i(args, "fault-seed", 1, 0, INT64_MAX, ok));
  // Subflow failover is on by default only under fault injection, so that
  // fault-free runs stay bit-identical to builds without the fault layer.
  cfg.scheme.dead_after_rtos =
      static_cast<int>(flag_i(args, "dead-after", cfg.fault_plan.empty() ? 0 : 3, 0, 1000, ok));
  if (cfg.scheme_b) cfg.scheme_b->dead_after_rtos = cfg.scheme.dead_after_rtos;
  cfg.scheme.max_rehomes = static_cast<int>(flag_i(args, "rehome", 0, 0, 1000, ok));
  if (cfg.scheme_b) cfg.scheme_b->max_rehomes = cfg.scheme.max_rehomes;

  const std::string routing = args.get("routing", "pinned");
  if (!route::parse_policy(routing, cfg.routing.kind)) {
    std::fprintf(stderr, "xmpsim: bad --routing=%s (expected pinned|ecmp|wcmp|flowlet)\n",
                 routing.c_str());
    ok = false;
  }
  cfg.routing.flowlet_gap =
      sim::Time::microseconds(flag_i(args, "flowlet-gap", 100, 1, 1000000000, ok));
  cfg.routing.reroute_delay = sim::Time::seconds(flag_d(args, "reroute-delay", 0.001, 0, 60, ok));
  cfg.check_invariants = args.has("invariants") || !args.get("invariants", "").empty();

  const auto scale = flag_i(args, "scale", 1, 1, 1000000, ok);
  cfg.perm_min_bytes *= scale;
  cfg.perm_max_bytes *= scale;
  cfg.rand_min_bytes *= scale;
  cfg.rand_max_bytes *= scale;

  // Workload-file cross-checks (the file itself already parsed clean).
  if (cfg.workload) {
    const int hosts = cfg.fat_tree_k * cfg.fat_tree_k * cfg.fat_tree_k / 4;
    if (cfg.workload->nodes > hosts) {
      std::fprintf(stderr, "xmpsim: workload needs %d hosts but --k=%d provides %d\n",
                   cfg.workload->nodes, cfg.fat_tree_k, hosts);
      ok = false;
    }
    if (cfg.workload->span == workload::WorkloadSpan::InterRack &&
        cfg.workload->nodes <= cfg.fat_tree_k / 2) {
      std::fprintf(stderr,
                   "xmpsim: workload span inter-rack needs nodes in >= 2 racks "
                   "(%d nodes fit in one rack of %d hosts)\n",
                   cfg.workload->nodes, cfg.fat_tree_k / 2);
      ok = false;
    }
    if (cfg.workload->has_cdf && cfg.offered_load <= 0.0 && cfg.workload->default_load <= 0.0) {
      std::fprintf(stderr,
                   "xmpsim: workload has a cdf but no offered load "
                   "(give --load=0.X or a 'load' directive)\n");
      ok = false;
    }
    if (!cfg.workload->has_cdf && cfg.offered_load > 0.0) {
      std::fprintf(stderr, "xmpsim: --load has no effect on a trace-only workload\n");
      ok = false;
    }
    if (cfg.scheme_b) {
      std::fprintf(stderr, "xmpsim: --workload is incompatible with --coexist\n");
      ok = false;
    }
  }

  cfg.shards = static_cast<int>(flag_i(args, "shards", 0, 0, 4096, ok));
  if (cfg.shards > 0) {
    // The sharded engine supports a precise subset of the serial feature
    // set (DESIGN.md §11); everything else is an up-front one-line reject.
    if (cfg.pattern != core::Pattern::Permutation) {
      std::fprintf(stderr, "xmpsim: --shards requires --pattern=permutation (got %s)\n",
                   core::pattern_name(cfg.pattern));
      ok = false;
    }
    if (cfg.scheme_b) {
      std::fprintf(stderr, "xmpsim: --shards is incompatible with --coexist\n");
      ok = false;
    }
    if (cfg.routing.kind == route::PolicyKind::Flowlet) {
      std::fprintf(stderr, "xmpsim: --shards is incompatible with --routing=flowlet\n");
      ok = false;
    }
    if (cfg.check_invariants) {
      std::fprintf(stderr, "xmpsim: --shards is incompatible with --invariants\n");
      ok = false;
    }
    if (cfg.scheme.max_rehomes > 0) {
      std::fprintf(stderr, "xmpsim: --shards is incompatible with --rehome\n");
      ok = false;
    }
  }

  // --- hybrid fluid/packet engine (DESIGN.md §14) ---
  cfg.hybrid.enabled = args.has("hybrid");
  {
    // FLOWS[:BYTES] spec: "--hybrid-bg=100000" or "--hybrid-bg=1000:64000000".
    auto parse_count_spec = [&](const char* key, int& count, std::int64_t& bytes) {
      const std::string v = args.get(key, "");
      if (v.empty()) return;
      const auto colon = v.find(':');
      std::int64_t n = 0;
      std::int64_t b = bytes;
      bool good = parse_integer(v.substr(0, colon), n) && n >= 1 && n <= 2'000'000;
      if (good && colon != std::string::npos) {
        good = parse_integer(v.substr(colon + 1), b) && b >= 1;
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
    const bool sub_flags =
        !args.get("hybrid-bg", "").empty() || !args.get("hybrid-fg", "").empty() ||
        !args.get("hybrid-promote-bytes", "").empty() || !args.get("hybrid-tick", "").empty();
    if (sub_flags && !cfg.hybrid.enabled) {
      std::fprintf(stderr, "xmpsim: --hybrid-* flags need --hybrid\n");
      ok = false;
    }
    if (cfg.hybrid.enabled) {
      parse_count_spec("hybrid-bg", cfg.hybrid.bg_flows, cfg.hybrid.bg_bytes);
      parse_count_spec("hybrid-fg", cfg.hybrid.fg_flows, cfg.hybrid.fg_bytes);
      cfg.hybrid.promote_bytes =
          flag_i(args, "hybrid-promote-bytes", 0, 0, std::int64_t{1} << 40, ok);
      cfg.hybrid.tick = sim::Time::microseconds(flag_i(args, "hybrid-tick", 200, 10, 1000000, ok));
      // The fluid ODEs implement the paper's §2 XMP dynamics; everything the
      // hybrid engine can't represent is an up-front one-line reject.
      if (cfg.scheme.kind != workload::SchemeSpec::Kind::Xmp) {
        std::fprintf(stderr, "xmpsim: --hybrid requires --scheme=xmp (got %s)\n", scheme.c_str());
        ok = false;
      }
      if (!args.get("pattern", "").empty()) {
        std::fprintf(stderr, "xmpsim: --hybrid replaces --pattern (drop --pattern=%s)\n",
                     pattern.c_str());
        ok = false;
      }
      if (cfg.workload) {
        std::fprintf(stderr, "xmpsim: --hybrid is incompatible with --workload\n");
        ok = false;
      }
      if (cfg.scheme_b) {
        std::fprintf(stderr, "xmpsim: --hybrid is incompatible with --coexist\n");
        ok = false;
      }
      if (!cfg.fault_plan.empty()) {
        std::fprintf(stderr, "xmpsim: --hybrid is incompatible with --faults\n");
        ok = false;
      }
      if (cfg.shards > 0) {
        std::fprintf(stderr, "xmpsim: --hybrid is incompatible with --shards (serial engine only)\n");
        ok = false;
      }
      // In hybrid mode the pattern enum is inert (the engine replaces the
      // generators); Permutation keeps name/fingerprint output stable.
      cfg.pattern = core::Pattern::Permutation;
    }
  }

  cfg.obs.trace_json = args.get("trace", "");
  cfg.obs.trace_csv = args.get("trace-csv", "");
  cfg.obs.metrics_json = args.get("metrics", "");
  cfg.obs.fct_csv = args.get("fct-csv", "");
  if (!cfg.obs.fct_csv.empty() && cfg.pattern != core::Pattern::Workload) {
    std::fprintf(stderr, "xmpsim: --fct-csv needs --workload=FILE\n");
    ok = false;
  }
  cfg.obs.capacity =
      static_cast<std::size_t>(flag_i(args, "trace-capacity", 1 << 18, 1, 1 << 26, ok));
  const std::string filter = args.get("trace-filter", "");
  std::string filter_error;
  if (!obs::TimelineTracer::parse_filter(filter, cfg.obs.categories, &filter_error)) {
    std::fprintf(stderr, "xmpsim: bad --trace-filter: %s\n", filter_error.c_str());
    ok = false;
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
  if (cfg.checkpoint.every > sim::Time::zero() || !cfg.checkpoint.restore_path.empty()) {
    // Checkpoint hooks cover a precise subset of the feature set; everything
    // outside it is an up-front one-line reject, never a corrupt snapshot.
    if (cfg.scheme_b) {
      std::fprintf(stderr, "xmpsim: checkpointing is incompatible with --coexist\n");
      ok = false;
    }
    if (cfg.routing.kind == route::PolicyKind::Flowlet) {
      std::fprintf(stderr, "xmpsim: checkpointing is incompatible with --routing=flowlet\n");
      ok = false;
    }
    if (cfg.scheme.max_rehomes > 0) {
      std::fprintf(stderr, "xmpsim: checkpointing is incompatible with --rehome\n");
      ok = false;
    }
  }
  if (cfg.check_invariants && cfg.checkpoint.every > sim::Time::zero()) {
    std::fprintf(stderr,
                 "xmpsim: --invariants is incompatible with --checkpoint-every "
                 "(use 'xmpsim replay --restore=FILE --invariants' instead)\n");
    ok = false;
  }
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
  std::printf("pattern=%s scheme=%s%s%s k=%d sim=%.3fs events=%llu\n",
              core::pattern_name(cfg.pattern), cfg.scheme.name().c_str(),
              cfg.scheme_b ? " vs " : "", cfg.scheme_b ? cfg.scheme_b->name().c_str() : "",
              cfg.fat_tree_k, res.sim_duration.sec(),
              static_cast<unsigned long long>(res.events_dispatched));
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
  for (int l = 0; l < 3; ++l) {
    const auto& d = res.utilization_by_layer[l];
    std::printf("util %-12s mean %.3f  p90 %.3f\n",
                topo::FatTree::layer_name(static_cast<topo::FatTree::Layer>(l)), d.mean(),
                d.percentile(90));
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
  if (res.sharded) {
    std::printf("sharded: %d logical shards, lookahead %.1f us, %llu epochs, %llu barriers, "
                "%llu handoff pkts, %llu micro-steps, %llu replays\n",
                res.shard.logical_shards, res.shard.lookahead_us,
                static_cast<unsigned long long>(res.shard.epochs),
                static_cast<unsigned long long>(res.shard.barriers),
                static_cast<unsigned long long>(res.shard.handoff_packets),
                static_cast<unsigned long long>(res.shard.micro_steps),
                static_cast<unsigned long long>(res.shard.replays));
  }
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

int cmd_run_impl(const Args& args, bool replay_mode) {
  bool ok = true;
  auto cfg = config_from(args, ok);
  if (replay_mode) {
    if (cfg.checkpoint.restore_path.empty()) {
      std::fprintf(stderr, "xmpsim: replay needs --restore=FILE\n");
      ok = false;
    }
    if (cfg.checkpoint.every > sim::Time::zero()) {
      std::fprintf(stderr,
                   "xmpsim: replay never writes checkpoints (drop --checkpoint-every)\n");
      ok = false;
    }
  }
  if (!ok) return 2;

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
  if (!replay_mode && cfg.checkpoint.every > sim::Time::zero()) {
    struct sigaction sa = {};
    sa.sa_handler = on_sigterm;
    ::sigaction(SIGTERM, &sa, nullptr);
    cfg.checkpoint.stop_requested = &g_stop;
  }

  const auto res = core::run_experiment(cfg);
  print_summary(cfg, res);
  const std::string csv = args.get("csv", "");
  if (!csv.empty()) {
    core::export_flows_csv(res, csv);
    std::printf("wrote %s\n", csv.c_str());
  }
  const std::string json = args.get("json", "");
  if (!json.empty()) {
    core::export_summary_json(cfg, res, json);
    std::printf("wrote %s\n", json.c_str());
  }
  const std::string drops_csv = args.get("drops-csv", "");
  if (!drops_csv.empty()) {
    core::export_link_drops_csv(res, drops_csv);
    std::printf("wrote %s\n", drops_csv.c_str());
  }
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

int cmd_run(const Args& args) { return cmd_run_impl(args, /*replay_mode=*/false); }
int cmd_replay(const Args& args) { return cmd_run_impl(args, /*replay_mode=*/true); }

// --- verify: differential validation harness (DESIGN.md §15) ---------------

/// Newest on-disk snapshot (highest seq) in `dir`, by filename only — the
/// restore path re-validates header, CRC and fingerprint. Empty if none.
std::string newest_snapshot(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  std::uint64_t best_seq = 0;
  std::string best;
  for (const auto& entry : fs::directory_iterator{dir, ec}) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= 9 || name.compare(0, 5, "ckpt_") != 0 ||
        name.compare(name.size() - 4, 4, ".bin") != 0)
      continue;
    const std::string digits = name.substr(5, name.size() - 9);
    if (digits.empty() || digits.find_first_not_of("0123456789") != std::string::npos) continue;
    const std::uint64_t seq = std::stoull(digits);
    if (best.empty() || seq > best_seq) {
      best_seq = seq;
      best = name;
    }
  }
  return best;
}

/// Fork a child that runs `xmpsim run <flags>` from inside `dir`, stdout
/// to out.txt and stderr to err.txt — each leg executes with relative
/// output paths so the stdout summaries are comparable byte for byte, and
/// resume notices on stderr never pollute the compared stream.
pid_t spawn_leg(const std::string& dir, const std::vector<std::string>& flags) {
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  if (::chdir(dir.c_str()) != 0) std::_Exit(127);
  if (std::freopen("out.txt", "w", stdout) == nullptr) std::_Exit(127);
  if (std::freopen("err.txt", "w", stderr) == nullptr) std::_Exit(127);
  std::_Exit(cmd_run(Args{flags}));
}

int wait_leg(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
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
  if (args.has("invariants")) {
    std::fprintf(stderr, "xmpsim: verify legs run under --shards; --invariants is serial-only "
                         "(use `run --invariants` directly)\n");
    ok = false;
  }
  if (args.has("hybrid")) {
    std::fprintf(stderr, "xmpsim: --hybrid is serial-engine-only; verify needs --shards legs\n");
    ok = false;
  }
  const std::string every = args.get("checkpoint-every", "0.005");
  if (!ok) return 2;

  // Scenario flags (verify's own removed), shared by every leg.
  std::vector<std::string> scenario;
  for (const auto& a : args.raw()) {
    if (a.rfind("--dir=", 0) == 0 || a.rfind("--checkpoint-every=", 0) == 0) continue;
    scenario.push_back(a);
  }
  // Validate once up front so a malformed scenario is a clean exit 2 on
  // *this* process's stderr, before any leg forks (legs log to err.txt).
  {
    std::vector<std::string> probe = scenario;
    probe.emplace_back("--shards=1");
    bool cok = true;
    (void)config_from(Args{probe}, cok);
    if (!cok) return 2;
  }

  std::string root = args.get("dir", "");
  bool ephemeral = false;
  if (root.empty()) {
    std::string tmpl = "/tmp";
    if (const char* t = std::getenv("TMPDIR"); t != nullptr && *t != '\0') tmpl = t;
    tmpl += "/xmpverify.XXXXXX";
    std::vector<char> buf{tmpl.begin(), tmpl.end()};
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) == nullptr) {
      std::fprintf(stderr, "xmpsim: verify: mkdtemp(%s): %s\n", tmpl.c_str(),
                   std::strerror(errno));
      return 2;
    }
    root = buf.data();
    ephemeral = true;
  } else {
    std::error_code ec;
    fs::create_directories(root, ec);
    if (ec) {
      std::fprintf(stderr, "xmpsim: verify: cannot create --dir=%s: %s\n", root.c_str(),
                   ec.message().c_str());
      return 2;
    }
  }

  auto leg_dir = [&](const char* name) { return root + "/" + name; };
  const std::vector<std::string> outputs = {"--json=summary.json", "--trace-csv=trace.csv",
                                            "--metrics=metrics.json", "--drops-csv=drops.csv"};
  auto make_flags = [&](std::vector<std::string> extra) {
    extra.insert(extra.end(), outputs.begin(), outputs.end());
    extra.insert(extra.end(), scenario.begin(), scenario.end());
    return extra;
  };
  auto fail = [&](const std::string& msg) {
    std::fprintf(stderr, "xmpsim: verify FAIL: %s (legs kept in %s)\n", msg.c_str(), root.c_str());
    return 1;
  };

  const std::string ckpt_every = "--checkpoint-every=" + every;
  const struct {
    const char* name;
    std::vector<std::string> extra;
  } straight[] = {
      {"serial", {"--shards=1"}},
      {"shards2", {"--shards=2"}},
      {"ckpt", {"--shards=1", ckpt_every, "--checkpoint-dir=."}},
  };
  for (const auto& leg : straight) {
    const std::string dir = leg_dir(leg.name);
    std::error_code ec;
    fs::create_directories(dir, ec);
    std::printf("verify: leg %-7s %s\n", leg.name, leg.extra.front().c_str());
    const pid_t pid = spawn_leg(dir, make_flags(leg.extra));
    if (pid < 0) return fail("fork failed");
    const int rc = wait_leg(pid);
    if (rc != 0) {
      return fail("leg " + std::string{leg.name} + " exited " + std::to_string(rc) + " (see " +
                  dir + "/err.txt)");
    }
  }

  // Kill leg: same flags as the checkpointed reference, SIGKILLed as soon
  // as the first snapshot is visible (atomic rename: any ckpt_*.bin on
  // disk is complete), then resumed from the newest one.
  {
    const std::string dir = leg_dir("kill");
    std::error_code ec;
    fs::create_directories(dir, ec);
    std::printf("verify: leg kill    --shards=1 + SIGKILL mid-run + --restore\n");
    const std::vector<std::string> base = {"--shards=1", ckpt_every, "--checkpoint-dir=."};
    const pid_t pid = spawn_leg(dir, make_flags(base));
    if (pid < 0) return fail("fork failed");
    for (int i = 0; i < 400; ++i) {
      if (!newest_snapshot(dir).empty()) break;
      if (::kill(pid, 0) != 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    ::kill(pid, SIGKILL);
    const int rc = wait_leg(pid);
    const std::string snap = newest_snapshot(dir);
    if (snap.empty()) {
      return fail("kill leg wrote no snapshot — raise --duration or lower --checkpoint-every");
    }
    // rc == 0 means the run beat the signal; the resume below still
    // re-runs the tail from the last snapshot, which must reproduce the
    // reference bytes either way.
    if (rc != 0 && rc != 137) {
      return fail("kill leg exited " + std::to_string(rc) + " before the signal (see " + dir +
                  "/err.txt)");
    }
    std::vector<std::string> resume = base;
    resume.push_back("--restore=" + snap);
    const pid_t rpid = spawn_leg(dir, make_flags(resume));
    if (rpid < 0) return fail("fork failed");
    const int rrc = wait_leg(rpid);
    if (rrc != 0) {
      return fail("restore leg exited " + std::to_string(rrc) + " (see " + dir + "/err.txt)");
    }
  }

  // Byte-compare. summary.json and drops.csv must agree across ALL legs;
  // trace.csv/metrics.json/out.txt only within engine-config pairs,
  // because checkpointing legitimately adds CkptWrite timeline events,
  // harness.ckpt.* meters and a "checkpoints:" stdout line.
  auto compare = [&](const char* a, const char* b, const char* file) -> std::string {
    std::string ca;
    std::string cb;
    if (!read_all(leg_dir(a) + "/" + file, ca)) return std::string{a} + "/" + file + " unreadable";
    if (!read_all(leg_dir(b) + "/" + file, cb)) return std::string{b} + "/" + file + " unreadable";
    if (ca != cb) return std::string{file} + " differs between legs " + a + " and " + b;
    return {};
  };
  const struct {
    const char* a;
    const char* b;
    const char* file;
  } checks[] = {
      // Worker-count invariance: --shards=2 never changes one byte.
      {"serial", "shards2", "summary.json"},
      {"serial", "shards2", "drops.csv"},
      {"serial", "shards2", "trace.csv"},
      {"serial", "shards2", "metrics.json"},
      {"serial", "shards2", "out.txt"},
      // Checkpointing observes without perturbing.
      {"serial", "ckpt", "summary.json"},
      {"serial", "ckpt", "drops.csv"},
      // Crash + restore replays the exact trajectory.
      {"ckpt", "kill", "summary.json"},
      {"ckpt", "kill", "drops.csv"},
      {"ckpt", "kill", "trace.csv"},
      {"ckpt", "kill", "metrics.json"},
      {"ckpt", "kill", "out.txt"},
  };
  for (const auto& c : checks) {
    const std::string err = compare(c.a, c.b, c.file);
    if (!err.empty()) return fail(err);
  }

  std::printf("verify: PASS — serial, shards=2, checkpointed and kill+restore legs agree "
              "byte for byte\n");
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
  if (!ok) return 2;
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
  std::vector<double> values;        ///< swept value per grid point
  std::vector<std::string> labels;   ///< scheme per grid point ("" = --scheme)
  std::vector<core::ExperimentConfig> grid;
  bool schemes_swept = false;
};

bool build_sweep_grid(const Args& args, SweepSpec& spec) {
  bool ok = true;
  spec.param = args.get("param", "mark-k");
  const std::vector<double> base_values = flag_list(args, "values", ok);
  if (!ok) return false;
  if (!args.get("restore", "").empty()) {
    // Per-job restore decisions belong to the campaign orchestrator (it
    // probes each job's checkpoint directory on retry).
    std::fprintf(stderr, "xmpsim: --restore applies to 'run'/'replay', not 'sweep'\n");
    return false;
  }
  if (base_values.empty()) {
    std::fprintf(stderr, "xmpsim: sweep needs --values=a,b,c\n");
    return false;
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

  // Build the whole grid up front, then fan it across workers; results come
  // back in submission order, bit-identical to a serial sweep.
  for (const std::string& sch : schemes) {
    for (double v : base_values) {
      auto cfg = config_from(args, ok);
      if (!ok) return false;
      if (spec.param == "mark-k" || spec.param == "queue" || spec.param == "subflows" ||
          spec.param == "beta") {
        if (v < 1) {
          std::fprintf(stderr, "xmpsim: bad --values entry %g for --param=%s (expected >= 1)\n",
                       v, spec.param.c_str());
          return false;
        }
      } else if (spec.param == "seed") {
        if (v < 0) {
          std::fprintf(stderr, "xmpsim: bad --values entry %g for --param=seed (expected >= 0)\n",
                       v);
          return false;
        }
      } else if (spec.param == "load") {
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
      } else {
        std::fprintf(stderr,
                     "xmpsim: bad --param=%s (expected mark-k|beta|subflows|queue|seed|load)\n",
                     spec.param.c_str());
        return false;
      }
      if (spec.param == "mark-k") {
        cfg.mark_threshold = static_cast<std::size_t>(v);
      } else if (spec.param == "beta") {
        cfg.scheme.beta = static_cast<int>(v);
      } else if (spec.param == "subflows") {
        cfg.scheme.subflows = static_cast<int>(v);
      } else if (spec.param == "queue") {
        cfg.queue_capacity = static_cast<std::size_t>(v);
      } else if (spec.param == "load") {
        cfg.offered_load = v;
      } else {
        cfg.seed = static_cast<std::uint64_t>(v);
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
      spec.values.push_back(v);
      spec.labels.push_back(sch);
      spec.grid.push_back(cfg);
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
    json.kv("value", spec.values[i]);
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
/// write_sweep_summary: built ONLY from the salvaged job_<i>.json files, so
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
    json.kv("value", spec.values[i]);
    json.kv("scheme", spec.labels[i].empty() ? spec.grid[i].scheme.name() : spec.labels[i]);
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

/// Crash-isolated, resumable sweep (`--out=DIR` / `--resume=DIR`).
int cmd_sweep_campaign(const Args& cli, const std::string& dir, bool resume) {
  core::JobManifest manifest;
  Args args = cli;
  if (resume) {
    std::string err;
    if (!core::JobManifest::load(dir, manifest, &err)) {
      std::fprintf(stderr, "xmpsim: cannot resume --resume=%s: %s\n", dir.c_str(), err.c_str());
      return 2;
    }
    // Effective flags = today's command line first (overrides win, because
    // Args::get returns the first match), then the campaign's stored argv.
    std::vector<std::string> merged = cli.raw();
    merged.insert(merged.end(), manifest.argv.begin(), manifest.argv.end());
    args = Args{merged};
  }

  SweepSpec spec;
  if (!build_sweep_grid(args, spec)) return 2;

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
                   dir.c_str(), manifest.param.c_str(), manifest.jobs.size());
      return 2;
    }
  } else {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      std::fprintf(stderr, "xmpsim: cannot create --out=%s: %s\n", dir.c_str(),
                   ec.message().c_str());
      return 2;
    }
    manifest.param = spec.param;
    manifest.argv = cli.raw();
    manifest.jobs.resize(spec.grid.size());
    for (std::size_t i = 0; i < spec.grid.size(); ++i) {
      manifest.jobs[i].index = i;
      manifest.jobs[i].value = spec.values[i];
    }
  }

  bool ok = true;
  core::OrchestratorConfig ocfg;
  ocfg.campaign_dir = dir;
  ocfg.workers = static_cast<unsigned>(flag_i(args, "jobs", 0, 1, 4096, ok));
  ocfg.job_timeout_s = flag_d(args, "job-timeout", 0.0, 0, 86400, ok);
  ocfg.retries = static_cast<int>(flag_i(args, "retries", 2, 0, 100, ok));
  ocfg.backoff_base_s = flag_d(args, "backoff", 0.5, 0, 3600, ok);
  ocfg.strict = args.has("strict");
  if (!ok) return 2;

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
    std::printf("%-12g", spec.values[i]);
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

  if (!outcome.complete()) {
    std::fprintf(stderr, "xmpsim: %zu of %zu jobs incomplete after retries%s\n",
                 outcome.incomplete.size(), spec.grid.size(),
                 ocfg.strict ? "" : " (salvaged the rest; --strict to fail)");
    if (ocfg.strict) return 1;
  }
  return 0;
}

int cmd_sweep(const Args& args) {
  const std::string resume_dir = args.get("resume", "");
  if (!resume_dir.empty()) return cmd_sweep_campaign(args, resume_dir, true);
  const std::string out_dir = args.get("out", "");
  if (!out_dir.empty()) return cmd_sweep_campaign(args, out_dir, false);

  // Fast path: trusted in-process sweep on a thread pool.
  SweepSpec spec;
  if (!build_sweep_grid(args, spec)) return 2;
  if (!spec.grid.empty() && spec.grid[0].checkpoint.every > sim::Time::zero()) {
    std::fprintf(stderr,
                 "xmpsim: --checkpoint-every in a sweep needs --out=DIR (per-job checkpoint "
                 "directories live in the campaign dir)\n");
    return 2;
  }

  bool ok = true;
  const std::int64_t jobs = flag_i(args, "jobs", 0, 1, 4096, ok);  // absent = hardware cores
  if (!ok) return 2;
  const core::ParallelRunner runner{jobs > 0 ? static_cast<unsigned>(jobs) : 0U};
  std::fprintf(stderr, "sweeping %zu points on %u workers\n", spec.grid.size(), runner.workers());
  const auto results =
      runner.run(spec.grid, [](std::size_t, std::size_t done, std::size_t total) {
        std::fprintf(stderr, "  [%zu/%zu] done\n", done, total);
      });

  bool any_fct = false;
  for (const auto& r : results) {
    if (r.fct.enabled()) any_fct = true;
  }
  std::printf("%-12s", spec.param.c_str());
  if (spec.schemes_swept) std::printf(" %-8s", "scheme");
  std::printf(" %16s %16s", "goodput (Mbps)", "events");
  if (any_fct) std::printf(" %10s %10s", "fct p50", "fct p99");
  std::printf("\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::printf("%-12g", spec.values[i]);
    if (spec.schemes_swept) std::printf(" %-8s", spec.labels[i].c_str());
    std::printf(" %16.1f %16llu", results[i].avg_goodput_mbps(),
                static_cast<unsigned long long>(results[i].events_dispatched));
    if (any_fct) {
      if (results[i].fct.slowdown_all.count() > 0) {
        std::printf(" %10.2f %10.2f", results[i].fct.slowdown_all.percentile(50),
                    results[i].fct.slowdown_all.percentile(99));
      } else {
        std::printf(" %10s %10s", "-", "-");
      }
    }
    std::printf("\n");
  }
  return 0;
}

int cmd_topo(const Args& args) {
  bool ok = true;
  const int k = static_cast<int>(flag_i(args, "k", 8, 2, 64, ok));
  if (ok && k % 2 != 0) {
    std::fprintf(stderr, "xmpsim: bad --k=%d (expected an even integer in [2, 64])\n", k);
    ok = false;
  }
  if (!ok) return 2;
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

void usage() {
  std::fprintf(stderr,
               "usage: xmpsim <run|replay|verify|fluid|sweep|topo> [--key=value ...]\n"
               "see the header of apps/xmpsim.cpp for the full flag list\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  Args args{argc, argv};
  if (cmd == "run") return cmd_run(args);
  if (cmd == "replay") return cmd_replay(args);
  if (cmd == "verify") return cmd_verify(args);
  if (cmd == "fluid") return cmd_fluid(args);
  if (cmd == "sweep") return cmd_sweep(args);
  if (cmd == "topo") return cmd_topo(args);
  usage();
  return 2;
}
