#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include <string>

#include "faults/fault_plan.hpp"
#include "obs/timeline.hpp"
#include "route/policy.hpp"
#include "sim/time.hpp"
#include "stats/distribution.hpp"
#include "stats/probes.hpp"
#include "topo/fattree.hpp"
#include "workload/flow_manager.hpp"
#include "workload/incast.hpp"
#include "workload/scheme.hpp"
#include "workload/traffic_matrix.hpp"

namespace xmp::core {

/// Which traffic pattern to run: the paper's §5.2.1 synthetic patterns,
/// or an empirical workload file (open-loop Poisson arrivals from a
/// flow-size CDF plus optional explicit flows — DESIGN.md §13).
enum class Pattern { Permutation, Random, Incast, Workload };

/// Observability outputs for one run. All paths are optional; when every
/// path is empty no tracer/registry is even constructed, so the run is
/// byte-identical to a build without the obs layer.
struct ObsConfig {
  std::string trace_json;   ///< Chrome trace-event JSON (Perfetto)
  std::string trace_csv;    ///< flat CSV of the same events
  std::string metrics_json; ///< MetricsRegistry dump
  /// Per-flow FCT records (id, size, start, finish/censored, slowdown) as
  /// CSV, atomic-writer published. Workload runs only; per-job in sweeps.
  std::string fct_csv;
  std::uint32_t categories = obs::cat::kAll;  ///< --trace-filter mask
  /// Events per tracer ring. A run keeps one ring per logical shard plus
  /// one for the control strand, merged at export.
  std::size_t capacity = 1u << 18;

  [[nodiscard]] bool tracing() const { return !trace_json.empty() || !trace_csv.empty(); }
  [[nodiscard]] bool enabled() const { return tracing() || !metrics_json.empty(); }
};

[[nodiscard]] const char* pattern_name(Pattern p);

/// In-run checkpoint/restore settings (DESIGN.md §12). Deliberately excluded
/// from the config fingerprint: the same logical run may be checkpointed at
/// different cadences, or restored with extra observability.
struct CheckpointConfig {
  /// Snapshot cadence in sim time; zero disables periodic checkpoints.
  sim::Time every = sim::Time::zero();
  /// Directory receiving ckpt_<seq>.bin files (must exist; "." by default).
  std::string dir = ".";
  /// Resume from this checkpoint file instead of starting fresh.
  std::string restore_path;
  /// External stop flag (SIGTERM handler). When it flips, the run halts at
  /// the next epoch barrier (at most one epoch of simulated time later),
  /// writes a final checkpoint and returns with ckpt.interrupted set.
  const std::atomic<bool>* stop_requested = nullptr;

  [[nodiscard]] bool enabled() const {
    return every > sim::Time::zero() || !restore_path.empty() || stop_requested != nullptr;
  }
};

/// Hybrid fluid/packet engine settings (DESIGN.md §14). When enabled the run
/// replaces its traffic pattern with `bg_flows` fluid background aggregates
/// (per-RTT BOS/TraSh ODEs on the run's scheme) plus `fg_flows`
/// packet-accurate foreground flows, coupled through shared queue state.
/// Requires an XMP scheme (the fluid model implements the §2 dynamics) and
/// no fault plan / coexistence / explicit pattern.
struct HybridConfig {
  bool enabled = false;
  int bg_flows = 1000;            ///< fluid background aggregates
  std::int64_t bg_bytes = -1;     ///< per-flow bytes; -1 = unbounded steady state
  int fg_flows = 4;               ///< packet-accurate foreground flows
  std::int64_t fg_bytes = 8'000'000;  ///< per foreground flow (restarted on finish)
  /// Promote a finite fluid flow to the packet domain for its last
  /// `promote_bytes` bytes (0 = finish entirely as fluid).
  std::int64_t promote_bytes = 0;
  sim::Time tick = sim::Time::microseconds(200);  ///< fluid step, ≈ one RTT
};

/// Declarative configuration of one evaluation run: on a Fat-Tree (the
/// setting of the paper's Tables 1–3 and Figures 8–11), or on the pinned
/// testbed of a `topology pinned` workload file (Figures 1, 4, 6 and 7).
struct ExperimentConfig {
  workload::SchemeSpec scheme;
  /// When set, the sending hosts are split evenly between `scheme` and
  /// `scheme_b` (the Table 2 coexistence scenarios).
  std::optional<workload::SchemeSpec> scheme_b;

  Pattern pattern = Pattern::Permutation;

  int fat_tree_k = 8;
  std::size_t queue_capacity = 100;  ///< packets
  std::size_t mark_threshold = 10;   ///< K

  /// Large-flow sizes. Paper: 64–512 MB uniform (Permutation) and
  /// Pareto(1.5, mean 192 MB, cap 768 MB) (Random/Incast); defaults are
  /// scaled 32x down — see DESIGN.md §3.
  std::int64_t perm_min_bytes = 2'000'000;
  std::int64_t perm_max_bytes = 16'000'000;
  std::int64_t rand_min_bytes = 2'000'000;
  std::int64_t rand_max_bytes = 24'000'000;

  int permutation_rounds = 2;
  /// Wall-clock (simulated) horizon for Random/Incast, and a safety cap
  /// for Permutation.
  sim::Time duration = sim::Time::seconds(0.6);

  workload::IncastTraffic::Config incast;

  /// Parsed workload file (Pattern::Workload only). Shared, immutable:
  /// sweep grids copy the config per grid point without re-parsing, and
  /// forked campaign jobs inherit the mapping.
  std::shared_ptr<const workload::WorkloadSpec> workload;
  /// Offered load per sender for Pattern::Workload; 0 defers to the
  /// workload file's `load` directive.
  double offered_load = 0.0;

  std::uint64_t seed = 1;
  sim::Time rtt_sample_interval = sim::Time::milliseconds(5);

  /// Upward forwarding tables of every switch (src/route/). The default
  /// Pinned policy reproduces the legacy built-in hash bit for bit, and a
  /// fault-free run schedules no routing events, so the default config is
  /// byte-identical to builds without the routing layer. Under a fault
  /// plan, tables converge around failed links after `routing.reroute_delay`.
  route::RouteConfig routing;

  /// Fault injection (empty plan = fault-free, bit-identical to builds
  /// without the fault subsystem). The fault seed is independent of the
  /// workload seed so the same faults can be replayed across workloads.
  faults::FaultPlan fault_plan;
  std::uint64_t fault_seed = 1;
  /// Run the opt-in InvariantChecker probe alongside the experiment.
  bool check_invariants = false;

  /// Worker threads of the epoch loop (DESIGN.md §11), clamped to
  /// [1, logical_shards(cfg)]: 0 and 1 both run every shard inline on the
  /// calling thread. The logical shards are fixed by the config, never by
  /// this knob, so results are bit-identical across every `shards` value.
  int shards = 0;

  /// Hybrid fluid/packet engine (inactive by default).
  HybridConfig hybrid;

  /// Trace/metrics exports (inactive unless a path is set).
  ObsConfig obs;

  /// In-run checkpoint/restore (inactive by default).
  CheckpointConfig checkpoint;
};

/// Everything the paper reports from one run.
struct ExperimentResults {
  /// All transfer records (completed and not; small flows included).
  std::vector<workload::FlowRecord> flows;
  /// Locality category per entry of `flows`.
  std::vector<topo::FatTree::Category> flow_category;
  /// Which scheme issued each entry of `flows` (0 = scheme, 1 = scheme_b).
  std::vector<int> flow_scheme;

  std::vector<workload::JobRecord> jobs;

  /// Goodput of completed large flows, Mbps.
  stats::Distribution goodput;
  std::array<stats::Distribution, 3> goodput_by_category;  ///< index = Category
  stats::Distribution goodput_b;  ///< scheme_b flows (coexistence runs)

  /// Sampled smoothed RTTs of active large flows, milliseconds.
  std::array<stats::Distribution, 3> rtt_by_category;

  /// Per-link utilization in [0,1] over the run, per layer.
  std::array<stats::Distribution, 3> utilization_by_layer;  ///< index = Layer
  /// A testbed's utilization in [0,1] over the run, per bottleneck.
  std::vector<double> utilization_by_bottleneck;

  /// A testbed's `sample` series (DESIGN.md §13): one row per sample time
  /// from t = 0, of cumulative integer counters — delivered segments of
  /// each flow line's subflows (file order), then busy ns of each
  /// bottleneck. Printers derive rates from two rows. Empty without
  /// `sample`.
  struct Series {
    std::vector<std::string> columns;  ///< one per counter
    std::vector<std::int64_t> t_ns;
    std::vector<std::vector<std::int64_t>> rows;  ///< parallel to t_ns
  };
  Series series;

  /// Time-weighted mean queue occupancy (packets) per link, per layer —
  /// the buffer-occupancy claim behind the paper's Fig. 10.
  std::array<stats::Distribution, 3> queue_occupancy_by_layer;

  sim::Time sim_duration = sim::Time::zero();
  std::uint64_t events_dispatched = 0;

  /// Fleet-wide per-cause drop accounting (all links).
  stats::DropBreakdown drops;
  /// Per-link drop rows for CSV export; only links that saw traffic.
  struct LinkDropRow {
    net::LinkId link = 0;
    std::uint64_t offered = 0;
    std::uint64_t delivered = 0;
    net::LinkDropCounters drops;
    // Gray-failure impairments (survivor effects, not drops).
    std::uint64_t duplicated = 0;
    std::uint64_t delayed = 0;
    std::uint64_t overmarked = 0;
  };
  std::vector<LinkDropRow> link_drops;

  // --- routing-layer accounting (src/route/) ---
  /// Packets forwarded / with no usable output port, summed over switches.
  std::uint64_t switch_forwarded = 0;
  std::uint64_t switch_unroutable = 0;
  /// Converged table changes (link died or was repaired) applied by the
  /// RouteManager; 0 in fault-free runs.
  std::uint64_t route_reroutes = 0;
  /// Ecmp/Wcmp flows hashed onto a busy port while an idle one existed.
  std::uint64_t route_collisions = 0;
  /// Flowlet idle-gap expiries that actually moved a flow.
  std::uint64_t flowlet_repaths = 0;
  /// MPTCP subflows re-homed onto a fresh path instead of being killed.
  std::uint64_t path_rehomes = 0;
  /// Per-switch forwarding rows for CSV export; only switches that saw
  /// unroutable packets (the interesting ones — forwarded totals are in
  /// `switch_forwarded`).
  struct SwitchDropRow {
    net::NodeId node = 0;
    std::uint64_t forwarded = 0;
    std::uint64_t unroutable = 0;
  };
  std::vector<SwitchDropRow> switch_drops;

  /// FCT-slowdown accounting for Pattern::Workload runs (zeroed otherwise).
  /// Slowdown = actual FCT / ideal FCT, where the ideal is the unloaded
  /// fabric: the flow's one-way propagation delay by locality category plus
  /// its serialization time at line rate (DESIGN.md §13). Open-loop flows
  /// still in flight at the horizon are *censored* — counted, never folded
  /// into the percentiles — so high-load numbers cannot silently improve
  /// by dropping their slowest flows.
  struct FctStats {
    static constexpr int kBins = 5;  ///< 0-10K, 10-100K, 100K-1M, 1-10M, >10M
    [[nodiscard]] static const char* bin_name(int b);
    [[nodiscard]] static int bin_of(std::int64_t bytes);

    std::array<stats::Distribution, kBins> slowdown_by_bin;
    stats::Distribution slowdown_all;
    std::uint64_t completed = 0;
    std::uint64_t censored = 0;     ///< arrived but unfinished (or aborted)
    double offered_load = 0.0;      ///< effective per-sender load
    double arrival_rate = 0.0;      ///< aggregate Poisson arrivals/sec

    [[nodiscard]] bool enabled() const { return completed + censored > 0; }
  };
  FctStats fct;

  /// One row per flow for the --fct-csv export (workload runs only; empty
  /// otherwise). Censored flows carry finish_ns = 0 and slowdown = 0.
  struct FctRecord {
    net::FlowId id = 0;
    std::int64_t bytes = 0;
    std::int64_t start_ns = 0;
    std::int64_t finish_ns = 0;
    bool completed = false;  ///< false = censored at the horizon (or aborted)
    double slowdown = 0.0;   ///< actual / ideal FCT
  };
  std::vector<FctRecord> fct_records;

  /// Hybrid fluid/packet engine accounting (zeroed unless cfg.hybrid).
  struct HybridStats {
    bool enabled = false;
    int bg_flows = 0;               ///< configured fluid aggregates
    int fg_flows = 0;               ///< packet-accurate foreground flows
    int active_fluid = 0;           ///< still evolving as fluid at the horizon
    std::uint64_t ticks = 0;        ///< fluid steps executed
    std::uint64_t promotions = 0;   ///< fluid -> packet representation switches
    std::uint64_t fluid_completions = 0;  ///< finite flows drained fully as fluid
    double fluid_bytes = 0.0;       ///< bytes delivered by the fluid model
    double fluid_throughput_mbps = 0.0;   ///< aggregate fluid goodput
    double mean_mark_p = 0.0;       ///< arrival-weighted mean marking probability
  };
  HybridStats hybrid;

  /// Multipath transfers that lost every subflow (requires a SchemeSpec
  /// with dead_after_rtos > 0 and a hostile enough FaultPlan).
  std::uint64_t aborted_flows = 0;

  /// InvariantChecker findings (empty unless cfg.check_invariants).
  std::uint64_t invariant_checks = 0;
  std::vector<std::string> invariant_violations;

  /// "--flag=PATH" of each trace, metrics or FCT export that was not written.
  std::vector<std::string> unwritten;

  /// Epoch-loop accounting. Every field is a function of the logical shard
  /// structure only — independent of the worker count — so it belongs in
  /// deterministic summary output.
  struct ShardStats {
    int logical_shards = 0;       ///< logical_shards(cfg)
    double lookahead_us = 0.0;    ///< epoch length: min cross-shard link delay
    std::uint64_t epochs = 0;     ///< conservative windows executed
    std::uint64_t barriers = 0;   ///< synchronisation points
    std::uint64_t handoff_packets = 0;  ///< packets crossing shard boundaries
  };
  ShardStats shard;

  /// Checkpoint accounting (zeroed when checkpointing is off). `written` and
  /// `bytes` are lineage-cumulative: a restored run inherits the totals of
  /// the checkpoints that led to it, so the final numbers match an
  /// uninterrupted run of the same config.
  struct CkptStats {
    std::uint64_t written = 0;
    std::uint64_t bytes = 0;
    bool restored = false;        ///< this run resumed from a checkpoint
    std::uint64_t restored_seq = 0;
    sim::Time restored_t = sim::Time::zero();
    bool interrupted = false;     ///< external stop cut the run short
    std::string last_path;        ///< newest checkpoint written by this run
  };
  CkptStats ckpt;

  [[nodiscard]] double avg_goodput_mbps() const { return goodput.mean(); }
  [[nodiscard]] double avg_goodput_b_mbps() const { return goodput_b.mean(); }

  /// Average job completion time (ms) and the fraction exceeding 300 ms
  /// (paper Table 3).
  [[nodiscard]] double avg_job_completion_ms() const;
  [[nodiscard]] double job_completion_over_ms(double threshold_ms) const;
};

/// One self-contained evaluation run. Builds the topology, the
/// workload and the scheme from the config (src/core/world.hpp), runs the
/// conservative-sync epoch loop over logical_shards(cfg) shards on
/// worker_count(cfg) threads, and collects the paper's metrics.
[[nodiscard]] ExperimentResults run_experiment(const ExperimentConfig& cfg);

/// True when the run's workload file is a pinned testbed
/// (`topology pinned`) rather than Fat-Tree traffic.
[[nodiscard]] bool is_testbed(const ExperimentConfig& cfg);

/// Logical shards of a run: one per pod for a non-hybrid Permutation,
/// whose workload is ported to per-pod shards; one for every other traffic
/// source, which keeps the whole fabric on one scheduler.
[[nodiscard]] int logical_shards(const ExperimentConfig& cfg);

/// Worker threads run_experiment uses: cfg.shards clamped to
/// [1, logical_shards(cfg)], since a worker beyond the shard count owns no
/// shard.
[[nodiscard]] int worker_count(const ExperimentConfig& cfg);

}  // namespace xmp::core
