#pragma once

// The world of one experiment run (DESIGN.md §11, §12): observers, fabric
// (a Fat-Tree or a pinned testbed), routing, workload and probes, plus what
// the epoch loop does around its run — fresh start, checkpoint
// save/restore, result collection and export. A component the run does not use (the generators of other
// patterns, the hybrid engine, the invariant checker) is null. Internal to
// xmp_core.

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/experiment.hpp"
#include "faults/fault_controller.hpp"
#include "faults/invariant_checker.hpp"
#include "model/hybrid/engine.hpp"
#include "net/handoff.hpp"
#include "net/network.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "route/route_manager.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "stats/probes.hpp"
#include "topo/fattree.hpp"
#include "topo/pinned.hpp"
#include "workload/empirical.hpp"
#include "workload/flow_manager.hpp"
#include "workload/incast.hpp"
#include "workload/permutation.hpp"
#include "workload/random_traffic.hpp"

namespace xmp::core {

class World {
 public:
  /// Build the world: control services on `control`, the topology
  /// partitioned into the fabric's shards, every flow endpoint on its
  /// host's shard scheduler.
  World(const ExperimentConfig& cfg, sim::Scheduler& control, net::ShardFabric& fabric);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Fresh start, in the legacy scheduling order: faults, invariant
  /// checker, workload, hybrid foreground and fluid tick, probes, the
  /// testbed series.
  void start();

  /// The checkpoint payload (DESIGN.md §12).
  /// A loading pass fails on clocks that differ from `at` (the header time;
  /// a saving pass passes the clock's own) or from each other, or lie
  /// outside [0, horizon]. True when the pass succeeded (and, loading,
  /// consumed the whole payload).
  [[nodiscard]] bool checkpoint(ckpt::Io& io, sim::Time at);

  /// Publish the next ckpt_<seq>.bin now (a quiescent point). A failed
  /// write is reported on stderr and the run continues.
  void write_checkpoint();
  /// Restore from cfg.checkpoint.restore_path instead of start(). A file
  /// that fails verification ends the process with a one-line "restore
  /// failed" diagnostic and exit 2, and so does a malformed payload
  /// ("restore failed: ...: malformed payload").
  void restore();

  /// The checkpoint cadence: the next absolute multiple of
  /// cfg.checkpoint.every after `now` that lies strictly before the
  /// horizon, or infinity when there is none (or no cadence is set).
  [[nodiscard]] sim::Time next_checkpoint(sim::Time now) const;

  /// Fill `res`; the run ended at `end_time` after `events` dispatches.
  void collect(sim::Time end_time, std::uint64_t events);
  /// The trace, metrics and FCT exports (after collect(): they must not
  /// observe the run). Each one that fails lands in res.unwritten.
  void export_obs();

  const ExperimentConfig& cfg;
  sim::Scheduler& sched;    ///< the control strand
  net::ShardFabric& fabric;

  // --- observers, declared before the network so its construction is
  // observed: the control tracer plus one per shard, merged at export, and
  // one registry shared by every thread ---
  std::unique_ptr<obs::TimelineTracer> tracer;
  std::vector<std::unique_ptr<obs::TimelineTracer>> shard_tracers;
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::unique_ptr<obs::SimMetrics> sim_metrics;
  obs::ObservationScope scope;

  // --- world state, in construction order ---
  net::Network netw;
  std::unique_ptr<topo::FatTree> tree;         ///< null on a pinned testbed
  std::unique_ptr<topo::PinnedPaths> testbed;  ///< a `topology pinned` file's
  topo::HostPool& hosts;                       ///< whichever of the two is built
  route::RouteManager routes;
  sim::Rng rng;
  workload::FlowManager flows_a;
  std::unique_ptr<workload::FlowManager> flows_b;
  std::unique_ptr<faults::FaultController> fault_ctl;
  std::unique_ptr<faults::InvariantChecker> inv;
  std::unique_ptr<workload::PermutationTraffic> perm;
  std::unique_ptr<workload::RandomTraffic> rand_a;
  std::unique_ptr<workload::RandomTraffic> rand_b;
  std::unique_ptr<workload::IncastTraffic> incast;
  std::unique_ptr<workload::RandomTraffic> incast_bg;
  std::unique_ptr<workload::EmpiricalTraffic> emp;
  std::unique_ptr<model::hybrid::Engine> hybrid;
  std::function<void(int)> start_hybrid_fg;
  ExperimentResults res;
  stats::GaugeProbe rtt_tick;
  stats::UtilizationWindow util;
  /// Every Fat-Tree link, grouped by layer; a testbed's bottlenecks.
  std::vector<net::Link*> all_links;
  std::array<std::pair<std::size_t, std::size_t>, 3> layer_ranges;
  /// The epoch accounting (res.shard's counters and the next epoch's trace
  /// id) is checkpointed as SHST, so a resumed run's summary matches an
  /// uninterrupted one.
  std::uint32_t next_epoch = 0;

 private:
  void build_workload();
  void build_hybrid();
  /// A testbed's flow shapes, stops (added to `plan`) and series columns.
  void build_testbed(faults::FaultPlan& plan);
  /// Record one row of res.series and arm the next sample.
  void sample_series();
  double sample_rtts();
  /// A saved flow-completion callback, resolved against this world; a
  /// kRandom tag binds to `random`, the generator of the tag's manager.
  [[nodiscard]] std::function<void()> bind(const workload::CallbackTag& tag,
                                           workload::RandomTraffic* random);
  void publish_ckpt_totals();

  std::vector<std::size_t> series_col_;  ///< first series column of each flow line
  sim::EventId sample_timer_ = sim::kInvalidEventId;
  std::uint64_t fingerprint_ = 0;
  std::uint64_t ckpt_seq_ = 0;      ///< last sequence number used
  std::uint64_t ckpt_written_ = 0;  ///< lineage-cumulative snapshot count
  std::uint64_t ckpt_bytes_ = 0;    ///< lineage-cumulative snapshot bytes
};

}  // namespace xmp::core
