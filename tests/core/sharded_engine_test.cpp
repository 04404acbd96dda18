// The conservative-sync epoch loop (run_experiment), the one engine.
//
// The load-bearing property is *worker-count invariance*: logical shards
// are fixed by the config (one per pod for a Permutation, one for every
// other traffic source), so --shards=0, 1, 2 and 4 must produce identical
// results, bit for bit — the golden fingerprints below pin the trajectory.

#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/mini_json.hpp"
#include "core/worker_pool.hpp"
#include "faults/fault_plan.hpp"
#include "net/handoff.hpp"
#include "net/link.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"
#include "workload/traffic_matrix.hpp"

namespace xmp::core {
namespace {

ExperimentConfig sharded_cfg(int shards) {
  ExperimentConfig cfg;
  cfg.fat_tree_k = 4;
  cfg.pattern = Pattern::Permutation;
  cfg.scheme.kind = workload::SchemeSpec::Kind::Xmp;
  cfg.scheme.subflows = 2;
  cfg.permutation_rounds = 1;
  cfg.perm_min_bytes = 250'000;
  cfg.perm_max_bytes = 500'000;
  cfg.duration = sim::Time::seconds(0.08);
  cfg.seed = 42;
  cfg.shards = shards;
  return cfg;
}

void expect_identical(const ExperimentResults& a, const ExperimentResults& b) {
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.flows.size(), b.flows.size());
  EXPECT_EQ(a.goodput.count(), b.goodput.count());
  EXPECT_EQ(a.goodput.mean(), b.goodput.mean());
  EXPECT_EQ(a.goodput.percentile(50), b.goodput.percentile(50));
  EXPECT_EQ(a.sim_duration.ns(), b.sim_duration.ns());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(a.rtt_by_category[i].count(), b.rtt_by_category[i].count());
    EXPECT_EQ(a.rtt_by_category[i].mean(), b.rtt_by_category[i].mean());
    EXPECT_EQ(a.utilization_by_layer[i].mean(), b.utilization_by_layer[i].mean());
    EXPECT_EQ(a.queue_occupancy_by_layer[i].mean(), b.queue_occupancy_by_layer[i].mean());
  }
  EXPECT_EQ(a.drops.offered, b.drops.offered);
  EXPECT_EQ(a.drops.delivered, b.drops.delivered);
  EXPECT_EQ(a.switch_forwarded, b.switch_forwarded);
  EXPECT_EQ(a.flowlet_repaths, b.flowlet_repaths);
  EXPECT_EQ(a.route_reroutes, b.route_reroutes);
  EXPECT_EQ(a.invariant_checks, b.invariant_checks);
  EXPECT_EQ(a.invariant_violations, b.invariant_violations);
  // The shard accounting itself is worker-count independent.
  EXPECT_EQ(a.shard.logical_shards, b.shard.logical_shards);
  EXPECT_EQ(a.shard.epochs, b.shard.epochs);
  EXPECT_EQ(a.shard.barriers, b.shard.barriers);
  EXPECT_EQ(a.shard.handoff_packets, b.shard.handoff_packets);
}

// Flowlet routing reads the dispatching shard's clock per packet, and the
// invariant checker sweeps the quiesced fabric from the control strand;
// under a down/up plus loss plan both must stay worker-count invariant.
ExperimentConfig flowlet_checked_cfg(int shards) {
  auto cfg = sharded_cfg(shards);
  cfg.routing.kind = route::PolicyKind::Flowlet;
  cfg.check_invariants = true;
  std::string err;
  EXPECT_TRUE(faults::FaultPlan::parse(
      "down,link=40,at=0.01,until=0.03;loss,link=3,at=0,p=0.01", cfg.fault_plan, &err))
      << err;
  cfg.scheme.dead_after_rtos = 3;
  return cfg;
}

/// Runs `make(0..4)`, expects identical results, and returns the first.
ExperimentResults same_across_workers(ExperimentConfig (*make)(int)) {
  auto r1 = run_experiment(make(1));
  expect_identical(r1, run_experiment(make(0)));  // one inline worker
  expect_identical(r1, run_experiment(make(2)));
  expect_identical(r1, run_experiment(make(3)));  // uneven 2/1/1 split of 4 shards
  expect_identical(r1, run_experiment(make(4)));
  return r1;
}

TEST(ShardedEngine, WorkerCountInvariance) {
  same_across_workers(&sharded_cfg);
  const auto checked = same_across_workers(&flowlet_checked_cfg);
  EXPECT_GT(checked.flowlet_repaths, 0u);
  EXPECT_GT(checked.invariant_checks, 0u);
  EXPECT_TRUE(checked.invariant_violations.empty());
}

// --shards beyond the logical shard count (4 pods at k=4) would only add
// helpers that own no shard; the pool is clamped to the shard count, and
// --shards=0 means one inline worker, never one per hardware thread.
TEST(ShardedEngine, PoolWidthClampedToLogicalShards) {
  EXPECT_EQ(worker_count(sharded_cfg(0)), 1);
  EXPECT_EQ(worker_count(sharded_cfg(1)), 1);
  EXPECT_EQ(worker_count(sharded_cfg(3)), 3);
  EXPECT_EQ(worker_count(sharded_cfg(4)), 4);
  EXPECT_EQ(worker_count(sharded_cfg(512)), 4);
  auto random = sharded_cfg(3);
  random.pattern = Pattern::Random;
  EXPECT_EQ(logical_shards(random), 1);
  EXPECT_EQ(worker_count(random), 1);
  auto hybrid = sharded_cfg(3);
  hybrid.hybrid.enabled = true;
  EXPECT_EQ(logical_shards(hybrid), 1);
  const auto r1 = run_experiment(sharded_cfg(1));
  const auto r512 = run_experiment(sharded_cfg(512));
  expect_identical(r1, r512);
}

// A round end is a control event at a barrier, where every shard clock
// stands at its time, so the flows the next round starts on every shard
// schedule from it; this two-round run pins that trajectory, and runs in
// every build type (a Debug build asserts on any event scheduled behind a
// clock).
TEST(ShardedEngine, GoldenRoundFlipFingerprint) {
  auto cfg = sharded_cfg(2);
  cfg.permutation_rounds = 2;
  const auto r = run_experiment(cfg);
  EXPECT_EQ(r.events_dispatched, 102340u);
  EXPECT_EQ(r.goodput.count(), 32u);
  EXPECT_DOUBLE_EQ(r.goodput.mean(), 476.00423761153473);
  EXPECT_DOUBLE_EQ(r.sim_duration.sec(), 0.018160320000000001);
  EXPECT_EQ(r.shard.epochs, 456u);
  EXPECT_EQ(r.shard.barriers, 456u);
  EXPECT_EQ(r.shard.handoff_packets, 13209u);
}

// Round ends on the control strand. The round end must be timed from the
// round's latest completion, on the clock of the shard that ran it,
// whatever the worker count: each later round's first flow starts exactly
// one core-link delay (40 us) after the previous round's latest finish. At
// seed 7 the last round's final two flows finish 1.6 us apart, inside one
// epoch. At seed 91 the first round's final two finish 5 us apart on shards
// 3 and 1; one worker runs shard 1 first, so the completion that takes the
// round to zero is the earlier one.
template <std::uint64_t Seed>
ExperimentConfig three_round_cfg(int shards) {
  auto cfg = sharded_cfg(shards);
  cfg.permutation_rounds = 3;
  cfg.duration = sim::Time::seconds(0.2);
  cfg.seed = Seed;
  return cfg;
}

/// Every round's first start is the previous round's latest finish + 40 us.
void expect_rounds_follow_by_one_core_hop(const ExperimentResults& r, int rounds) {
  const std::size_t n_hosts = 16;  // k=4
  ASSERT_EQ(r.flows.size(), n_hosts * static_cast<std::size_t>(rounds));
  std::int64_t prev_latest = -1;
  for (int round = 0; round < rounds; ++round) {
    std::int64_t first_start = INT64_MAX;
    std::int64_t latest = 0;
    for (std::size_t i = n_hosts * round; i < n_hosts * (round + 1); ++i) {
      ASSERT_TRUE(r.flows[i].completed) << "round " << round << " flow " << i;
      first_start = std::min(first_start, r.flows[i].start.ns());
      latest = std::max(latest, r.flows[i].finish.ns());
    }
    if (prev_latest >= 0) {
      EXPECT_EQ(first_start - prev_latest, 40'000) << "round " << round;
    }
    prev_latest = latest;
  }
  EXPECT_EQ(r.sim_duration.ns() - prev_latest, 40'000) << "run end";
}

TEST(ShardedEngine, RoundEndsFollowTheLatestCompletion) {
  for (ExperimentConfig (*make)(int) : {&three_round_cfg<7>, &three_round_cfg<91>}) {
    SCOPED_TRACE(make(0).seed);
    expect_rounds_follow_by_one_core_hop(same_across_workers(make), 3);
  }
}

TEST(ShardedEngine, GoldenShardedFingerprint) {
  const auto r = run_experiment(sharded_cfg(2));
  EXPECT_EQ(r.shard.logical_shards, 4);
  EXPECT_DOUBLE_EQ(r.shard.lookahead_us, 40.0);
  EXPECT_EQ(r.events_dispatched, 51666u);
  EXPECT_EQ(r.flows.size(), 16u);
  EXPECT_EQ(r.goodput.count(), 16u);
  EXPECT_DOUBLE_EQ(r.goodput.mean(), 483.20222212422357);
  EXPECT_DOUBLE_EQ(r.goodput.percentile(50), 491.68590638081946);
  EXPECT_DOUBLE_EQ(r.sim_duration.sec(), 0.0083577600000000005);
  EXPECT_EQ(r.shard.epochs, 209u);
  EXPECT_EQ(r.shard.barriers, 209u);
  EXPECT_EQ(r.shard.handoff_packets, 6562u);
  EXPECT_EQ(r.rtt_by_category[1].count(), 2u);
  EXPECT_DOUBLE_EQ(r.rtt_by_category[1].mean(), 0.37936899999999996);
  EXPECT_EQ(r.rtt_by_category[2].count(), 22u);
  EXPECT_DOUBLE_EQ(r.rtt_by_category[2].mean(), 0.62665386363636355);
  EXPECT_DOUBLE_EQ(r.utilization_by_layer[0].mean(), 0.37110900528371243);
  EXPECT_DOUBLE_EQ(r.queue_occupancy_by_layer[0].mean(), 0.83676367830614906);
  EXPECT_DOUBLE_EQ(r.queue_occupancy_by_layer[1].mean(), 0.94640549620951064);
}

// --- traffic without a per-pod port: one logical shard ---------------------
// Random, incast, workload and hybrid runs keep the whole fabric on one
// shard, so --shards only sizes a pool the clamp holds at one worker: every
// worker count must give the same run, control events (faults, routes, the
// fluid tick) included.

ExperimentConfig random_coexist_cfg(int shards) {
  auto cfg = sharded_cfg(shards);
  cfg.pattern = Pattern::Random;
  cfg.scheme_b = workload::SchemeSpec{};
  cfg.scheme_b->kind = workload::SchemeSpec::Kind::Dctcp;
  cfg.rand_min_bytes = 250'000;
  cfg.rand_max_bytes = 750'000;
  cfg.duration = sim::Time::seconds(0.04);
  return cfg;
}

ExperimentConfig incast_cfg(int shards) {
  auto cfg = sharded_cfg(shards);
  cfg.pattern = Pattern::Incast;
  cfg.rand_min_bytes = 250'000;
  cfg.rand_max_bytes = 750'000;
  cfg.duration = sim::Time::seconds(0.04);
  return cfg;
}

/// Websearch-style: Poisson arrivals from a small size CDF at load 0.5,
/// plus one explicit flow.
ExperimentConfig websearch_cfg(int shards) {
  static const std::shared_ptr<const workload::WorkloadSpec> spec = [] {
    const std::string dir = ::testing::TempDir() + "xmp_one_shard_wl";
    std::filesystem::create_directories(dir);
    std::ofstream{dir + "/sizes.cdf"} << "1000 0\n10000 0.5\n100000 0.8\n2000000 1\n";
    std::ofstream{dir + "/web.wl"} << "nodes 16\ncdf sizes.cdf\nload 0.5\nspan any\n"
                                      "flow 0 8 50000 0.001\n";
    auto s = std::make_shared<workload::WorkloadSpec>();
    std::string err;
    EXPECT_TRUE(workload::WorkloadSpec::parse_file(dir + "/web.wl", *s, &err)) << err;
    return s;
  }();
  auto cfg = sharded_cfg(shards);
  cfg.pattern = Pattern::Workload;
  cfg.workload = spec;
  cfg.duration = sim::Time::seconds(0.04);
  return cfg;
}

ExperimentConfig hybrid_cfg(int shards) {
  auto cfg = sharded_cfg(shards);
  cfg.hybrid.enabled = true;
  cfg.hybrid.bg_flows = 200;
  cfg.hybrid.bg_bytes = 2'000'000;
  cfg.hybrid.promote_bytes = 256'000;
  cfg.hybrid.fg_flows = 2;
  cfg.hybrid.fg_bytes = 500'000;
  cfg.duration = sim::Time::seconds(0.02);
  return cfg;
}

/// Every gray kind at once on distinct links, with reroutes and failover.
ExperimentConfig random_gray_cfg(int shards) {
  auto cfg = sharded_cfg(shards);
  cfg.pattern = Pattern::Random;
  cfg.rand_min_bytes = 250'000;
  cfg.rand_max_bytes = 750'000;
  cfg.duration = sim::Time::seconds(0.04);
  cfg.scheme.dead_after_rtos = 3;
  std::string err;
  EXPECT_TRUE(faults::FaultPlan::parse(
      "degrade,link=2,at=0.01,factor=0.4,until=0.03;"
      "delay,link=5,at=0.005,dt=1e-4,jitter=5e-5,until=0.04;"
      "reorder,link=7,at=0.01,p=0.05,dt=2e-4;duplicate,link=9,at=0,p=0.02;"
      "overmark,link=11,at=0.02,p=0.3;down,link=14,at=0.015,until=0.035",
      cfg.fault_plan, &err))
      << err;
  return cfg;
}

TEST(ShardedEngine, OneShardSourcesAreWorkerCountInvariant) {
  for (ExperimentConfig (*make)(int) :
       {&random_coexist_cfg, &incast_cfg, &websearch_cfg, &hybrid_cfg, &random_gray_cfg}) {
    const auto r0 = run_experiment(make(0));
    SCOPED_TRACE(r0.flows.size());
    EXPECT_EQ(r0.shard.logical_shards, 1);
    EXPECT_EQ(r0.shard.handoff_packets, 0u);
    EXPECT_FALSE(r0.flows.empty());
    for (const int shards : {1, 3}) {
      const auto r = run_experiment(make(shards));
      expect_identical(r0, r);
      EXPECT_EQ(r0.goodput_b.mean(), r.goodput_b.mean());
      EXPECT_EQ(r0.jobs.size(), r.jobs.size());
      EXPECT_EQ(r0.avg_job_completion_ms(), r.avg_job_completion_ms());
      EXPECT_EQ(r0.fct.completed, r.fct.completed);
      EXPECT_EQ(r0.fct.slowdown_all.mean(), r.fct.slowdown_all.mean());
      EXPECT_EQ(r0.hybrid.ticks, r.hybrid.ticks);
      EXPECT_EQ(r0.hybrid.fluid_bytes, r.hybrid.fluid_bytes);
      EXPECT_EQ(r0.drops.duplicated, r.drops.duplicated);
      EXPECT_EQ(r0.drops.delayed, r.drops.delayed);
      EXPECT_EQ(r0.drops.overmarked, r.drops.overmarked);
    }
  }
  // Each source did what it is there for.
  EXPECT_GT(run_experiment(random_coexist_cfg(0)).goodput_b.count(), 0u);
  EXPECT_GT(run_experiment(incast_cfg(0)).jobs.size(), 0u);
  EXPECT_GT(run_experiment(websearch_cfg(0)).fct.completed, 0u);
  EXPECT_GT(run_experiment(hybrid_cfg(0)).hybrid.ticks, 0u);
  const auto gray = run_experiment(random_gray_cfg(0));
  EXPECT_GT(gray.drops.duplicated + gray.drops.delayed + gray.drops.overmarked, 0u);
  EXPECT_GT(gray.drops.admin_down + gray.drops.fault, 0u);
}

// Control events landing exactly on epoch boundaries: with the RTT probe
// interval equal to the 40 us lookahead, every epoch ends exactly at a
// control event and the follow-on epoch starts with one due at its very
// first instant (the b == start empty-epoch path). The horizon is chosen
// off the 40 us grid so the final epoch is truncated mid-window.
TEST(ShardedEngine, ControlEventExactlyAtEpochEnd) {
  auto mk = [](int shards) {
    auto cfg = sharded_cfg(shards);
    cfg.rtt_sample_interval = sim::Time::microseconds(40);
    cfg.duration = sim::Time::microseconds(2'375);  // not a lookahead multiple
    return cfg;
  };
  const auto r1 = run_experiment(mk(1));
  const auto r2 = run_experiment(mk(2));
  expect_identical(r1, r2);
  EXPECT_EQ(r1.sim_duration.ns(), 2'375'000);
}

// A transient core-link failure mid-run: the kill lands mid-epoch (the
// control strand forces an epoch boundary at the fault instant, so the
// link flips state with the fabric quiesced), RTO timers scheduled many
// epochs ahead fire or are cancelled/rescheduled across epoch horizons,
// and the in-flight mirror of the downed boundary link drops its payload
// exactly like the serial engine's in-flight accounting does.
TEST(ShardedEngine, BoundaryLinkKillMidEpoch) {
  // Find a core (cross-shard) link id from a scratch build of the same tree.
  net::LinkId core_link = 0;
  {
    sim::Scheduler sched;
    net::Network netw{sched};
    topo::FatTree::Config tc;
    tc.k = 4;
    topo::FatTree tree{netw, tc};
    core_link = tree.links(topo::FatTree::Layer::Core)[0]->id();
  }
  auto mk = [core_link](int shards) {
    auto cfg = sharded_cfg(shards);
    faults::FaultEvent down;
    down.kind = faults::FaultEvent::Kind::LinkDown;
    down.at = sim::Time::microseconds(2'030);  // mid-epoch: off the 40 us grid
    down.target = static_cast<int>(core_link);
    faults::FaultEvent up = down;
    up.kind = faults::FaultEvent::Kind::LinkUp;
    up.at = sim::Time::microseconds(4'810);
    cfg.fault_plan.events = {down, up};
    cfg.scheme.dead_after_rtos = 0;  // keep subflows alive through the outage
    return cfg;
  };
  const auto r1 = run_experiment(mk(1));
  const auto r2 = run_experiment(mk(2));
  const auto r4 = run_experiment(mk(4));
  expect_identical(r1, r2);
  expect_identical(r1, r4);
  // The outage must actually have bitten: packets died on the wire.
  EXPECT_GT(r1.drops.fault + r1.drops.admin_down, 0u);
}

// --- deferred drains ------------------------------------------------------
// A parallel epoch's barrier skips its drain phase when nothing before the
// next epoch needs a quiesced fabric; each shard's next task drains its own
// inbound packets first. harness.shard.deferred_drains counts those
// barriers, so a drain that never defers cannot pass as a working one.

struct Observed {
  ExperimentResults res;
  std::string metrics;         ///< the metrics.json bytes
  std::uint64_t deferred = 0;  ///< harness.shard.deferred_drains
};

Observed run_observed(ExperimentConfig cfg, const std::string& tag) {
  const std::string path = ::testing::TempDir() + "xmp_deferred_" + tag + ".json";
  cfg.obs.metrics_json = path;
  Observed o{run_experiment(cfg), {}, 0};
  std::ifstream in{path};
  o.metrics.assign(std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{});
  std::filesystem::remove(path);
  const auto root = json::MiniJsonParser::parse(o.metrics);
  o.deferred =
      static_cast<std::uint64_t>(root.at("counters").at("harness.shard.deferred_drains").number);
  return o;
}

std::string fresh_dir(const std::string& name) {
  const std::string d = ::testing::TempDir() + "xmp_" + name;
  std::filesystem::remove_all(d);
  std::filesystem::create_directories(d);
  return d;
}

// The paper's Table 1 fabric on three workers, as perfbench's perm_k8 runs
// it: control events (the probes) are rare, so almost every barrier
// defers its drain.
TEST(ShardedEngine, DefersMostDrainsOnAK8Permutation) {
  auto cfg = sharded_cfg(3);
  cfg.fat_tree_k = 8;
  cfg.duration = sim::Time::seconds(0.01);
  const auto o = run_observed(cfg, "k8");
  ASSERT_GT(o.res.shard.epochs, 100u);
  EXPECT_GT(static_cast<double>(o.deferred), 0.9 * static_cast<double>(o.res.shard.epochs));
  EXPECT_LE(o.deferred, o.res.shard.epochs);
}

// A snapshot needs every channel drained and every clock aligned, so the
// barrier it is taken at drains in place: a checkpointed run defers fewer
// drains than a plain one, at most one fewer per snapshot, with the same
// trajectory; and a run restored from a snapshot continues the count.
TEST(ShardedEngine, NoDrainDeferredAcrossACheckpoint) {
  const auto plain = run_observed(sharded_cfg(2), "plain");

  auto cfg = sharded_cfg(2);
  cfg.checkpoint.every = sim::Time::seconds(0.002);
  cfg.checkpoint.dir = fresh_dir("deferred_ckpt");
  const auto cut = run_observed(cfg, "ckpt");
  ASSERT_GE(cut.res.ckpt.written, 2u);
  expect_identical(plain.res, cut.res);
  EXPECT_LT(cut.deferred, plain.deferred);
  EXPECT_LE(plain.deferred - cut.deferred, cut.res.ckpt.written);

  auto again = cfg;
  again.checkpoint.dir = fresh_dir("deferred_resumed");
  again.checkpoint.restore_path = cfg.checkpoint.dir + "/" + ckpt::file_name(1);
  const auto resumed = run_observed(again, "resumed");
  EXPECT_TRUE(resumed.res.ckpt.restored);
  expect_identical(cut.res, resumed.res);
  EXPECT_EQ(resumed.metrics, cut.metrics);
}

// A stop request seen while a drain is deferred must run that drain
// before the final snapshot: a snapshot with packets still parked would
// lose them, and the run resumed from it would not match an uninterrupted
// one. Resuming mid-run with the stop already requested halts at the first
// barrier, which parks packets and defers their drain.
TEST(ShardedEngine, StopAfterADeferredDrainSnapshotsADrainedFabric) {
  auto cfg = sharded_cfg(2);
  cfg.checkpoint.every = sim::Time::seconds(0.002);
  cfg.checkpoint.dir = fresh_dir("deferred_stop_full");
  const auto full = run_observed(cfg, "stop_full");
  ASSERT_GE(full.res.ckpt.written, 1u);

  std::atomic<bool> stop{true};
  auto halt = cfg;
  halt.checkpoint.dir = fresh_dir("deferred_stop_halt");
  halt.checkpoint.restore_path = cfg.checkpoint.dir + "/" + ckpt::file_name(1);
  halt.checkpoint.stop_requested = &stop;
  halt.obs.trace_csv = halt.checkpoint.dir + "/trace.csv";
  const auto halted = run_observed(halt, "stop_halt");
  EXPECT_TRUE(halted.res.ckpt.interrupted);
  // The halting barrier's row: t_ns,shard_barrier,epoch,0,0,parked,0.
  std::ifstream trace{halt.obs.trace_csv};
  std::string line;
  std::string last_barrier;
  while (std::getline(trace, line)) {
    if (line.find(",shard_barrier,") != std::string::npos) last_barrier = line;
  }
  ASSERT_FALSE(last_barrier.empty());
  const std::string parked = last_barrier.substr(0, last_barrier.rfind(','));
  EXPECT_NE(parked.substr(parked.rfind(',') + 1), "0") << last_barrier;

  auto again = cfg;
  again.checkpoint.dir = fresh_dir("deferred_stop_resumed");
  again.checkpoint.restore_path = halted.res.ckpt.last_path;
  const auto resumed = run_observed(again, "stop_resumed");
  expect_identical(full.res, resumed.res);
  EXPECT_EQ(resumed.deferred, full.deferred);
}

// Invariant-checker ticks (control events) and snapshots make barriers
// that drain in place between ones that defer; the mix must not depend on
// the worker count, down to the metrics bytes.
TEST(ShardedEngine, MixedDrainsAreWorkerCountInvariant) {
  auto mk = [](int shards) {
    auto cfg = sharded_cfg(shards);
    cfg.check_invariants = true;
    cfg.checkpoint.every = sim::Time::seconds(0.002);
    cfg.checkpoint.dir = fresh_dir("deferred_mixed_" + std::to_string(shards));
    return cfg;
  };
  const auto one = run_observed(mk(1), "mixed1");
  EXPECT_GT(one.res.invariant_checks, 0u);
  EXPECT_GT(one.deferred, 0u);
  EXPECT_LT(one.deferred, one.res.shard.epochs);
  for (const int shards : {2, 3, 4}) {
    const auto other = run_observed(mk(shards), "mixed" + std::to_string(shards));
    expect_identical(one.res, other.res);
    EXPECT_EQ(other.metrics, one.metrics) << shards << " workers";
  }
}

// A hand-wired fabric: two boundary links per ordered shard pair, all with
// the same rate and delay, each carrying a three-packet burst sent at t=0.
// Deliveries on one destination therefore share timestamps, and only the
// sequence numbers reserved at the drain order them.
class HandoffWorld {
 public:
  static constexpr int kShards = 3;
  static constexpr sim::Time kDelay = sim::Time::microseconds(100);
  using Arrivals = std::vector<std::pair<std::int64_t, std::uint64_t>>;  // (t_ns, uid)

  HandoffWorld() {
    net::QueueConfig q;
    q.kind = net::QueueConfig::Kind::DropTail;
    q.capacity_packets = 16;
    net::LinkId id = 0;
    for (int src = 0; src < kShards; ++src) {
      for (int dst = 0; dst < kShards; ++dst) {
        if (src == dst) continue;
        for (int l = 0; l < 2; ++l, ++id) {
          sinks_.push_back(std::make_unique<Sink>(fabric.sched(dst), arrivals_[dst]));
          net::FifoPool* pool = &fabric.pool(src);
          links_.push_back(std::make_unique<net::Link>(fabric.sched(src), id, 1'000'000'000,
                                                       kDelay, net::make_queue(q, pool),
                                                       *sinks_.back(), pool));
          link_src_.push_back(src);
          fabric.note_cross_link(src, dst, kDelay, id);
          links_.back()->set_remote_handoff(&fabric.channel(src, dst), &fabric.sched(dst),
                                            fabric.pool(dst));
        }
      }
    }
    // One epoch: every burst is on the wire, nothing has arrived yet.
    for (int s = 0; s < kShards; ++s) send_burst(s, 0);
  }

  /// Shard `src`'s part of epoch `burst` ([burst, burst + 1) x kDelay): a
  /// three-packet burst on each of its outbound links, run until every
  /// packet is on the wire. Uids are (burst, link, packet) in order.
  void send_burst(int src, int burst) {
    for (std::size_t l = 0; l < links_.size(); ++l) {
      if (link_src_[l] != src) continue;
      for (std::uint64_t i = 0; i < 3; ++i) {
        net::Packet p;
        p.uid = 1000 * static_cast<std::uint64_t>(burst) + 3 * l + i + 1;
        p.size_bytes = net::kDataPacketBytes;
        links_[l]->send(std::move(p));
      }
    }
    fabric.sched(src).run_before(kDelay * (burst + 1));
  }

  /// Run every destination to completion; returns its arrivals.
  std::array<Arrivals, kShards> deliver() {
    for (int s = 0; s < kShards; ++s) fabric.sched(s).run();
    return arrivals_;
  }

  std::array<std::uint64_t, kShards> next_seqs() {
    std::array<std::uint64_t, kShards> out{};
    for (int s = 0; s < kShards; ++s) out[s] = fabric.sched(s).next_seq();
    return out;
  }

  net::ShardFabric fabric{kShards};

 private:
  class Sink final : public net::PacketSink {
   public:
    Sink(sim::Scheduler& sched, Arrivals& log) : sched_{sched}, log_{log} {}
    void receive(net::Packet p) override { log_.emplace_back(sched_.now().ns(), p.uid); }

   private:
    sim::Scheduler& sched_;
    Arrivals& log_;
  };
  std::array<Arrivals, kShards> arrivals_;
  std::vector<std::unique_ptr<Sink>> sinks_;
  std::vector<std::unique_ptr<net::Link>> links_;
  std::vector<int> link_src_;  ///< source shard of links_[l]
};

/// The reference drain: flip(), then drain_into() for every destination in
/// ascending order, with every shard quiesced.
std::uint64_t drain_all(net::ShardFabric& fabric) {
  fabric.flip();
  std::uint64_t handed_off = 0;
  for (int dst = 0; dst < fabric.n_shards(); ++dst) handed_off += fabric.drain_into(dst);
  return handed_off;
}

// Destinations drain independently: any order of drain_into calls (here
// reversed, and concurrently on a worker pool) reserves the same
// per-destination (t, seq) keys as the reference drain, so deliveries come
// out in the same order.
TEST(ShardFabric, DrainIntoMatchesDrainAllInAnyDestinationOrder) {
  HandoffWorld ref;
  EXPECT_EQ(drain_all(ref.fabric), 36u);  // 6 pairs x 2 links x 3 packets
  const auto ref_seqs = ref.next_seqs();
  const auto ref_arrivals = ref.deliver();

  HandoffWorld reversed;
  reversed.fabric.flip();  // publish the burst for drain_into
  std::uint64_t n = 0;
  for (int dst = HandoffWorld::kShards - 1; dst >= 0; --dst) n += reversed.fabric.drain_into(dst);
  EXPECT_EQ(n, 36u);
  EXPECT_EQ(reversed.next_seqs(), ref_seqs);
  EXPECT_EQ(reversed.deliver(), ref_arrivals);

  HandoffWorld parallel;
  parallel.fabric.flip();
  std::array<std::uint64_t, HandoffWorld::kShards> per_dst{};
  WorkerPool pool{HandoffWorld::kShards};
  pool.run(HandoffWorld::kShards, [&](int dst) {
    per_dst[static_cast<std::size_t>(dst)] = parallel.fabric.drain_into(dst);
  });
  EXPECT_EQ(per_dst, (std::array<std::uint64_t, HandoffWorld::kShards>{12, 12, 12}));
  EXPECT_EQ(parallel.next_seqs(), ref_seqs);
  EXPECT_EQ(parallel.deliver(), ref_arrivals);

  // The merge order itself: at each destination, equal-time arrivals come
  // out by ascending source, then link, then FIFO — which is uid order.
  for (const auto& a : ref_arrivals) {
    ASSERT_EQ(a.size(), 12u);
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
    EXPECT_EQ(a[0].first, a[1].first);  // ties do occur
  }
}

// Double buffering: while destinations drain the last epoch's packets
// (concurrently, on a pool), their sources already park the next epoch's
// in the other buffer — as a deferred drain does. Those must neither be
// drained early nor reorder anything: the result matches draining the two
// epochs one after the other with every shard quiesced.
TEST(ShardFabric, PushesDuringADrainWaitForTheNextFlip) {
  // Second epoch: each shard takes its inbound packets, aligns its clock,
  // sends a second burst and runs the epoch (first-burst deliveries land).
  auto second_epoch = [](HandoffWorld& w, int s) {
    w.fabric.sched(s).advance_clock_to(HandoffWorld::kDelay);
    w.send_burst(s, 1);
  };

  HandoffWorld ref;
  EXPECT_EQ(drain_all(ref.fabric), 36u);
  for (int s = 0; s < HandoffWorld::kShards; ++s) second_epoch(ref, s);
  EXPECT_EQ(drain_all(ref.fabric), 36u);
  const auto ref_seqs = ref.next_seqs();
  const auto ref_arrivals = ref.deliver();

  HandoffWorld overlapped;
  overlapped.fabric.flip();
  std::array<std::uint64_t, HandoffWorld::kShards> per_dst{};
  WorkerPool pool{HandoffWorld::kShards};
  pool.run(HandoffWorld::kShards, [&](int s) {
    per_dst[static_cast<std::size_t>(s)] = overlapped.fabric.drain_into(s);
    second_epoch(overlapped, s);
  });
  // Only the first burst drained: 2 sources x 2 links x 3 packets each.
  EXPECT_EQ(per_dst, (std::array<std::uint64_t, HandoffWorld::kShards>{12, 12, 12}));
  for (int s = 0; s < HandoffWorld::kShards; ++s) EXPECT_EQ(overlapped.fabric.parked_by(s), 12u);
  EXPECT_EQ(drain_all(overlapped.fabric), 36u);
  EXPECT_EQ(overlapped.next_seqs(), ref_seqs);
  EXPECT_EQ(overlapped.deliver(), ref_arrivals);
  for (const auto& a : ref_arrivals) {
    ASSERT_EQ(a.size(), 24u);
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  }
}

// Construction-time rejection: a zero-delay cross-shard link would make the
// conservative lookahead zero (no parallel window at all), so the fabric
// refuses to build, with exit code 2 and a one-line diagnostic.
TEST(ShardedEngineDeath, ZeroCrossShardDelayExits2) {
  EXPECT_EXIT(
      {
        net::ShardFabric fabric{4};
        fabric.note_cross_link(0, 1, sim::Time::zero(), 7);
      },
      ::testing::ExitedWithCode(2), "zero propagation delay");
}

}  // namespace
}  // namespace xmp::core
