// The sharded conservative-sync engine (run_experiment_sharded).
//
// The load-bearing property is *worker-count invariance*: logical shards
// are fixed by the topology, so --shards=1, 2 and 4 must produce identical
// results, bit for bit — the golden fingerprint below pins the trajectory
// the same way determinism_test.cpp pins the serial engine's.
//
// The sharded trajectory is NOT byte-identical to the serial engine's:
// conservative synchronisation preserves every packet timestamp but not
// the serial engine's insertion-order tie-break among equal-timestamp
// events (cross-shard deliveries are enqueued at the barrier, giving them
// a different heap sequence number than an in-epoch schedule would). The
// two engines therefore follow statistically equivalent but distinct
// sample paths; MatchesSerialAggregates bounds the distance.

#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/mini_json.hpp"
#include "core/parallel_runner.hpp"
#include "net/handoff.hpp"
#include "net/link.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"

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
  EXPECT_EQ(a.shard.micro_steps, b.shard.micro_steps);
  EXPECT_EQ(a.shard.replays, b.shard.replays);
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

/// Runs `make(1..4)`, expects identical results, and returns the first.
ExperimentResults same_across_workers(ExperimentConfig (*make)(int)) {
  auto r1 = run_experiment(make(1));
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
// helpers that own no shard; the pool is clamped to the shard count.
TEST(ShardedEngine, PoolWidthClampedToLogicalShards) {
  EXPECT_EQ(sharded_pool_width(sharded_cfg(1)), 1);
  EXPECT_EQ(sharded_pool_width(sharded_cfg(3)), 3);
  EXPECT_EQ(sharded_pool_width(sharded_cfg(4)), 4);
  EXPECT_EQ(sharded_pool_width(sharded_cfg(512)), 4);
  const auto r1 = run_experiment(sharded_cfg(1));
  const auto r512 = run_experiment(sharded_cfg(512));
  expect_identical(r1, r512);
}

// A round flip runs as a serial segment of global micro-steps. Each step
// first aligns every shard clock on its time, so the flows the flip starts
// on other shards schedule from the flip instant; this two-round run pins
// that trajectory, and runs in every build type (a Debug build asserts on
// any event scheduled behind a clock).
TEST(ShardedEngine, GoldenRoundFlipFingerprint) {
  auto cfg = sharded_cfg(2);
  cfg.permutation_rounds = 2;
  const auto r = run_experiment(cfg);
  EXPECT_EQ(r.events_dispatched, 102338u);
  EXPECT_EQ(r.goodput.count(), 32u);
  EXPECT_DOUBLE_EQ(r.goodput.mean(), 476.00423761153473);
  EXPECT_DOUBLE_EQ(r.sim_duration.sec(), 0.01808032);
  EXPECT_EQ(r.shard.epochs, 448u);
  EXPECT_EQ(r.shard.barriers, 450u);
  EXPECT_EQ(r.shard.handoff_packets, 13209u);
  EXPECT_EQ(r.shard.micro_steps, 9u);
}

// Two round completions inside one parallel epoch: the flip is deferred,
// the attempt discarded and replayed with that epoch pinned serial. The
// replay must land on the same results whatever the worker count.
TEST(ShardedEngine, ReplayedRoundFlipIsWorkerCountInvariant) {
  auto mk = [](int shards) {
    auto cfg = sharded_cfg(shards);
    cfg.permutation_rounds = 3;
    cfg.duration = sim::Time::seconds(0.2);
    cfg.seed = 7;
    return cfg;
  };
  const auto r1 = run_experiment(mk(1));
  EXPECT_GE(r1.shard.replays, 1u);
  expect_identical(r1, run_experiment(mk(2)));
  expect_identical(r1, run_experiment(mk(4)));
}

TEST(ShardedEngine, GoldenShardedFingerprint) {
  const auto r = run_experiment(sharded_cfg(2));
  EXPECT_TRUE(r.sharded);
  EXPECT_EQ(r.shard.logical_shards, 4);
  EXPECT_DOUBLE_EQ(r.shard.lookahead_us, 40.0);
  EXPECT_EQ(r.events_dispatched, 51665u);
  EXPECT_EQ(r.flows.size(), 16u);
  EXPECT_EQ(r.goodput.count(), 16u);
  EXPECT_DOUBLE_EQ(r.goodput.mean(), 483.20222212422357);
  EXPECT_DOUBLE_EQ(r.goodput.percentile(50), 491.68590638081946);
  EXPECT_DOUBLE_EQ(r.sim_duration.sec(), 0.0083177600000000004);
  EXPECT_EQ(r.shard.epochs, 205u);
  EXPECT_EQ(r.shard.barriers, 206u);
  EXPECT_EQ(r.shard.handoff_packets, 6562u);
  EXPECT_EQ(r.shard.micro_steps, 4u);
  EXPECT_EQ(r.shard.replays, 0u);
  EXPECT_EQ(r.rtt_by_category[1].count(), 2u);
  EXPECT_DOUBLE_EQ(r.rtt_by_category[1].mean(), 0.37936899999999996);
  EXPECT_EQ(r.rtt_by_category[2].count(), 22u);
  EXPECT_DOUBLE_EQ(r.rtt_by_category[2].mean(), 0.62665386363636355);
  EXPECT_DOUBLE_EQ(r.utilization_by_layer[0].mean(), 0.3728936636786826);
  EXPECT_DOUBLE_EQ(r.queue_occupancy_by_layer[0].mean(), 0.84078766398645788);
  EXPECT_DOUBLE_EQ(r.queue_occupancy_by_layer[1].mean(), 0.95095674797060759);
}

// The serial engine's golden constants (determinism_test.cpp) pin its
// trajectory; the sharded engine must land on the same physics even though
// its equal-timestamp tie-breaks differ. Flow population and byte totals
// are exact; rate statistics agree to a few percent.
TEST(ShardedEngine, MatchesSerialAggregates) {
  auto serial_cfg = sharded_cfg(0);
  serial_cfg.shards = 0;
  const auto s = run_experiment(serial_cfg);
  const auto p = run_experiment(sharded_cfg(2));
  ASSERT_EQ(s.flows.size(), p.flows.size());
  ASSERT_EQ(s.goodput.count(), p.goodput.count());
  for (std::size_t i = 0; i < s.flows.size(); ++i) {
    EXPECT_EQ(s.flows[i].bytes, p.flows[i].bytes);
    EXPECT_EQ(s.flows[i].src_host, p.flows[i].src_host);
    EXPECT_EQ(s.flows[i].dst_host, p.flows[i].dst_host);
    EXPECT_EQ(s.flows[i].completed, p.flows[i].completed);
  }
  EXPECT_NEAR(p.goodput.mean() / s.goodput.mean(), 1.0, 0.05);
  EXPECT_NEAR(p.sim_duration.sec() / s.sim_duration.sec(), 1.0, 0.05);
  EXPECT_EQ(s.drops.queue, 0u);
  EXPECT_EQ(p.drops.queue, 0u);
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
          links_.push_back(std::make_unique<net::Link>(fabric.sched(src), id, 1'000'000'000,
                                                       kDelay, net::make_queue(q), *sinks_.back()));
          link_src_.push_back(src);
          fabric.note_cross_link(src, dst, kDelay, id);
          links_.back()->set_remote_handoff(&fabric.channel(src, dst), &fabric.sched(dst));
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

// Destinations drain independently: any order of drain_into calls (here
// reversed, and concurrently on a worker pool) reserves the same
// per-destination (t, seq) keys as drain_all, so deliveries come out in
// the same order.
TEST(ShardFabric, DrainIntoMatchesDrainAllInAnyDestinationOrder) {
  HandoffWorld ref;
  EXPECT_EQ(ref.fabric.drain_all(), 36u);  // 6 pairs x 2 links x 3 packets
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
  EXPECT_EQ(ref.fabric.drain_all(), 36u);
  for (int s = 0; s < HandoffWorld::kShards; ++s) second_epoch(ref, s);
  EXPECT_EQ(ref.fabric.drain_all(), 36u);
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
  EXPECT_EQ(overlapped.fabric.drain_all(), 36u);
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
