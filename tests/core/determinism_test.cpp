// Bit-reproducibility of run_experiment.
//
// The scheduler guarantees FIFO among equal timestamps and the RNG is a
// seeded instance, so the same config must produce the same trajectory —
// event for event — on every run. The golden constants below were recorded
// from the seed implementation (plain priority_queue scheduler, deque
// queues); the rewritten event engine must reproduce them exactly, which
// pins the dispatch order across the whole stack, not just mean goodput.

#include "core/experiment.hpp"

#include <gtest/gtest.h>

namespace xmp::core {
namespace {

ExperimentConfig golden_cfg(Pattern p, bool coexist) {
  ExperimentConfig cfg;
  cfg.fat_tree_k = 4;
  cfg.pattern = p;
  cfg.scheme.kind = workload::SchemeSpec::Kind::Xmp;
  cfg.scheme.subflows = 2;
  if (coexist) {
    workload::SchemeSpec b;
    b.kind = workload::SchemeSpec::Kind::Dctcp;
    cfg.scheme_b = b;
  }
  cfg.permutation_rounds = 1;
  cfg.perm_min_bytes = 250'000;
  cfg.perm_max_bytes = 500'000;
  cfg.rand_min_bytes = 250'000;
  cfg.rand_max_bytes = 750'000;
  cfg.duration = sim::Time::seconds(0.08);
  cfg.seed = 42;
  return cfg;
}

TEST(Determinism, SameSeedSameTrajectory) {
  const auto cfg = golden_cfg(Pattern::Permutation, false);
  const auto a = run_experiment(cfg);
  const auto b = run_experiment(cfg);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.flows.size(), b.flows.size());
  EXPECT_EQ(a.goodput.count(), b.goodput.count());
  EXPECT_EQ(a.goodput.mean(), b.goodput.mean());
  EXPECT_EQ(a.goodput.percentile(50), b.goodput.percentile(50));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(a.rtt_by_category[i].count(), b.rtt_by_category[i].count());
    EXPECT_EQ(a.rtt_by_category[i].mean(), b.rtt_by_category[i].mean());
    EXPECT_EQ(a.utilization_by_layer[i].mean(), b.utilization_by_layer[i].mean());
    EXPECT_EQ(a.queue_occupancy_by_layer[i].mean(), b.queue_occupancy_by_layer[i].mean());
  }
}

// The Permutation golden is ShardedEngine.GoldenShardedFingerprint: its
// config is golden_cfg(Permutation, false) at any worker count.

TEST(Determinism, GoldenRandomCoexistFingerprint) {
  const auto r = run_experiment(golden_cfg(Pattern::Random, true));
  EXPECT_EQ(r.events_dispatched, 315198u);
  EXPECT_EQ(r.flows.size(), 147u);
  EXPECT_EQ(r.goodput.count(), 75u);
  EXPECT_DOUBLE_EQ(r.goodput.mean(), 435.13721804004757);
  EXPECT_DOUBLE_EQ(r.goodput.percentile(50), 430.68833652007646);
  EXPECT_EQ(r.goodput_b.count(), 56u);
  EXPECT_DOUBLE_EQ(r.goodput_b.mean(), 337.82016270928472);
  EXPECT_EQ(r.rtt_by_category[0].count(), 9u);
  EXPECT_EQ(r.rtt_by_category[1].count(), 28u);
  EXPECT_EQ(r.rtt_by_category[2].count(), 324u);
  EXPECT_DOUBLE_EQ(r.rtt_by_category[2].mean(), 0.6841366358024682);
  EXPECT_DOUBLE_EQ(r.utilization_by_layer[1].mean(), 0.33914906249999993);
  EXPECT_DOUBLE_EQ(r.queue_occupancy_by_layer[2].mean(), 0.45755184374999996);
  EXPECT_DOUBLE_EQ(r.sim_duration.sec(), 0.080000000000000002);
}

}  // namespace
}  // namespace xmp::core
