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

TEST(Determinism, GoldenPermutationFingerprint) {
  const auto r = run_experiment(golden_cfg(Pattern::Permutation, false));
  // Counts only events that do work: a link arms one delivery (its FIFO
  // head) and a transmit completion only when a packet waits (DESIGN.md §6).
  // The run ends at its round-end event, 40 us after the last completion.
  EXPECT_EQ(r.events_dispatched, 51870u);
  EXPECT_EQ(r.flows.size(), 16u);
  EXPECT_EQ(r.goodput.count(), 16u);
  EXPECT_DOUBLE_EQ(r.goodput.mean(), 470.51053371378657);
  EXPECT_DOUBLE_EQ(r.goodput.percentile(50), 450.96301798694753);
  EXPECT_EQ(r.rtt_by_category[1].count(), 4u);
  EXPECT_DOUBLE_EQ(r.rtt_by_category[1].mean(), 0.36338550000000003);
  EXPECT_EQ(r.rtt_by_category[2].count(), 22u);
  EXPECT_DOUBLE_EQ(r.rtt_by_category[2].mean(), 0.61462127272727285);
  EXPECT_DOUBLE_EQ(r.utilization_by_layer[0].mean(), 0.36717980528827943);
  EXPECT_DOUBLE_EQ(r.queue_occupancy_by_layer[0].mean(), 0.82467895295098115);
  EXPECT_DOUBLE_EQ(r.queue_occupancy_by_layer[1].mean(), 0.91765829797711951);
  EXPECT_DOUBLE_EQ(r.sim_duration.sec(), 0.0084473599999999992);
}

TEST(Determinism, GoldenRandomCoexistFingerprint) {
  const auto r = run_experiment(golden_cfg(Pattern::Random, true));
  EXPECT_EQ(r.events_dispatched, 494790u);
  EXPECT_EQ(r.flows.size(), 146u);
  EXPECT_EQ(r.goodput.count(), 72u);
  EXPECT_DOUBLE_EQ(r.goodput.mean(), 415.91802734746858);
  EXPECT_DOUBLE_EQ(r.goodput.percentile(50), 374.32499354060803);
  EXPECT_EQ(r.goodput_b.count(), 58u);
  EXPECT_DOUBLE_EQ(r.goodput_b.mean(), 339.70831575294449);
  EXPECT_EQ(r.rtt_by_category[0].count(), 3u);
  EXPECT_EQ(r.rtt_by_category[1].count(), 34u);
  EXPECT_EQ(r.rtt_by_category[2].count(), 328u);
  EXPECT_DOUBLE_EQ(r.rtt_by_category[2].mean(), 0.67494507926829295);
  EXPECT_DOUBLE_EQ(r.utilization_by_layer[1].mean(), 0.33621168750000002);
  EXPECT_DOUBLE_EQ(r.queue_occupancy_by_layer[2].mean(), 0.46782806249999992);
  EXPECT_DOUBLE_EQ(r.sim_duration.sec(), 0.080000000000000002);
}

}  // namespace
}  // namespace xmp::core
