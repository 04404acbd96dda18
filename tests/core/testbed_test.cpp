#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <sstream>
#include <string>

#include "core/checkpoint.hpp"
#include "core/experiment.hpp"
#include "workload/traffic_matrix.hpp"

namespace xmp::core {
namespace {

// One 100 Mbps bottleneck: a BOS flow that stops at 50 ms, and a two-subflow
// XMP flow whose second subflow joins at 20 ms.
ExperimentConfig testbed_cfg() {
  std::istringstream in{
      "topology pinned\n"
      "bottleneck 100M 100us\n"
      "sample 0.01\n"
      "flow 1000000000 0 scheme=bos stop=0.05\n"
      "flow 1000000000 0 scheme=xmp paths=0,0 offsets=0,0.02\n"};
  auto spec = std::make_shared<workload::WorkloadSpec>();
  std::string err;
  EXPECT_TRUE(workload::WorkloadSpec::parse(in, "bed.wl", "", *spec, &err)) << err;
  ExperimentConfig cfg;
  cfg.pattern = Pattern::Workload;
  cfg.workload = spec;
  cfg.mark_threshold = 10;
  cfg.duration = sim::Time::seconds(0.1);
  return cfg;
}

std::int64_t at(const ExperimentResults& r, double t, const std::string& column) {
  const auto& s = r.series;
  for (std::size_t i = 0; i < s.t_ns.size(); ++i) {
    if (s.t_ns[i] != sim::Time::seconds(t).ns()) continue;
    for (std::size_t c = 0; c < s.columns.size(); ++c) {
      if (s.columns[c] == column) return s.rows[i][c];
    }
  }
  ADD_FAILURE() << "no " << column << " at " << t;
  return -1;
}

TEST(Testbed, SeriesCountsEachSubflowAndBottleneckOnTheSampleGrid) {
  const ExperimentConfig cfg = testbed_cfg();
  ASSERT_TRUE(is_testbed(cfg));
  const auto r = run_experiment(cfg);
  const auto& s = r.series;
  EXPECT_EQ(s.columns, (std::vector<std::string>{"flow0.sf0", "flow1.sf0", "flow1.sf1",
                                                 "bneck0.busy_ns"}));
  ASSERT_EQ(s.t_ns.size(), 11u);  // t = 0, 10 ms, ..., 100 ms (the horizon)
  EXPECT_EQ(s.rows[0], std::vector<std::int64_t>(4, 0));
  for (std::size_t i = 1; i < s.t_ns.size(); ++i) {
    EXPECT_EQ(s.t_ns[i], sim::Time::milliseconds(10).ns() * static_cast<std::int64_t>(i));
    for (std::size_t c = 0; c < s.columns.size(); ++c) {
      EXPECT_GE(s.rows[i][c], s.rows[i - 1][c]) << s.columns[c];
    }
  }
  // The second subflow joins at its offset; the stopped flow's count
  // freezes once what was in flight has drained.
  EXPECT_EQ(at(r, 0.02, "flow1.sf1"), 0);
  EXPECT_GT(at(r, 0.03, "flow1.sf1"), 0);
  EXPECT_GT(at(r, 0.05, "flow0.sf0"), 0);
  EXPECT_EQ(at(r, 0.07, "flow0.sf0"), at(r, 0.1, "flow0.sf0"));
  EXPECT_GT(at(r, 0.1, "flow1.sf0"), at(r, 0.07, "flow1.sf0"));
  ASSERT_EQ(r.utilization_by_bottleneck.size(), 1u);
  EXPECT_GT(r.utilization_by_bottleneck[0], 0.8);
  EXPECT_EQ(r.shard.logical_shards, 1);
}

// A run resumed from a snapshot records the same series as one that ran
// through, so `verify` can compare series.csv across its legs.
TEST(Testbed, ResumedRunRecordsTheSameSeries) {
  ExperimentConfig cfg = testbed_cfg();
  const auto whole = run_experiment(cfg);
  const std::string dir = ::testing::TempDir() + "xmp_testbed_resume";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  cfg.checkpoint.every = sim::Time::seconds(0.03);
  cfg.checkpoint.dir = dir;
  ASSERT_EQ(run_experiment(cfg).ckpt.written, 3u);
  ExperimentConfig resumed = testbed_cfg();
  resumed.checkpoint.restore_path = dir + "/" + ckpt::file_name(2);
  const auto r = run_experiment(resumed);
  EXPECT_TRUE(r.ckpt.restored);
  EXPECT_EQ(r.series.t_ns, whole.series.t_ns);
  EXPECT_EQ(r.series.rows, whole.series.rows);
  EXPECT_EQ(r.utilization_by_bottleneck, whole.utilization_by_bottleneck);
}

}  // namespace
}  // namespace xmp::core
