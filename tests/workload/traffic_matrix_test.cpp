#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/experiment.hpp"
#include "workload/traffic_matrix.hpp"

namespace xmp::workload {
namespace {

/// Temp directory holding a small valid CDF so `cdf` directives resolve.
class TrafficMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("xmp_wl_test_" + std::to_string(::getpid())))
               .string();
    std::filesystem::create_directories(dir_);
    std::ofstream out{dir_ + "/sizes.cdf"};
    out << "1000 0.5\n2000000 1.0\n";
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  bool parse(const std::string& text, WorkloadSpec& out, std::string* error) {
    std::istringstream in{text};
    return WorkloadSpec::parse(in, "test.wl", dir_, out, error);
  }

  std::string reject(const std::string& text) {
    WorkloadSpec spec;
    std::string error;
    EXPECT_FALSE(parse(text, spec, &error)) << "expected rejection of: " << text;
    return error;
  }

  std::string dir_;
};

TEST_F(TrafficMatrixTest, ParsesFullSpec) {
  WorkloadSpec spec;
  std::string error;
  ASSERT_TRUE(parse(
      "# demo\n"
      "nodes 16\n"
      "cdf sizes.cdf\n"
      "load 0.3\n"
      "span inter-rack\n"
      "mice-threshold 50000\n"
      "flow 0 5 1000000 0.010\n"
      "flow 2 3 500 0.001\n",
      spec, &error))
      << error;
  EXPECT_EQ(spec.nodes, 16);
  EXPECT_TRUE(spec.has_cdf);
  EXPECT_DOUBLE_EQ(spec.default_load, 0.3);
  EXPECT_EQ(spec.span, WorkloadSpan::InterRack);
  EXPECT_EQ(spec.mice_threshold, 50000);
  ASSERT_EQ(spec.flows.size(), 2u);
  // Explicit flows come back sorted by start time, not file order.
  EXPECT_EQ(spec.flows[0].src, 2);
  EXPECT_EQ(spec.flows[1].src, 0);
  EXPECT_EQ(spec.flows[1].bytes, 1000000);
  EXPECT_EQ(spec.flows[1].start, sim::Time::seconds(0.010));
}

TEST_F(TrafficMatrixTest, TraceOnlyWorkloadNeedsNoCdf) {
  WorkloadSpec spec;
  std::string error;
  ASSERT_TRUE(parse("nodes 4\nflow 0 1 1000 0\n", spec, &error)) << error;
  EXPECT_FALSE(spec.has_cdf);
  EXPECT_EQ(spec.flows.size(), 1u);
}

// A trace-only file's explicit flows, end to end through run_experiment:
// each starts at its scheduled time and completes.
TEST_F(TrafficMatrixTest, TraceOnlyFlowsStartOnScheduleAndComplete) {
  std::ofstream{dir_ + "/trace.wl"} << "nodes 16\nflow 0 8 50000 0\nflow 1 9 2000 0.02\n"
                                       "flow 2 10 50000 0.04\n";
  auto spec = std::make_shared<WorkloadSpec>();
  std::string error;
  ASSERT_TRUE(WorkloadSpec::parse_file(dir_ + "/trace.wl", *spec, &error)) << error;
  core::ExperimentConfig cfg;
  cfg.pattern = core::Pattern::Workload;
  cfg.workload = spec;
  cfg.fat_tree_k = 4;
  cfg.duration = sim::Time::seconds(0.5);
  const auto res = core::run_experiment(cfg);
  ASSERT_EQ(res.fct_records.size(), 3u);
  const double starts[] = {0.0, 0.02, 0.04};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(res.fct_records[i].start_ns, sim::Time::seconds(starts[i]).ns()) << i;
    EXPECT_TRUE(res.fct_records[i].completed) << i;
  }
}

TEST_F(TrafficMatrixTest, RejectsHostileInputs) {
  EXPECT_NE(reject("nodes 4\nflow 0 1 1000\n").find("test.wl:2"), std::string::npos)
      << "truncated flow line";
  EXPECT_FALSE(reject("nodes 4\nflow 0 1 nan 0\n").empty()) << "NaN size";
  EXPECT_FALSE(reject("nodes 4\nflow 0 1 -100 0\n").empty()) << "negative size";
  EXPECT_FALSE(reject("nodes 4\nflow 0 1 0 0\n").empty()) << "zero size";
  EXPECT_FALSE(reject("nodes 4\nflow 0 9 1000 0\n").empty()) << "unknown dst host";
  EXPECT_FALSE(reject("nodes 4\nflow 7 1 1000 0\n").empty()) << "unknown src host";
  EXPECT_FALSE(reject("nodes 4\nflow 1 1 1000 0\n").empty()) << "src == dst";
  EXPECT_FALSE(reject("nodes 4\nflow 0 1 1000 -0.5\n").empty()) << "negative start";
  EXPECT_FALSE(reject("flow 0 1 1000 0\n").empty()) << "flow before nodes";
  EXPECT_FALSE(reject("cdf sizes.cdf\n").empty()) << "missing nodes";
  EXPECT_FALSE(reject("nodes 4\n").empty()) << "no traffic at all";
  EXPECT_FALSE(reject("nodes 1\nflow 0 1 1 0\n").empty()) << "nodes < 2";
  EXPECT_FALSE(reject("nodes 4\nnodes 8\nflow 0 1 1 0\n").empty()) << "duplicate nodes";
  EXPECT_FALSE(reject("nodes 4\nload 0.3\nflow 0 1 1 0\n").empty()) << "load without cdf";
  EXPECT_FALSE(reject("nodes 4\ncdf sizes.cdf\nload 0\n").empty()) << "load out of range";
  EXPECT_FALSE(reject("nodes 4\ncdf sizes.cdf\nload 1.5\n").empty()) << "load > 1.2";
  EXPECT_FALSE(reject("nodes 4\ncdf missing.cdf\n").empty()) << "unreadable cdf";
  EXPECT_FALSE(reject("nodes 4\nspan bogus\ncdf sizes.cdf\n").empty()) << "unknown span";
  EXPECT_FALSE(reject("nodes 4\nwidgets 7\ncdf sizes.cdf\n").empty()) << "unknown directive";
  EXPECT_FALSE(reject("nodes 4 extra\ncdf sizes.cdf\n").empty()) << "trailing token";
  EXPECT_FALSE(reject("nodes 4\nmice-threshold -1\ncdf sizes.cdf\n").empty())
      << "negative mice threshold";
}

TEST_F(TrafficMatrixTest, BadCdfDiagnosticNamesTheCdfFile) {
  std::ofstream out{dir_ + "/bad.cdf"};
  out << "1000 0.5\n";  // only one point
  out.close();
  const std::string error = reject("nodes 4\ncdf bad.cdf\n");
  EXPECT_NE(error.find("bad.cdf"), std::string::npos) << error;
}

TEST_F(TrafficMatrixTest, ContentHashIsStableAndSensitive) {
  WorkloadSpec a, b, c;
  std::string error;
  ASSERT_TRUE(parse("nodes 8\ncdf sizes.cdf\nload 0.3\n", a, &error)) << error;
  ASSERT_TRUE(parse("nodes 8\ncdf sizes.cdf\nload 0.3\n", b, &error)) << error;
  ASSERT_TRUE(parse("nodes 8\ncdf sizes.cdf\nload 0.4\n", c, &error)) << error;
  EXPECT_EQ(a.content_hash(), b.content_hash());
  EXPECT_NE(a.content_hash(), c.content_hash());

  WorkloadSpec d;
  ASSERT_TRUE(parse("nodes 8\ncdf sizes.cdf\nload 0.3\nflow 0 1 1000 0\n", d, &error)) << error;
  EXPECT_NE(a.content_hash(), d.content_hash());
}

}  // namespace
}  // namespace xmp::workload
