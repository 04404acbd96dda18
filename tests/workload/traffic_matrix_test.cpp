#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/checkpoint.hpp"
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
  EXPECT_EQ(spec.at(spec.flows[1].start), sim::Time::seconds(0.010));
}

// A two-bottleneck testbed with every flow option; the unit scales every
// flow time.
constexpr const char* kPinned =
    "topology pinned\n"
    "unit 2\n"
    "hops 20G 20us 15us\n"
    "bottleneck 300M 500us\n"
    "bottleneck 1.2G 80us\n"
    "sample 0.5\n"
    "flow 1000000 1 scheme=xmp paths=0,1 offsets=0,1 stop=3\n"
    "flow 2000000 0 scheme=bos paths=1\n"
    "flow 3000000 0 paths=0,0,1 subflows=2\n";

TEST_F(TrafficMatrixTest, ParsesPinnedTestbed) {
  WorkloadSpec spec;
  std::string error;
  ASSERT_TRUE(parse(kPinned, spec, &error)) << error;
  EXPECT_TRUE(spec.pinned);
  EXPECT_EQ(spec.nodes, 6);
  EXPECT_EQ(spec.sample, sim::Time::milliseconds(500));
  EXPECT_EQ(spec.testbed.access_rate_bps, 20'000'000'000);
  EXPECT_EQ(spec.testbed.inner_delay, sim::Time::microseconds(15));
  ASSERT_EQ(spec.testbed.bottlenecks.size(), 2u);
  EXPECT_EQ(spec.testbed.bottlenecks[0].rate_bps, 300'000'000);
  EXPECT_EQ(spec.testbed.bottlenecks[1].rate_bps, 1'200'000'000);
  EXPECT_EQ(spec.testbed.bottlenecks[0].delay, sim::Time::microseconds(500));
  ASSERT_EQ(spec.flows.size(), 3u);
  // Sorted by start; each line keeps the host pair of its file position.
  const ExplicitFlow& a = spec.flows[2];
  EXPECT_EQ(a.src, 0);
  EXPECT_EQ(a.dst, 1);
  EXPECT_EQ(a.scheme, SchemeSpec::Kind::Xmp);
  EXPECT_EQ(a.subflows, 2);
  EXPECT_EQ(a.paths, (std::vector<int>{0, 1}));
  EXPECT_EQ(spec.at(a.start), sim::Time::seconds(2.0));
  EXPECT_EQ(spec.at(a.offsets[1]), sim::Time::seconds(2.0));
  EXPECT_EQ(spec.at(a.stop), sim::Time::seconds(6.0));
  EXPECT_EQ(spec.flows[0].src, 2);
  EXPECT_EQ(spec.flows[0].scheme, SchemeSpec::Kind::Bos);
  EXPECT_EQ(spec.flows[0].stop, -1.0);
  EXPECT_EQ(spec.flows[1].src, 4);
  EXPECT_FALSE(spec.flows[1].scheme.has_value());  // the run's scheme
  EXPECT_EQ(spec.flows[1].subflows, 2);
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

  // Each malformed testbed form gets one diagnostic naming its line.
  const std::string head = "topology pinned\nbottleneck 300M 500us\n";  // lines 1-2
  const std::pair<std::string, std::string> cases[] = {
      {"bottleneck 300 500us\n", "rate without a unit"},
      {"bottleneck 300M 500\n", "delay without a unit"},
      {"bottleneck nanM 500us\n", "NaN rate"},
      {"bottleneck 300M -5us\n", "negative delay"},
      {"hops 10G 100us\n", "truncated hops"},
      {"flow 1000 0 scheme=cubic\n", "unknown scheme"},
      {"flow 1000 0 paths=0,1\n", "path past the last bottleneck"},
      {"flow 1000 2 stop=2\n", "stop at start"},
      {"flow 1000 2 stop=1\n", "stop before start"},
      {"flow 1000 0 paths=0,0 offsets=0\n", "offset count != subflows"},
      {"flow 1000 0 subflows=3 offsets=0,1\n", "offset count != subflows="},
      {"flow 1000 0 scheme=bos paths=0,0\n", "single-path scheme on two paths"},
      {"flow 1000 0 scheme=dctcp offsets=1\n", "single-path scheme with an offset"},
      {"flow 1000 0 paths=\n", "empty paths"},
      {"flow 1000 0 paths=0 paths=0\n", "duplicate option"},
      {"flow 1000 0 color=red\n", "unknown option"},
      {"flow 1000\n", "truncated flow line"},
      {"flow 0 1 1000 0\n", "fat-tree flow line"},
      {"sample 0\n", "sample 0"},
      {"sample 0.000001\n", "sample under 1 ms"},
      {"flow 1000 0 stop=1e12\n", "stop past 3600 s"},
      {"flow 1000 0 paths=0,0 offsets=0,1e300\n", "offset past 3600 s"},
      {"flow 1000 1e15\n", "start past 3600 s"},
      {"flow 1000 3601\n", "start just past 3600 s"},
      {"nodes 4\n", "nodes in a testbed"},
      {"topology pinned\n", "second topology"},
  };
  for (const auto& [line, what] : cases) {
    const std::string error = reject(head + line);
    EXPECT_NE(error.find("test.wl:3: "), std::string::npos) << what << ": " << error;
  }
  EXPECT_NE(reject("nodes 4\nbottleneck 1G 1us\n").find("test.wl:2: "), std::string::npos)
      << "bottleneck without a pinned topology";
  EXPECT_NE(reject("nodes 4\ntopology pinned\n").find("test.wl:2: "), std::string::npos)
      << "topology after another directive";
  EXPECT_FALSE(reject(head).empty()) << "testbed without flows";
  EXPECT_NE(reject("nodes 4\nunit 2\nflow 0 1 1000 0\n").find("test.wl:2: "), std::string::npos)
      << "unit in a Fat-Tree file";
  EXPECT_NE(reject("nodes 4\nflow 0 1 1000 1e15\n").find("test.wl:2: "), std::string::npos)
      << "Fat-Tree start past 3600 s";
  EXPECT_NE(reject(head + "flow 1000 0\nunit 2\n").find("test.wl:4: "), std::string::npos)
      << "unit after a flow line";
  EXPECT_NE(reject("topology pinned\nunit 0.5\nbottleneck 1G 1us\nflow 1000 7201\n")
                .find("test.wl:4: "),
            std::string::npos)
      << "start past 3600 s in the file's unit";
  WorkloadSpec spec;
  std::string error;
  EXPECT_TRUE(parse("topology pinned\nunit 0.5\nbottleneck 1G 1us\nflow 1000 7200\n", spec, &error))
      << "start at 3600 s: " << error;
}

// Scenarios that differ in one testbed field hash apart, so a snapshot of
// one fails the other's config fingerprint.
TEST_F(TrafficMatrixTest, EveryTestbedFieldChangesTheSnapshotFingerprint) {
  const std::string base = kPinned;
  const std::pair<std::string, std::string> edits[] = {
      {"unit 2", "unit 3"},
      {"hops 20G 20us 15us", "hops 20G 20us 16us"},
      {"bottleneck 300M 500us", "bottleneck 301M 500us"},
      {"sample 0.5", "sample 0.25"},
      {"scheme=bos", "scheme=dctcp"},
      {"paths=0,0,1 subflows=2", "paths=0,0,1 subflows=3"},
      {"paths=0,1 offsets=0,1", "paths=1,0 offsets=0,1"},
      {"offsets=0,1", "offsets=0,2"},
      {"stop=3", "stop=4"},
  };
  WorkloadSpec a;
  std::string error;
  ASSERT_TRUE(parse(base, a, &error)) << error;
  core::ExperimentConfig cfg;
  cfg.pattern = core::Pattern::Workload;
  cfg.workload = std::make_shared<WorkloadSpec>(a);
  const std::uint64_t fp = core::ckpt::config_fingerprint(cfg);
  for (const auto& [from, to] : edits) {
    std::string text = base;
    ASSERT_NE(text.find(from), std::string::npos) << from;
    text.replace(text.find(from), from.size(), to);
    WorkloadSpec b;
    ASSERT_TRUE(parse(text, b, &error)) << error;
    EXPECT_NE(a.content_hash(), b.content_hash()) << to;
    cfg.workload = std::make_shared<WorkloadSpec>(b);
    EXPECT_NE(core::ckpt::config_fingerprint(cfg), fp) << to;
  }
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
