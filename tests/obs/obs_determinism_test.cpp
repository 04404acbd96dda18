// Determinism guard for the observability layer.
//
// Tracing must be purely passive: a run with the tracer and metrics
// installed must produce a byte-identical summary to the same seed run
// with observability disabled. The tracer piggybacks every sample on
// existing activity (queue enqueue/dequeue, scheduler dispatch strides)
// precisely so this holds; this test pins that property.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/experiment.hpp"
#include "core/export.hpp"
#include "util/mini_json.hpp"

namespace xmp::core {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in{path};
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct TempFile {
  std::string path;
  explicit TempFile(const char* name) : path{std::string{"/tmp/xmp_obs_det_"} + name} {}
  ~TempFile() { std::remove(path.c_str()); }
};

ExperimentConfig small_cfg() {
  ExperimentConfig cfg;
  cfg.fat_tree_k = 4;
  cfg.pattern = Pattern::Permutation;
  cfg.scheme.kind = workload::SchemeSpec::Kind::Xmp;
  cfg.scheme.subflows = 2;
  cfg.permutation_rounds = 1;
  cfg.perm_min_bytes = 250'000;
  cfg.perm_max_bytes = 500'000;
  cfg.duration = sim::Time::seconds(0.02);
  cfg.seed = 1234;
  return cfg;
}

TEST(ObsDeterminism, TracingDisabledVsEnabledIsByteIdentical) {
  TempFile plain{"plain.json"};
  TempFile traced_summary{"traced_summary.json"};
  TempFile trace{"trace.json"};
  TempFile trace_csv{"trace.csv"};
  TempFile metrics{"metrics.json"};

  auto cfg = small_cfg();
  const auto baseline = run_experiment(cfg);
  export_summary_json(cfg, baseline, plain.path);

  cfg.obs.trace_json = trace.path;
  cfg.obs.trace_csv = trace_csv.path;
  cfg.obs.metrics_json = metrics.path;
  const auto observed = run_experiment(cfg);
  cfg.obs = ObsConfig{};  // summary must not embed the obs file paths
  export_summary_json(cfg, observed, traced_summary.path);

  EXPECT_EQ(baseline.events_dispatched, observed.events_dispatched);
  EXPECT_EQ(baseline.flows.size(), observed.flows.size());
  EXPECT_EQ(baseline.goodput.mean(), observed.goodput.mean());

  const std::string a = slurp(plain.path);
  const std::string b = slurp(traced_summary.path);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "tracing perturbed the simulation trajectory";
}

/// `json` without the lines that count an observer's own work: dispatched
/// events (the invariant checker's ticks are control events) and the
/// checker's checks and violations. Trailing commas go too, since which
/// line of an object is last depends on the dropped ones.
std::string without_observer_counts(const std::string& json) {
  std::istringstream in{json};
  std::string out;
  for (std::string line; std::getline(in, line);) {
    if (line.find("\"events\"") != std::string::npos ||
        line.find("\"invariant_") != std::string::npos) {
      continue;
    }
    if (!line.empty() && line.back() == ',') line.pop_back();
    out += line;
    out += '\n';
  }
  return out;
}

// Links start transmissions lazily, and only the simulation's own events
// start them. The invariant checker, the metrics and the CSV trace read
// the links' settled view, so on a permutation whose queues build (k
// shards, boundary links included) they leave every result in place.
TEST(ObsDeterminism, ObserversLeaveAQueuedRunUnchanged) {
  TempFile plain{"queued_plain.json"};
  TempFile observed_summary{"queued_observed.json"};
  TempFile trace_csv{"queued_trace.csv"};
  TempFile metrics{"queued_metrics.json"};

  auto cfg = small_cfg();
  cfg.shards = 2;
  const auto baseline = run_experiment(cfg);
  export_summary_json(cfg, baseline, plain.path);
  double occupancy = 0.0;
  for (const auto& layer : baseline.queue_occupancy_by_layer) occupancy += layer.mean();
  ASSERT_GT(occupancy, 1.0) << "queues never built";

  cfg.check_invariants = true;
  cfg.obs.trace_csv = trace_csv.path;
  cfg.obs.metrics_json = metrics.path;
  const auto observed = run_experiment(cfg);
  EXPECT_GT(observed.invariant_checks, 0u);
  EXPECT_TRUE(observed.invariant_violations.empty());
  cfg.check_invariants = false;
  cfg.obs = ObsConfig{};
  export_summary_json(cfg, observed, observed_summary.path);

  const std::string a = slurp(plain.path);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(without_observer_counts(a), without_observer_counts(slurp(observed_summary.path)));
  // The queue-occupancy integrals are results too (not in the summary).
  for (int l = 0; l < 3; ++l) {
    EXPECT_EQ(baseline.queue_occupancy_by_layer[l].mean(),
              observed.queue_occupancy_by_layer[l].mean());
  }
}

TEST(ObsDeterminism, TracedRunEmitsValidPerfettoJsonAndMetrics) {
  TempFile trace{"golden_trace.json"};
  TempFile metrics{"golden_metrics.json"};

  auto cfg = small_cfg();
  cfg.obs.trace_json = trace.path;
  cfg.obs.metrics_json = metrics.path;
  ASSERT_TRUE(run_experiment(cfg).unwritten.empty());

  // The Chrome trace must parse and expose per-subflow cwnd and δ-gain
  // counter tracks plus named flow/link processes — the contract Perfetto
  // and scripts/validate_trace.py rely on.
  const auto root = test::MiniJsonParser::parse(slurp(trace.path));
  ASSERT_TRUE(root.is_object());
  ASSERT_TRUE(root.at("traceEvents").is_array());
  EXPECT_GT(root.at("otherData").at("events").number, 0.0);

  bool saw_cwnd_counter = false;
  bool saw_gain_counter = false;
  bool saw_named_link = false;
  bool saw_subflow1 = false;
  for (const auto& ev : root.at("traceEvents").array) {
    ASSERT_TRUE(ev.is_object());
    const std::string& name = ev.at("name").str;
    const std::string& ph = ev.at("ph").str;
    if (ph == "C" && name.rfind("cwnd[", 0) == 0) saw_cwnd_counter = true;
    if (ph == "C" && name == "gain[1]") {
      saw_gain_counter = true;
      saw_subflow1 = true;
    }
    if (ph == "M" && name == "process_name" &&
        ev.at("args").at("name").str.find("link") != std::string::npos) {
      saw_named_link = true;
    }
  }
  EXPECT_TRUE(saw_cwnd_counter);
  EXPECT_TRUE(saw_gain_counter);
  EXPECT_TRUE(saw_named_link);
  EXPECT_TRUE(saw_subflow1);  // both subflows of the 2-subflow XMP scheme

  const auto m = test::MiniJsonParser::parse(slurp(metrics.path));
  ASSERT_TRUE(m.is_object());
  EXPECT_GT(m.at("counters").at("packets_delivered").number, 0.0);
  EXPECT_GT(m.at("histograms").at("fct_us").at("count").number, 0.0);
}

TEST(ObsDeterminism, CategoryFilterRestrictsTraceContents) {
  TempFile trace{"filtered_trace.json"};

  auto cfg = small_cfg();
  cfg.obs.trace_json = trace.path;
  cfg.obs.categories = obs::cat::kCwnd;
  ASSERT_TRUE(run_experiment(cfg).unwritten.empty());

  const auto root = test::MiniJsonParser::parse(slurp(trace.path));
  for (const auto& ev : root.at("traceEvents").array) {
    const std::string& ph = ev.at("ph").str;
    if (ph == "M") continue;  // metadata is always emitted
    EXPECT_EQ(ph, "C");
    EXPECT_EQ(ev.at("name").str.rfind("cwnd[", 0), 0u) << ev.at("name").str;
  }
}

}  // namespace
}  // namespace xmp::core
