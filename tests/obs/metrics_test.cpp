#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/hooks.hpp"
#include "obs/timeline.hpp"
#include "util/mini_json.hpp"

namespace xmp::obs {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in{path};
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct TempFile {
  std::string path;
  explicit TempFile(const char* name) : path{std::string{"/tmp/xmp_obs_test_"} + name} {}
  ~TempFile() { std::remove(path.c_str()); }
};

TEST(Counter, IncrementAndRead) {
  Counter c;
  EXPECT_EQ(c.get(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.get(), 42u);
}

TEST(Gauge, LastValueWins) {
  Gauge g;
  EXPECT_EQ(g.get(), 0.0);
  g.set(3.5);
  g.set(-1.25);
  EXPECT_EQ(g.get(), -1.25);
}

TEST(Histogram, BucketBoundaries) {
  Histogram h;
  h.add(0);  // bucket 0: exactly zero
  h.add(1);  // bucket 1: [1, 2)
  h.add(2);  // bucket 2: [2, 4)
  h.add(3);
  h.add(4);  // bucket 3: [4, 8)
  h.add(7);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 17u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(3), 2u);
  EXPECT_EQ(h.max_seen(), 7u);
  EXPECT_DOUBLE_EQ(h.mean(), 17.0 / 6.0);
}

TEST(Histogram, PercentilesApproximateWithinBucketWidth) {
  Histogram h;
  for (int i = 0; i < 90; ++i) h.add(100);   // bucket [64, 128)
  for (int i = 0; i < 10; ++i) h.add(5000);  // bucket [4096, 8192)
  // p50 must land in the bulk bucket, p99 in the tail bucket (geometric
  // midpoints 2^6.5 and 2^12.5).
  EXPECT_GE(h.percentile(50), 64.0);
  EXPECT_LE(h.percentile(50), 128.0);
  EXPECT_GE(h.percentile(99), 4096.0);
  EXPECT_LE(h.percentile(99), 8192.0);
  EXPECT_EQ(h.percentile(0), h.percentile(1));  // both hit the first bucket
}

TEST(Histogram, EmptyAndExtremes) {
  Histogram h;
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(50), 0.0);
  h.add(~0ull);  // must clamp into the top bucket, not index out of range
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.bucket(Histogram::kBuckets - 1), 1u);
  EXPECT_EQ(h.max_seen(), ~0ull);
}

TEST(Histogram, ConcurrentAddsLoseNothing) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.add(8);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.bucket(4), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistry, SameNameReturnsSameInstrument) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.get(), 1u);
  // Different kinds under different names coexist.
  Gauge& g = reg.gauge("y");
  Histogram& h = reg.histogram("z");
  g.set(1.0);
  h.add(2);
  EXPECT_EQ(reg.counter("x").get(), 1u);
}

TEST(MetricsRegistry, AddressesStableAcrossGrowth) {
  MetricsRegistry reg;
  Counter& first = reg.counter("first");
  first.inc();
  // Registering many more instruments must not move the first one.
  for (int i = 0; i < 100; ++i) static_cast<void>(reg.counter("c" + std::to_string(i)));
  EXPECT_EQ(&first, &reg.counter("first"));
  EXPECT_EQ(first.get(), 1u);
}

TEST(MetricsRegistry, DumpIsValidSortedJson) {
  MetricsRegistry reg;
  reg.counter("b_count").inc(2);
  reg.counter("a_count").inc(1);
  reg.gauge("load").set(0.5);
  reg.histogram("lat").add(10);
  reg.histogram("lat").add(1000);

  TempFile f{"registry.json"};
  reg.dump_to_file(f.path);

  const auto root = test::MiniJsonParser::parse(slurp(f.path));
  ASSERT_TRUE(root.is_object());
  const auto& counters = root.at("counters");
  EXPECT_EQ(counters.at("a_count").number, 1.0);
  EXPECT_EQ(counters.at("b_count").number, 2.0);
  // std::map iteration gives sorted (therefore diffable) order.
  EXPECT_EQ(counters.object.begin()->first, "a_count");
  EXPECT_EQ(root.at("gauges").at("load").number, 0.5);
  const auto& lat = root.at("histograms").at("lat");
  EXPECT_EQ(lat.at("count").number, 2.0);
  EXPECT_EQ(lat.at("sum").number, 1010.0);
  EXPECT_EQ(lat.at("max").number, 1000.0);
  ASSERT_TRUE(lat.at("buckets").is_array());
  EXPECT_FALSE(lat.at("buckets").array.empty());
}

TEST(SimMetrics, ResolvesWellKnownNames) {
  MetricsRegistry reg;
  SimMetrics m{reg};
  m.packets_delivered.inc(5);
  m.fct_us.add(123);
  EXPECT_EQ(reg.counter("packets_delivered").get(), 5u);
  EXPECT_EQ(reg.histogram("fct_us").count(), 1u);
  // Two bundles over one registry share instruments.
  SimMetrics m2{reg};
  EXPECT_EQ(&m.packets_delivered, &m2.packets_delivered);
}

TEST(ObservationScope, InstallsAndRestoresThreadLocals) {
  EXPECT_EQ(tracer(), nullptr);
  EXPECT_EQ(metrics(), nullptr);
  MetricsRegistry reg;
  SimMetrics m{reg};
  TimelineTracer tr;
  {
    ObservationScope outer{&tr, &m};
    EXPECT_EQ(tracer(), &tr);
    EXPECT_EQ(metrics(), &m);
    {
      ObservationScope inner{nullptr, nullptr};  // scopes nest and shadow
      EXPECT_EQ(tracer(), nullptr);
      EXPECT_EQ(metrics(), nullptr);
    }
    EXPECT_EQ(tracer(), &tr);
  }
  EXPECT_EQ(tracer(), nullptr);
  EXPECT_EQ(metrics(), nullptr);
}

TEST(ObservationScope, IsPerThread) {
  MetricsRegistry reg;
  SimMetrics m{reg};
  ObservationScope scope{nullptr, &m};
  bool other_thread_saw_null = false;
  std::thread t{[&] { other_thread_saw_null = metrics() == nullptr; }};
  t.join();
  EXPECT_TRUE(other_thread_saw_null);  // observers never leak across threads
  EXPECT_EQ(metrics(), &m);
}

}  // namespace
}  // namespace xmp::obs
