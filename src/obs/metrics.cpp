#include "obs/metrics.hpp"

#include <bit>
#include <cassert>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "trace/writers.hpp"

namespace xmp::obs {

void Histogram::add(std::uint64_t value) {
  // Bucket 0 holds exactly 0; bucket b holds [2^(b-1), 2^b). bit_width is a
  // single bit-scan instruction, so the whole add is a handful of relaxed
  // atomic RMWs — safe from any thread, no lock.
  int b = value == 0 ? 0 : std::bit_width(value);
  if (b >= kBuckets) b = kBuckets - 1;  // values >= 2^62 share the top bucket
  buckets_[static_cast<std::size_t>(b)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  std::uint64_t prev = max_.load(std::memory_order_relaxed);
  while (prev < value &&
         !max_.compare_exchange_weak(prev, value, std::memory_order_relaxed)) {
  }
}

double Histogram::mean() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

double Histogram::percentile(double p) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  if (p < 0.0) p = 0.0;
  if (p > 100.0) p = 100.0;
  // Rank of the p-th sample (1-based, ceil) among the sorted samples.
  auto rank = static_cast<std::uint64_t>(p / 100.0 * static_cast<double>(n));
  if (rank == 0) rank = 1;
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += bucket(b);
    if (seen >= rank) {
      if (b == 0) return 0.0;
      // Geometric midpoint of [2^(b-1), 2^b): sqrt(lo * hi) = 2^(b-0.5).
      const double lo = static_cast<double>(1ull << (b - 1));
      return lo * 1.4142135623730951;
    }
  }
  return static_cast<double>(max_seen());
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock{mu_};
  assert(gauges_.count(name) == 0 && histograms_.count(name) == 0 &&
         "metric name already registered with a different kind");
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, &counter_store_.emplace_back()).first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock{mu_};
  assert(counters_.count(name) == 0 && histograms_.count(name) == 0 &&
         "metric name already registered with a different kind");
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, &gauge_store_.emplace_back()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock{mu_};
  assert(counters_.count(name) == 0 && gauges_.count(name) == 0 &&
         "metric name already registered with a different kind");
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, &histogram_store_.emplace_back()).first;
  }
  return *it->second;
}

void MetricsRegistry::dump(trace::JsonWriter& json) const {
  std::lock_guard<std::mutex> lock{mu_};

  json.key("counters");
  json.begin_object();
  for (const auto& [name, c] : counters_) {
    json.kv(name, c->get());
  }
  json.end_object();

  json.key("gauges");
  json.begin_object();
  for (const auto& [name, g] : gauges_) {
    json.kv(name, g->get());
  }
  json.end_object();

  json.key("histograms");
  json.begin_object();
  for (const auto& [name, h] : histograms_) {
    json.key(name);
    json.begin_object();
    json.kv("count", h->count());
    json.kv("sum", h->sum());
    json.kv("mean", h->mean());
    json.kv("p50", h->percentile(50.0));
    json.kv("p99", h->percentile(99.0));
    json.kv("max", h->max_seen());
    json.key("buckets");
    json.begin_array();
    // Trailing empty buckets carry no information; stop at the last
    // populated one so small dumps stay small.
    int last = -1;
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      if (h->bucket(b) != 0) last = b;
    }
    for (int b = 0; b <= last; ++b) {
      json.value(h->bucket(b));
    }
    json.end_array();
    json.end_object();
  }
  json.end_object();
}

namespace {

bool is_ckpt_meter(const std::string& name) {
  return name.rfind("harness.ckpt.", 0) == 0;
}

}  // namespace

void MetricsRegistry::checkpoint(core::ckpt::Io& io) {
  // Saving copies every instrument into rows under the lock; loading reads
  // the rows, then registers them by name.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  struct HistogramRow {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t max = 0;
    std::array<std::uint64_t, Histogram::kBuckets> buckets{};
  };
  std::vector<HistogramRow> histograms;
  if (io.saving()) {
    std::lock_guard<std::mutex> lock{mu_};
    for (const auto& [name, c] : counters_) {
      if (!is_ckpt_meter(name)) counters.emplace_back(name, c->get());
    }
    for (const auto& [name, g] : gauges_) gauges.emplace_back(name, g->get());
    for (const auto& [name, h] : histograms_) {
      HistogramRow& r = histograms.emplace_back();
      r.name = name;
      r.count = h->count();
      r.sum = h->sum();
      r.max = h->max_seen();
      for (int b = 0; b < Histogram::kBuckets; ++b) r.buckets[static_cast<std::size_t>(b)] = h->bucket(b);
    }
  }
  io.seq(counters, [&](auto& c) {
    io.str(c.first);
    io.u64(c.second);
  });
  io.seq(gauges, [&](auto& g) {
    io.str(g.first);
    io.f64(g.second);
  });
  io.seq(histograms, [&](HistogramRow& r) {
    io.str(r.name);
    io.u64(r.count);
    io.u64(r.sum);
    io.u64(r.max);
    for (std::uint64_t& n : r.buckets) io.u64(n);
  });
  if (io.saving() || !io.ok()) return;
  for (const auto& [name, v] : counters) counter(name).set(v);
  for (const auto& [name, v] : gauges) gauge(name).set(v);
  for (const HistogramRow& r : histograms) histogram(r.name).restore(r.buckets, r.count, r.sum, r.max);
}

void MetricsRegistry::dump_to_file(const std::string& path) const {
  trace::JsonWriter json{path};
  json.begin_object();
  dump(json);
  json.end_object();
}

SimMetrics::SimMetrics(MetricsRegistry& reg)
    : registry{reg},
      packets_delivered{reg.counter("packets_delivered")},
      packets_dropped{reg.counter("packets_dropped")},
      packets_impaired{reg.counter("packets_impaired")},
      ecn_marks{reg.counter("ecn_marks")},
      retransmissions{reg.counter("retransmissions")},
      timeouts{reg.counter("timeouts")},
      reinjections{reg.counter("reinjections")},
      subflow_deaths{reg.counter("subflow_deaths")},
      fault_events{reg.counter("fault_events")},
      switch_forwarded{reg.counter("switch_forwarded")},
      switch_unroutable{reg.counter("switch_unroutable")},
      route_reroutes{reg.counter("route_reroutes")},
      route_collisions{reg.counter("route_collisions")},
      flowlet_repaths{reg.counter("flowlet_repaths")},
      path_rehomes{reg.counter("path_rehomes")},
      fct_us{reg.histogram("fct_us")},
      fct_slowdown_milli{reg.histogram("fct_slowdown_milli")},
      queue_depth{reg.histogram("queue_depth")},
      mark_runs{reg.histogram("mark_runs")} {}

}  // namespace xmp::obs
