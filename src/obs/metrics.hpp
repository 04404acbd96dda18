#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>

namespace xmp::trace {
class JsonWriter;
}

namespace xmp::core::ckpt {
class Io;
}  // namespace xmp::core::ckpt

namespace xmp::obs {

/// Monotone event counter. Increment is a single relaxed atomic add — no
/// lock, no fence — so it is safe to bump from any thread and cheap enough
/// for per-packet hot paths.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t get() const { return v_.load(std::memory_order_relaxed); }
  /// Overwrite the value — checkpoint restore only, never on a hot path.
  void set(std::uint64_t v) { v_.store(v, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-value-wins instantaneous gauge.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double get() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Log-bucketed histogram of non-negative integer samples (FCT in µs,
/// queue depth in packets, mark-run lengths, ...).
///
/// Bucket b holds values in [2^(b-1), 2^b); bucket 0 holds exactly 0. The
/// 2x resolution matches what a regression gate or a tail-latency glance
/// needs, while add() stays a bit-scan plus one relaxed atomic increment —
/// no binary search, no lock.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void add(std::uint64_t value);

  [[nodiscard]] std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] std::uint64_t bucket(int i) const {
    return buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
  }
  /// Approximate percentile (p in [0,100]): the geometric midpoint of the
  /// bucket containing the p-th sample. Exact for 0 and within the 2x
  /// bucket width otherwise.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] std::uint64_t max_seen() const { return max_.load(std::memory_order_relaxed); }

  /// Overwrite all state — checkpoint restore only, never on a hot path.
  void restore(const std::array<std::uint64_t, kBuckets>& buckets, std::uint64_t count,
               std::uint64_t sum, std::uint64_t max) {
    for (int i = 0; i < kBuckets; ++i) {
      buckets_[static_cast<std::size_t>(i)].store(buckets[static_cast<std::size_t>(i)],
                                                  std::memory_order_relaxed);
    }
    count_.store(count, std::memory_order_relaxed);
    sum_.store(sum, std::memory_order_relaxed);
    max_.store(max, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// Name-addressed registry of counters, gauges and histograms.
///
/// Registration (name lookup) takes a mutex and is meant for setup;
/// instruments are returned by reference with stable addresses (deque
/// storage), so the hot path touches only the instrument itself —
/// lock-free by construction. Looking up an existing name returns the same
/// instrument; a name registered as one kind cannot be re-registered as
/// another (asserted).
class MetricsRegistry {
 public:
  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  [[nodiscard]] Histogram& histogram(const std::string& name);

  /// Serialize every instrument, grouped by kind, names sorted — the
  /// stable order makes metric dumps diffable across runs.
  void dump(trace::JsonWriter& json) const;
  /// dump() to a fresh JSON file (one top-level object); returns whether
  /// the file was published.
  bool dump_to_file(const std::string& path) const;

  /// Checkpoint every instrument by (sorted) name. Names starting with
  /// "harness.ckpt." are excluded: those meter the checkpoint machinery
  /// itself and are reconstructed from checkpoint-file headers on restore.
  /// Loading restores by name; unknown names are (re-)registered, so
  /// restore works whether or not the instrumentation sites have run yet.
  void checkpoint(core::ckpt::Io& io);

 private:
  mutable std::mutex mu_;
  std::map<std::string, Counter*> counters_;
  std::map<std::string, Gauge*> gauges_;
  std::map<std::string, Histogram*> histograms_;
  std::deque<Counter> counter_store_;
  std::deque<Gauge> gauge_store_;
  std::deque<Histogram> histogram_store_;
};

/// The well-known instruments the built-in instrumentation sites feed
/// (net::Link, net::Queue, transport::TcpSender, mptcp::MptcpConnection,
/// workload::FlowManager, faults::FaultController). Pre-resolved references
/// so a hot-path site never pays a name lookup.
struct SimMetrics {
  explicit SimMetrics(MetricsRegistry& registry);

  MetricsRegistry& registry;

  Counter& packets_delivered;  ///< link-level sink handoffs
  Counter& packets_dropped;    ///< all causes (queue/admin/fault/corrupt)
  Counter& packets_impaired;   ///< gray-failure effects applied (delay/reorder/dup/overmark)
  Counter& ecn_marks;          ///< CE marks applied by queues
  Counter& retransmissions;
  Counter& timeouts;           ///< sender RTO firings
  Counter& reinjections;       ///< MPTCP opportunistic reinjection batches
  Counter& subflow_deaths;
  Counter& fault_events;       ///< fault-plan events applied
  Counter& switch_forwarded;   ///< packets forwarded by switches
  Counter& switch_unroutable;  ///< packets with no usable output port
  Counter& route_reroutes;     ///< converged routing-table liveness changes
  Counter& route_collisions;   ///< hash collisions while an idle port existed
  Counter& flowlet_repaths;    ///< flowlet idle-gap path changes
  Counter& path_rehomes;       ///< MPTCP subflows re-homed onto a new path

  Histogram& fct_us;        ///< completion time of finished flows, µs
  Histogram& fct_slowdown_milli;  ///< FCT slowdown x1000 (empirical workloads)
  Histogram& queue_depth;   ///< sampled instantaneous queue length, packets
  Histogram& mark_runs;     ///< consecutive CE marks per queue before a gap
};

}  // namespace xmp::obs
