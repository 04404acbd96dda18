#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "topo/host_pool.hpp"
#include "workload/flow_manager.hpp"

namespace xmp::workload {

/// Empirical flow-size distribution loaded from a `.cdf` file (DESIGN.md
/// §13). The file is a sequence of `<size_bytes> <cum_prob>` lines — the
/// convention used by the public websearch (DCTCP) and datamining (VL2)
/// distributions — and is sampled by inverse transform with linear
/// interpolation between points, so draws are continuous within each
/// segment and bit-identical for a fixed RNG stream.
class EmpiricalCdf {
 public:
  struct Point {
    double bytes = 0.0;  ///< flow size at this CDF point
    double cum = 0.0;    ///< P(size <= bytes), non-decreasing, last == 1
  };

  /// Parse a CDF file. Returns false and fills `error` with a one-line
  /// `path:line: message` diagnostic on any hostile input (non-numeric or
  /// truncated lines, NaN/inf, non-positive sizes, decreasing sizes,
  /// non-monotone or out-of-range probabilities, fewer than two points,
  /// last cumulative probability != 1).
  static bool parse_file(const std::string& path, EmpiricalCdf& out, std::string* error);
  /// Same, from an already-open stream; `name` labels diagnostics.
  static bool parse(std::istream& in, const std::string& name, EmpiricalCdf& out,
                    std::string* error);

  /// Inverse-transform draw: u ~ U[0,1) mapped through the piecewise-linear
  /// inverse CDF. Always >= 1 byte. Exactly one uniform01() per call.
  [[nodiscard]] std::int64_t sample(sim::Rng& rng) const;

  /// Analytic mean of the piecewise-linear distribution (trapezoid over
  /// the inverse CDF) — used to convert offered load into an arrival rate
  /// without Monte-Carlo error.
  [[nodiscard]] double mean_bytes() const;

  [[nodiscard]] const std::vector<Point>& points() const { return points_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool empty() const { return points_.empty(); }

  /// Mix the parsed points into a config fingerprint accumulator so a
  /// checkpoint taken under one distribution cannot restore under another.
  void mix_fingerprint(std::uint64_t& h) const;

 private:
  std::vector<Point> points_;
  std::string name_;
};

/// Destination constraint for sampled (Poisson) flows in a workload file.
enum class WorkloadSpan : std::uint8_t {
  Any,        ///< any destination != source
  InterRack,  ///< destination in a different rack than the source
};

/// `x` units of `unit` as simulated time; a one-second unit gives
/// Time::seconds(x).
[[nodiscard]] inline sim::Time in_units(double x, sim::Time unit) {
  return sim::Time::seconds(x * unit.sec());
}

/// One explicit `flow` line of a workload file. Times are in units of the
/// file's `unit` directive (seconds by default).
struct ExplicitFlow {
  int src = 0;
  int dst = 0;
  std::int64_t bytes = 0;
  double start = 0.0;
  // --- a `topology pinned` line's own transport (DESIGN.md §13) ---
  std::optional<SchemeSpec::Kind> scheme;  ///< unset: the run's scheme
  int subflows = 1;
  std::vector<int> paths{0};    ///< bottleneck of subflow i is paths[i % size]
  std::vector<double> offsets;  ///< one start offset per subflow; empty = all at start
  double stop = -1.0;           ///< source uplink goes down here; negative = never
};

/// Open-loop empirical traffic generator (DESIGN.md §13): a global Poisson
/// arrival process at a configured offered load, flow sizes drawn from an
/// EmpiricalCdf, sources uniform over the workload's nodes and destinations
/// uniform subject to the span constraint, plus an optional deterministic
/// trace of explicit flows. Arrivals are open loop — they never wait for
/// completions — so flows unfinished at the horizon are *censored*, not
/// retried; the FCT collector accounts for them explicitly.
///
/// Mice (flows below `mice_threshold`) are issued as plain-TCP small flows,
/// matching the paper's mice semantics; everything else follows the
/// configured SchemeSpec. No completion callbacks are installed (open loop),
/// so checkpoint restore needs no CallbackTag re-binding — only the RNG,
/// the counters and the two pending timers below.
class EmpiricalTraffic {
 public:
  struct Config {
    const EmpiricalCdf* cdf = nullptr;  ///< null = trace-only workload
    double load = 0.0;                  ///< offered load per sender, (0, 1.2]
    std::int64_t line_rate_bps = 1'000'000'000;
    int nodes = 0;                      ///< senders/receivers are hosts [0, nodes)
    WorkloadSpan span = WorkloadSpan::Any;
    std::int64_t mice_threshold = 100'000;  ///< bytes; below = plain-TCP mouse
    /// Explicit flows, sorted by (start, file order). Pointer into the
    /// owning WorkloadSpec; must outlive the generator.
    const std::vector<ExplicitFlow>* trace = nullptr;
    sim::Time unit = sim::Time::seconds(1.0);  ///< of the explicit flows' starts
  };

  EmpiricalTraffic(sim::Scheduler& sched, topo::HostPool& topo, FlowManager& flows,
                   sim::Rng rng, const Config& cfg);

  /// Arm the Poisson process (first inter-arrival drawn immediately) and
  /// the explicit-flow walker. Fresh starts only — restores re-arm through
  /// checkpoint().
  void start();
  void stop();

  [[nodiscard]] std::uint64_t flows_issued() const { return poisson_issued_ + trace_issued_; }
  [[nodiscard]] std::uint64_t poisson_issued() const { return poisson_issued_; }
  [[nodiscard]] std::uint64_t trace_issued() const { return trace_issued_; }
  /// Aggregate Poisson arrival rate, flows/sec (0 for trace-only workloads).
  [[nodiscard]] double arrival_rate() const { return rate_; }

  /// Checkpoint the RNG, issue progress, trace cursor and pending timers
  /// (their event keys, so equal-timestamp FIFO order survives).
  void checkpoint(core::ckpt::Io& io);

 private:
  void on_arrival();
  void on_trace_due();
  void issue(int src, int dst, std::int64_t bytes);
  [[nodiscard]] int pick_destination(int src);

  sim::Scheduler& sched_;
  topo::HostPool& topo_;
  FlowManager& flows_;
  sim::Rng rng_;
  Config cfg_;
  double rate_ = 0.0;  ///< aggregate arrivals/sec
  bool stopped_ = false;
  std::uint64_t poisson_issued_ = 0;
  std::uint64_t trace_issued_ = 0;
  std::size_t trace_next_ = 0;  ///< first unissued entry of cfg_.trace
  sim::EventId arrival_timer_ = sim::kInvalidEventId;
  sim::EventId trace_timer_ = sim::kInvalidEventId;
};

}  // namespace xmp::workload
