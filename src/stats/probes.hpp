#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/link.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace xmp::stats {

/// Aggregate of the per-cause Link drop counters over a set of links —
/// the fleet-wide view of where packets died during a (possibly faulty)
/// run. `offered == delivered + total_drops()` only once the network has
/// drained; mid-run the difference is packets queued or in flight.
struct DropBreakdown {
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t queue = 0;       ///< egress queue overflow
  std::uint64_t admin_down = 0;  ///< link administratively down
  std::uint64_t fault = 0;       ///< injected loss process
  std::uint64_t corrupt = 0;     ///< corrupted in flight, discarded at sink

  // Gray-failure impairments (not drops: the packets lived on).
  std::uint64_t duplicated = 0;  ///< clones manufactured by Duplicate
  std::uint64_t delayed = 0;     ///< packets parked by Delay/Reorder holds
  std::uint64_t overmarked = 0;  ///< forced CE marks (EcnOvermark)

  [[nodiscard]] std::uint64_t total_drops() const {
    return queue + admin_down + fault + corrupt;
  }

  void add(const net::Link& l);
};

/// Sum the drop counters of every given link / every link of the network.
[[nodiscard]] DropBreakdown collect_drops(const std::vector<net::Link*>& links);
[[nodiscard]] DropBreakdown collect_drops(const net::Network& net);

/// Periodically differentiates a cumulative counter into a per-interval
/// rate series (the "Normalized Rate" time series of Figures 1/4/6/7).
class RateProbe {
 public:
  /// `cumulative` returns a monotone counter (e.g. delivered bytes).
  RateProbe(sim::Scheduler& sched, sim::Time interval, std::function<double()> cumulative);
  ~RateProbe();

  RateProbe(const RateProbe&) = delete;
  RateProbe& operator=(const RateProbe&) = delete;

  void start();
  void stop();

  /// Rates per interval, in counter-units per second.
  [[nodiscard]] const std::vector<double>& rates() const { return rates_; }
  /// End timestamp of each interval.
  [[nodiscard]] const std::vector<sim::Time>& timestamps() const { return times_; }
  [[nodiscard]] sim::Time interval() const { return interval_; }

 private:
  void tick();

  sim::Scheduler& sched_;
  sim::Time interval_;
  std::function<double()> cumulative_;
  double last_value_ = 0.0;
  sim::EventId timer_ = sim::kInvalidEventId;
  std::vector<double> rates_;
  std::vector<sim::Time> times_;
};

/// Periodically samples an instantaneous gauge (queue occupancy, srtt, ...).
class GaugeProbe {
 public:
  GaugeProbe(sim::Scheduler& sched, sim::Time interval, std::function<double()> gauge);
  ~GaugeProbe();

  GaugeProbe(const GaugeProbe&) = delete;
  GaugeProbe& operator=(const GaugeProbe&) = delete;

  void start();
  void stop();

  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

  /// Checkpoint the sample series and the pending tick timer's key.
  /// Loading expects a probe that has NOT been start()ed; it re-arms the
  /// tick under its original (time, sequence) key.
  void checkpoint(core::ckpt::Io& io);

 private:
  void tick();

  sim::Scheduler& sched_;
  sim::Time interval_;
  std::function<double()> gauge_;
  sim::EventId timer_ = sim::kInvalidEventId;
  std::vector<double> samples_;
};

/// Measures per-link utilization over a time window: snapshot busy time at
/// open(), compute busy-fraction at close().
class UtilizationWindow {
 public:
  explicit UtilizationWindow(sim::Scheduler& sched) : sched_{sched} {}

  /// Begin the window over the given links.
  void open(const std::vector<net::Link*>& links);

  /// End the window; returns one utilization value in [0,1] per link.
  [[nodiscard]] std::vector<double> close() const;

  /// Checkpoint the window anchor. Loading replaces open(): the caller
  /// passes the same link set (same order) as the saved run's open().
  void checkpoint(core::ckpt::Io& io, const std::vector<net::Link*>& links);

 private:
  sim::Scheduler& sched_;
  std::vector<net::Link*> links_;
  std::vector<sim::Time> busy_at_open_;
  sim::Time opened_at_ = sim::Time::zero();
};

}  // namespace xmp::stats
