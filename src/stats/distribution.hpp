#pragma once

#include <cstddef>
#include <vector>

#include "core/checkpoint.hpp"

namespace xmp::stats {

/// Sample accumulator with percentile/CDF queries (used for goodput, RTT,
/// completion-time and utilization distributions).
class Distribution {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// p in [0, 100]; nearest-rank on the sorted samples.
  [[nodiscard]] double percentile(double p) const;

  /// Fraction of samples <= x.
  [[nodiscard]] double cdf_at(double x) const;

  /// `n` evenly spaced (value, cumulative fraction) points for plotting.
  [[nodiscard]] std::vector<std::pair<double, double>> cdf_points(std::size_t n) const;

  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

  /// Checkpoint the raw samples (exact double bits, insertion order).
  void checkpoint(core::ckpt::Io& io) {
    io.seq(samples_, [&](double& x) { io.f64(x); });
    if (io.loading()) sorted_ = false;
  }

 private:
  void ensure_sorted() const;

  std::vector<double> samples_;
  mutable std::vector<double> sorted_samples_;
  mutable bool sorted_ = false;
};

/// Jain's fairness index over a set of rates: (Σx)² / (n·Σx²); 1 = fair.
[[nodiscard]] double jain_index(const std::vector<double>& xs);

}  // namespace xmp::stats
