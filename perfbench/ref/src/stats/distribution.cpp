#include "stats/distribution.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace xmp::stats {

void Distribution::ensure_sorted() const {
  if (sorted_) return;
  sorted_samples_ = samples_;
  std::sort(sorted_samples_.begin(), sorted_samples_.end());
  sorted_ = true;
}

double Distribution::mean() const {
  if (samples_.empty()) return 0.0;
  return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
         static_cast<double>(samples_.size());
}

double Distribution::min() const {
  ensure_sorted();
  return sorted_samples_.empty() ? 0.0 : sorted_samples_.front();
}

double Distribution::max() const {
  ensure_sorted();
  return sorted_samples_.empty() ? 0.0 : sorted_samples_.back();
}

double Distribution::percentile(double p) const {
  assert(p >= 0.0 && p <= 100.0);
  ensure_sorted();
  if (sorted_samples_.empty()) return 0.0;
  const auto n = sorted_samples_.size();
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  return sorted_samples_[std::min(idx, n - 1)];
}

double Distribution::cdf_at(double x) const {
  ensure_sorted();
  if (sorted_samples_.empty()) return 0.0;
  const auto it = std::upper_bound(sorted_samples_.begin(), sorted_samples_.end(), x);
  return static_cast<double>(it - sorted_samples_.begin()) /
         static_cast<double>(sorted_samples_.size());
}

std::vector<std::pair<double, double>> Distribution::cdf_points(std::size_t n) const {
  ensure_sorted();
  std::vector<std::pair<double, double>> pts;
  if (sorted_samples_.empty() || n == 0) return pts;
  pts.reserve(n);
  const auto count = sorted_samples_.size();
  for (std::size_t i = 1; i <= n; ++i) {
    const std::size_t idx = std::min(count - 1, i * count / n);
    pts.emplace_back(sorted_samples_[idx],
                     static_cast<double>(idx + 1) / static_cast<double>(count));
  }
  return pts;
}

double jain_index(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  double sq = 0.0;
  for (double x : xs) {
    sum += x;
    sq += x * x;
  }
  if (sq == 0.0) return 0.0;
  return sum * sum / (static_cast<double>(xs.size()) * sq);
}

}  // namespace xmp::stats
