#include "stats/ascii_chart.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace xmp::stats {
namespace {

/// Resample `values` to exactly `cols` points (bucket means).
std::vector<double> fit_width(const std::vector<double>& values, int cols) {
  std::vector<double> out(static_cast<std::size_t>(cols),
                          std::numeric_limits<double>::quiet_NaN());
  if (values.empty()) return out;
  const auto n = values.size();
  for (int c = 0; c < cols; ++c) {
    const std::size_t lo = static_cast<std::size_t>(c) * n / static_cast<std::size_t>(cols);
    std::size_t hi = static_cast<std::size_t>(c + 1) * n / static_cast<std::size_t>(cols);
    if (hi <= lo) hi = lo + 1;
    if (lo >= n) break;
    double sum = 0.0;
    std::size_t cnt = 0;
    for (std::size_t i = lo; i < std::min(hi, n); ++i) {
      sum += values[i];
      ++cnt;
    }
    if (cnt > 0) out[static_cast<std::size_t>(c)] = sum / static_cast<double>(cnt);
  }
  return out;
}

}  // namespace

std::string AsciiChart::render(const std::vector<Series>& series, const Options& opts) {
  const int rows = std::max(opts.rows, 2);
  const int cols = std::max(opts.cols, 8);
  const double span = std::max(opts.y_max - opts.y_min, 1e-12);

  std::vector<std::string> grid(static_cast<std::size_t>(rows),
                                std::string(static_cast<std::size_t>(cols), ' '));
  for (const Series& s : series) {
    const auto fitted = fit_width(s.values, cols);
    for (int c = 0; c < cols; ++c) {
      const double v = fitted[static_cast<std::size_t>(c)];
      if (std::isnan(v)) continue;
      const double norm = std::clamp((v - opts.y_min) / span, 0.0, 1.0);
      const int r = rows - 1 - static_cast<int>(std::lround(norm * (rows - 1)));
      grid[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] = s.glyph;
    }
  }

  std::string out;
  if (!opts.y_label.empty()) out += opts.y_label + "\n";
  char label[32];
  for (int r = 0; r < rows; ++r) {
    const double y = opts.y_max - span * r / (rows - 1);
    std::snprintf(label, sizeof label, "%8.2f |", y);
    out += label;
    out += grid[static_cast<std::size_t>(r)];
    out += '\n';
  }
  out += std::string(9, ' ') + '+' + std::string(static_cast<std::size_t>(cols), '-') + "> t\n";
  out += "  legend:";
  for (const Series& s : series) {
    out += "  ";
    out += s.glyph;
    out += "=" + s.name;
  }
  out += '\n';
  return out;
}

}  // namespace xmp::stats
