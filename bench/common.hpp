#pragma once

// Shared helpers for the paper-reproduction bench binaries. Flags go
// through cli::Args (core/cli.hpp), like every other binary's.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/cli.hpp"
#include "core/xmp.hpp"

namespace xmp::bench {

inline void print_banner(const char* experiment, const char* paper_artifact) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("reproduces: %s\n", paper_artifact);
  std::printf("==============================================================\n");
}

/// Run every config of `grid` on a core::WorkerPool; the results are
/// indexed like the grid and bit-identical to a serial loop, because each
/// experiment owns its whole world. `jobs` is the pool width (0 = hardware
/// cores), never wider than the grid. Each finished config prints a stderr
/// progress line naming it by `label(i)`.
inline std::vector<core::ExperimentResults> run_grid(
    const std::vector<core::ExperimentConfig>& grid, std::int64_t jobs,
    const std::function<std::string(std::size_t)>& label) {
  const std::int64_t cells = std::max<std::int64_t>(1, static_cast<std::int64_t>(grid.size()));
  const std::int64_t hw = std::max(1u, std::thread::hardware_concurrency());
  core::WorkerPool pool{static_cast<unsigned>(std::min(jobs > 0 ? jobs : hw, cells))};
  std::fprintf(stderr, "running %zu cells on %u workers\n", grid.size(), pool.width());
  std::vector<core::ExperimentResults> results(grid.size());
  std::mutex mu;  // guards done and stderr
  std::size_t done = 0;
  pool.run(static_cast<int>(grid.size()), [&](int s) {
    const auto i = static_cast<std::size_t>(s);
    results[i] = core::run_experiment(grid[i]);
    const std::lock_guard<std::mutex> lock{mu};
    std::fprintf(stderr, "  [done %2zu/%zu] %s\n", ++done, grid.size(), label(i).c_str());
  });
  return results;
}

/// One probed rate series, kept after the world that probed it is gone.
struct RateSeries {
  std::string name;
  std::vector<double> rates;     ///< per interval, in segments per second
  std::vector<sim::Time> times;  ///< end of each interval
};

inline RateSeries series_of(std::string name, const stats::RateProbe& p) {
  return RateSeries{std::move(name), p.rates(), p.timestamps()};
}

/// Print one normalized-rate time series table: one row per sample time,
/// one column per series.
inline void print_rate_series(const std::vector<RateSeries>& series, double normalize_to_bps) {
  std::printf("%8s", "t(s)");
  for (const auto& s : series) std::printf(" %10s", s.name.c_str());
  std::printf("\n");
  std::size_t rows = 0;
  for (const auto& s : series) rows = std::max(rows, s.rates.size());
  for (std::size_t i = 0; i < rows; ++i) {
    if (series[0].times.size() <= i) break;
    std::printf("%8.1f", series[0].times[i].sec());
    for (const auto& s : series) {
      if (i < s.rates.size()) {
        const double bps = s.rates[i] * net::kMssBytes * 8;
        std::printf(" %10.3f", bps / normalize_to_bps);
      } else {
        std::printf(" %10s", "-");
      }
    }
    std::printf("\n");
  }
}

/// Render rate series as an ASCII "figure" (normalized rate vs time).
inline void print_rate_chart(const std::vector<RateSeries>& series, double normalize_to_bps) {
  static const char glyphs[] = "*o+x#@%&";
  std::vector<stats::AsciiChart::Series> chart;
  for (std::size_t i = 0; i < series.size(); ++i) {
    stats::AsciiChart::Series s;
    s.name = series[i].name;
    s.glyph = glyphs[i % (sizeof glyphs - 1)];
    for (double r : series[i].rates) s.values.push_back(r * net::kMssBytes * 8 / normalize_to_bps);
    chart.push_back(std::move(s));
  }
  stats::AsciiChart::Options opts;
  opts.y_label = "normalized rate";
  std::fputs(stats::AsciiChart::render(chart, opts).c_str(), stdout);
}

/// Build a RateProbe over a sender's delivered segments.
inline std::unique_ptr<stats::RateProbe> rate_probe(sim::Scheduler& sched, sim::Time interval,
                                                    const transport::TcpSender& s) {
  return std::make_unique<stats::RateProbe>(
      sched, interval, [&s] { return static_cast<double>(s.delivered_segments()); });
}

}  // namespace xmp::bench
