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

/// Print one normalized-rate time series table: one row per sample time,
/// one column per series.
inline void print_rate_series(const std::vector<std::string>& names,
                              const std::vector<const stats::RateProbe*>& probes,
                              double normalize_to_bps) {
  std::printf("%8s", "t(s)");
  for (const auto& n : names) std::printf(" %10s", n.c_str());
  std::printf("\n");
  std::size_t rows = 0;
  for (const auto* p : probes) rows = std::max(rows, p->rates().size());
  for (std::size_t i = 0; i < rows; ++i) {
    if (probes[0]->timestamps().size() <= i) break;
    std::printf("%8.1f", probes[0]->timestamps()[i].sec());
    for (const auto* p : probes) {
      if (i < p->rates().size()) {
        const double bps = p->rates()[i] * net::kMssBytes * 8;
        std::printf(" %10.3f", bps / normalize_to_bps);
      } else {
        std::printf(" %10s", "-");
      }
    }
    std::printf("\n");
  }
}

/// Render rate probes as an ASCII "figure" (normalized rate vs time).
inline void print_rate_chart(const std::vector<std::string>& names,
                             const std::vector<const stats::RateProbe*>& probes,
                             double normalize_to_bps) {
  static const char glyphs[] = "*o+x#@%&";
  std::vector<stats::AsciiChart::Series> series;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    stats::AsciiChart::Series s;
    s.name = names[i];
    s.glyph = glyphs[i % (sizeof glyphs - 1)];
    for (double r : probes[i]->rates()) s.values.push_back(r * net::kMssBytes * 8 / normalize_to_bps);
    series.push_back(std::move(s));
  }
  stats::AsciiChart::Options opts;
  opts.y_label = "normalized rate";
  std::fputs(stats::AsciiChart::render(series, opts).c_str(), stdout);
}

/// Build a RateProbe over a sender's delivered segments.
inline std::unique_ptr<stats::RateProbe> rate_probe(sim::Scheduler& sched, sim::Time interval,
                                                    const transport::TcpSender& s) {
  return std::make_unique<stats::RateProbe>(
      sched, interval, [&s] { return static_cast<double>(s.delivered_segments()); });
}

}  // namespace xmp::bench
