#pragma once

// Shared helpers for the paper-reproduction bench binaries. Flags go
// through cli::Args (core/cli.hpp), like every other binary's.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <numeric>
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

/// configs/scenarios/<file> with its time unit and sample cadence set (a
/// testbed figure, DESIGN.md §13). A file that does not parse, or a cadence
/// under 1 ms (time flags with no coarser common grid), ends the bench with
/// a diagnostic and exit 2.
inline std::shared_ptr<const workload::WorkloadSpec> scenario(const char* file, sim::Time unit,
                                                               sim::Time sample) {
  auto spec = std::make_shared<workload::WorkloadSpec>();
  std::string err;
  if (!workload::WorkloadSpec::parse_file(std::string{XMP_SCENARIO_DIR} + "/" + file, *spec,
                                          &err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    std::exit(2);
  }
  if (sample < sim::Time::milliseconds(1)) {
    std::fprintf(stderr, "the time flags share no sample grid of 1 ms or more\n");
    std::exit(2);
  }
  spec->unit = unit;
  spec->sample = sample;
  return spec;
}

/// One run of a testbed scenario until `horizon`, with the paper's
/// bottleneck queue (100 packets) marking at `mark_k` and β = `beta`.
inline core::ExperimentConfig testbed_run(std::shared_ptr<const workload::WorkloadSpec> spec,
                                          int beta, int mark_k, sim::Time horizon) {
  core::ExperimentConfig cfg;
  cfg.pattern = core::Pattern::Workload;
  cfg.workload = std::move(spec);
  cfg.scheme.beta = beta;
  cfg.queue_capacity = 100;
  cfg.mark_threshold = static_cast<std::size_t>(mark_k);
  cfg.duration = horizon;
  return cfg;
}

/// The coarsest sample cadence whose grid holds every one of `times`.
inline sim::Time sample_grid(std::initializer_list<sim::Time> times) {
  std::int64_t g = 0;
  for (const sim::Time t : times) g = std::gcd(g, t.ns());
  return sim::Time::nanoseconds(g);
}

/// The series row sampled at `t`, which the scenario's cadence must hold.
inline const std::vector<std::int64_t>& row_at(const core::ExperimentResults::Series& s,
                                               sim::Time t) {
  const auto it = std::lower_bound(s.t_ns.begin(), s.t_ns.end(), t.ns());
  if (it == s.t_ns.end() || *it != t.ns()) {
    std::fprintf(stderr, "series has no sample at %.9fs\n", t.sec());
    std::exit(1);
  }
  return s.rows[static_cast<std::size_t>(it - s.t_ns.begin())];
}

/// One rate series, in segments per second per `bin`.
struct RateSeries {
  std::string name;
  std::vector<double> rates;     ///< per interval, in segments per second
  std::vector<sim::Time> times;  ///< end of each interval
};

/// Counter `col` of `s` differentiated over every `bin` (a multiple of the
/// sample cadence), with stats::RateProbe's arithmetic.
inline RateSeries rate_series(std::string name, const core::ExperimentResults::Series& s,
                              std::size_t col, sim::Time bin) {
  RateSeries r{std::move(name), {}, {}};
  double last = 0.0;
  for (std::size_t i = 1; i < s.rows.size(); ++i) {
    if (s.t_ns[i] % bin.ns() != 0) continue;
    const auto now = static_cast<double>(s.rows[i][col]);
    r.rates.push_back((now - last) / bin.sec());
    r.times.push_back(sim::Time::nanoseconds(s.t_ns[i]));
    last = now;
  }
  return r;
}

/// Print one normalized-rate time series table: one row per sample time,
/// one column per series (all of one run, so of one length).
inline void print_rate_series(const std::vector<RateSeries>& series, double normalize_to_bps) {
  std::printf("%8s", "t(s)");
  for (const auto& s : series) std::printf(" %10s", s.name.c_str());
  std::printf("\n");
  for (std::size_t i = 0; i < series[0].times.size(); ++i) {
    std::printf("%8.1f", series[0].times[i].sec());
    for (const auto& s : series) {
      const double bps = s.rates[i] * net::kMssBytes * 8;
      std::printf(" %10.3f", bps / normalize_to_bps);
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

}  // namespace xmp::bench
