#pragma once

// Shared helpers for the paper-reproduction bench binaries. Flags go
// through cli::Args (core/cli.hpp), like every other binary's.

#include <cstdio>
#include <string>
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
