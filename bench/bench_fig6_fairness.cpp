// Figure 6: fairness on one shared 300 Mbps bottleneck (paper Fig. 3b).
//
// Flow 1 is XMP with three subflows established at 0, t1, t2; Flow 2 is
// XMP with two subflows (both at t3); Flows 3 and 4 are single-subflow,
// started at 0 and t2/2 and stopped at t4. All subflows share the SAME
// bottleneck, so coupling is what keeps per-FLOW shares equal regardless
// of subflow count: with beta=4 all four flows share fairly; beta=6
// degrades fairness (paper Fig. 6b).
//
// Prints configs/scenarios/fig6.wl, run on core::run_experiment.
//
// Usage: bench_fig6_fairness [--unit=2] [--bin=0.5] [--series]

#include "common.hpp"

using namespace xmp;

int main(int argc, char** argv) {
  const cli::Args args{argc, argv};
  bool ok = true;
  const double unit = cli::flag_d(args, "unit", 2.0, 0.01, 3600, ok);
  const double bin = cli::flag_d(args, "bin", 0.5, 0.001, 3600, ok);
  const bool series = args.has("series");
  if (!ok || !args.finish()) return 2;

  bench::print_banner("bench_fig6_fairness",
                      "Figure 6 (per-flow fairness irrespective of subflow count)");
  std::printf("time unit: %.1fs (paper: 5s); 300 Mbps bottleneck, K=15, RTT~1.8ms\n\n", unit);
  std::printf("%-8s %10s %10s %10s %10s %10s\n", "case", "Flow1(3sf)", "Flow2(2sf)", "Flow3",
              "Flow4", "Jain");

  // Measurement window: [4.2U, 5U) — all four flows active.
  const auto U = sim::Time::seconds(unit);
  const auto B = sim::Time::seconds(bin);
  const sim::Time wstart = U * 42 / 10;
  const sim::Time wend = U * 5;
  const auto spec = bench::scenario("fig6.wl", U,
                                    series ? bench::sample_grid({B, wstart, wend})
                                           : bench::sample_grid({wstart, wend}));
  const auto bottleneck = static_cast<double>(spec->testbed.bottlenecks[0].rate_bps);
  const int betas[] = {4, 6};
  std::vector<core::ExperimentConfig> grid;
  for (const int beta : betas) grid.push_back(bench::testbed_run(spec, beta, 15, U * 6));
  const auto results =
      bench::run_grid(grid, 0, [&](std::size_t i) { return "beta=" + std::to_string(betas[i]); });

  // Series columns: Flow 1's subflows 0-2, Flow 2's 3-4, Flow 3 5, Flow 4 6.
  const std::size_t first[5] = {0, 3, 5, 6, 7};
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& from = bench::row_at(results[i].series, wstart);
    const auto& to = bench::row_at(results[i].series, wend);
    const double span = (wend - wstart).sec();
    std::vector<double> share;
    for (int f = 0; f < 4; ++f) {
      std::int64_t delivered = 0;
      for (std::size_t c = first[f]; c < first[f + 1]; ++c) delivered += to[c] - from[c];
      share.push_back(static_cast<double>(delivered) * net::kMssBytes * 8 / span / bottleneck);
    }
    std::printf("beta=%-3d %10.3f %10.3f %10.3f %10.3f %10.3f\n", betas[i], share[0], share[1],
                share[2], share[3], stats::jain_index(share));
  }
  std::printf("\npaper shape: with beta=4 all flows get ~1/4 of the link regardless of\n"
              "subflow count; fairness declines with beta=6 (Fig. 6b).\n");

  if (series) {
    const char* names[7] = {"Flow1-1", "Flow1-2", "Flow1-3", "Flow2-1", "Flow2-2", "Flow3",
                            "Flow4"};
    for (std::size_t i = 0; i < results.size(); ++i) {
      std::vector<bench::RateSeries> rates;
      for (std::size_t c = 0; c < 7; ++c) {
        rates.push_back(bench::rate_series(names[c], results[i].series, c, B));
      }
      std::printf("\n--- beta=%d per-subflow rate series ---\n", betas[i]);
      bench::print_rate_series(rates, bottleneck);
    }
  }
  return 0;
}
