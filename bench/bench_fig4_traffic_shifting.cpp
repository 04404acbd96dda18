// Figure 4: traffic shifting on the two-path testbed (paper Fig. 3a).
//
// Flow 1 (single path via DN1), Flow 2 (two subflows via DN1/DN2) and
// Flow 3 (single path via DN2) start together. Two background flows run
// on DN1 during [t1, t2) and on DN2 during [t2, t3). XMP must shift
// Flow 2's traffic from the congested path to the other one, and back;
// beta = 6 shifts more sluggishly than beta = 4 (paper's observation).
//
// Testbed parameters follow §4: 300 Mbps bottlenecks, RTT ~1.8 ms
// (BDP ~45 packets), K = 15, queue 100. Prints
// configs/scenarios/fig4.wl, run on core::run_experiment.
//
// Usage: bench_fig4_traffic_shifting [--phase=4] [--bin=0.5] [--series]

#include "common.hpp"

using namespace xmp;

int main(int argc, char** argv) {
  const cli::Args args{argc, argv};
  bool ok = true;
  const double phase = cli::flag_d(args, "phase", 4.0, 0.01, 3600, ok);
  const double bin = cli::flag_d(args, "bin", 0.5, 0.001, 3600, ok);
  const bool series = args.has("series");
  if (!ok || !args.finish()) return 2;

  bench::print_banner("bench_fig4_traffic_shifting",
                      "Figure 4 (XMP shifting Flow 2 between DN1/DN2 under background load)");
  std::printf("phase length: %.1fs (paper: 10s); 300 Mbps bottlenecks, K=15, RTT~1.8ms\n\n",
              phase);

  const auto T = sim::Time::seconds(phase);
  const auto B = sim::Time::seconds(bin);
  const auto spec = bench::scenario("fig4.wl", T, bench::sample_grid({B, T}));
  const auto bottleneck = static_cast<double>(spec->testbed.bottlenecks[0].rate_bps);
  const int betas[] = {4, 6};
  std::vector<core::ExperimentConfig> grid;
  for (const int beta : betas) grid.push_back(bench::testbed_run(spec, beta, 15, T * 4));
  const auto results =
      bench::run_grid(grid, 0, [&](std::size_t i) { return "beta=" + std::to_string(betas[i]); });

  // Flow 2's subflows are series columns 1 and 2 (Flow 1 has column 0).
  for (std::size_t i = 0; i < results.size(); ++i) {
    // Average normalized rate per phase: 0 = no background, 1 = background
    // on DN1, 2 = background on DN2.
    double sf1[3];
    double sf2[3];
    for (int ph = 0; ph < 3; ++ph) {
      const auto& from = bench::row_at(results[i].series, T * ph);
      const auto& to = bench::row_at(results[i].series, T * (ph + 1));
      const double span = T.sec();
      sf1[ph] = static_cast<double>(to[1] - from[1]) * net::kMssBytes * 8 / span / bottleneck;
      sf2[ph] = static_cast<double>(to[2] - from[2]) * net::kMssBytes * 8 / span / bottleneck;
    }
    std::printf("beta=%d  normalized avg rate of Flow 2's subflows per phase:\n", betas[i]);
    std::printf("  %-28s %10s %10s\n", "phase", "Flow2-1", "Flow2-2");
    std::printf("  %-28s %10.3f %10.3f\n", "no background", sf1[0], sf2[0]);
    std::printf("  %-28s %10.3f %10.3f\n", "background on DN1", sf1[1], sf2[1]);
    std::printf("  %-28s %10.3f %10.3f\n", "background on DN2", sf1[2], sf2[2]);
    const double shift1 = sf1[0] - sf1[1];  // subflow 1 sheds under bg on DN1
    const double comp1 = sf2[1] - sf2[0];   // subflow 2 compensates
    std::printf("  shed on congested path: %.3f, compensation on sibling: %.3f\n\n", shift1,
                comp1);
  }
  std::printf("paper shape: subflow on the congested path sheds rate, the sibling\n"
              "compensates; beta=6 shifts less effectively than beta=4 (Fig. 4b).\n");

  // The figure itself (numeric table behind --series).
  for (std::size_t i = 0; i < results.size(); ++i) {
    const std::vector<bench::RateSeries> rates = {
        bench::rate_series("Flow2-1", results[i].series, 1, B),
        bench::rate_series("Flow2-2", results[i].series, 2, B)};
    std::printf("\n--- beta=%d subflow rates over time ---\n", betas[i]);
    if (series) bench::print_rate_series(rates, bottleneck);
    bench::print_rate_chart(rates, bottleneck);
  }
  return 0;
}
