// Figure 1: four flows competing for a 1 Gbps bottleneck (RTT ~225 us, no
// queuing), flows started/stopped at fixed intervals. Compares DCTCP's
// proportional reduction against a constant-factor ("halving", beta = 2)
// reduction at marking thresholds K = 10 and K = 20.
//
// Paper's observations to reproduce:
//  (a,b) DCTCP can converge to an UNFAIR allocation after flow churn
//        (global synchronization before convergence completes);
//  (c,d) constant-factor halving with K chosen per Eq. 1 stays fair and
//        still achieves (near-)full utilization.
//
// Prints configs/scenarios/fig1.wl, run on core::run_experiment.
//
// Usage: bench_fig1_convergence [--interval=2] [--bin=0.5] [--series]

#include "common.hpp"

using namespace xmp;

int main(int argc, char** argv) {
  const cli::Args args{argc, argv};
  bool ok = true;
  const double interval = cli::flag_d(args, "interval", 2.0, 0.01, 3600, ok);
  const double bin = cli::flag_d(args, "bin", 0.5, 0.001, 3600, ok);
  const bool series = args.has("series");
  if (!ok || !args.finish()) return 2;

  bench::print_banner("bench_fig1_convergence",
                      "Figure 1 (fairness/convergence of DCTCP vs constant-factor halving)");
  std::printf("interval between flow churn events: %.1fs (paper: 5s)\n\n", interval);

  const auto T = sim::Time::seconds(interval);
  const auto B = sim::Time::seconds(bin);
  const auto spec = bench::scenario("fig1.wl", T, bench::sample_grid({B, T}));
  const struct {
    const char* name;
    bool dctcp;
    int k;
  } cases[] = {
      {"(a) DCTCP,        K=10", true, 10},
      {"(b) DCTCP,        K=20", true, 20},
      {"(c) Halving cwnd, K=10", false, 10},
      {"(d) Halving cwnd, K=20", false, 20},
  };
  std::vector<core::ExperimentConfig> grid;
  for (const auto& c : cases) {
    grid.push_back(bench::testbed_run(spec, 2, c.k, T * 7));  // beta 2: "halving cwnd"
    grid.back().scheme.kind =
        c.dctcp ? workload::SchemeSpec::Kind::Dctcp : workload::SchemeSpec::Kind::Bos;
  }
  const auto results = bench::run_grid(grid, 0, [&](std::size_t i) { return cases[i].name; });

  // Utilization + fairness in the all-four-active window [3T, 4T]. Series
  // columns: flow f's segments, then the bottleneck's busy ns.
  std::printf("%-26s %18s %18s\n", "case", "Jain(4 flows)", "bottleneck util");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& from = bench::row_at(results[i].series, T * 3);
    const auto& to = bench::row_at(results[i].series, T * 4);
    std::vector<double> shares;
    for (std::size_t f = 0; f < 4; ++f) shares.push_back(static_cast<double>(to[f] - from[f]));
    const double util = sim::Time::nanoseconds(to[4] - from[4]).sec() / (T * 4 - T * 3).sec();
    std::printf("%-26s %18.3f %18.3f\n", cases[i].name, stats::jain_index(shares), util);
  }
  std::printf("\npaper shape: halving stays fair (Jain ~1) at both K; DCTCP may\n"
              "converge unfairly after churn; utilization stays high for K=10,20\n"
              "since K >= BDP/(beta-1) (Eq. 1; BDP ~ 19 pkts).\n");

  // The figure itself: per-flow normalized rate over time. The numeric
  // table version is behind --series.
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::vector<bench::RateSeries> rates;
    for (std::size_t f = 0; f < 4; ++f) {
      rates.push_back(
          bench::rate_series("Flow" + std::to_string(f + 1), results[i].series, f, B));
    }
    std::printf("\n--- %s ---\n", cases[i].name);
    if (series) bench::print_rate_series(rates, 1e9);
    bench::print_rate_chart(rates, 1e9);
  }
  return 0;
}
