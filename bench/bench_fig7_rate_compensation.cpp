// Figure 7: rate compensation in the ring of five bottlenecks (paper
// Fig. 5). Bottleneck capacities 0.8/1.2/2/1.5/0.5 Gbps; flows 1..5 each
// run two subflows on consecutive bottlenecks (flow i on L_i and
// L_{i+1 mod 5}), started one by one. Four background flows are then added
// to L3 one by one, making it increasingly congested, then removed; at the
// end L3 is closed entirely.
//
// Expected shape (paper §5.1): Flow 2-2 and Flow 3-1 (on L3) shed rate as
// background load grows; their siblings Flow 2-1 / Flow 3-2 compensate,
// which in turn depresses Flow 1-2 and Flow 4-2 — the "attenuated
// dominos". Flow 1-1 / Flow 5-* stay nearly unchanged. When L3 closes,
// the L3 subflows collapse to zero and the siblings jump.
//
// Prints configs/scenarios/fig7.wl, its three (beta, K) cases run in
// parallel on core::run_experiment.
//
// Usage: bench_fig7_rate_compensation [--unit=0.5]

#include "common.hpp"

using namespace xmp;

int main(int argc, char** argv) {
  const cli::Args args{argc, argv};
  bool ok = true;
  const double unit = cli::flag_d(args, "unit", 0.5, 0.01, 3600, ok);
  if (!ok || !args.finish()) return 2;

  bench::print_banner(
      "bench_fig7_rate_compensation",
      "Figure 7 (attenuated-dominos rate compensation in the 5-bottleneck ring)");
  std::printf("time unit: %.1fs (paper: 5s); caps 0.8/1.2/2/1.5/0.5 Gbps; L3 congested\n"
              "by 4 background flows then closed at 13 units.\n\n",
              unit);

  const auto U = sim::Time::seconds(unit);
  const auto spec = bench::scenario("fig7.wl", U, U);
  const struct {
    int beta;
    int k;
  } cases[] = {{4, 20}, {5, 15}, {6, 10}};
  std::vector<core::ExperimentConfig> grid;
  for (const auto& c : cases) {
    grid.push_back(bench::testbed_run(spec, c.beta, c.k, U * 15));
    grid.back().fault_plan.link_down(topo::bottleneck_link_id(2), U * 13);  // L3
  }
  const auto results = bench::run_grid(grid, 0, [&](std::size_t i) {
    return "beta=" + std::to_string(cases[i].beta) + ", K=" + std::to_string(cases[i].k);
  });

  for (std::size_t n = 0; n < results.size(); ++n) {
    // Per-unit average subflow rates, normalized to the subflow's own
    // bottleneck capacity (as in the paper's normalized plots). Flow i's
    // subflow j is series column 2i + j.
    struct Sample {
      double rate[5][2];
    };
    const auto& rows = results[n].series.rows;
    std::vector<Sample> samples(rows.size() - 1);
    for (std::size_t t = 1; t < rows.size(); ++t) {
      for (std::size_t c = 0; c < 10; ++c) {
        const auto cap = spec->testbed.bottlenecks[(c / 2 + c % 2) % 5].rate_bps;
        samples[t - 1].rate[c / 2][c % 2] = static_cast<double>(rows[t][c] - rows[t - 1][c]) *
                                            net::kMssBytes * 8 / U.sec() /
                                            static_cast<double>(cap);
      }
    }

    std::printf("--- beta=%d, K=%d: normalized avg subflow rates per unit ---\n",
                cases[n].beta, cases[n].k);
    std::printf("%5s", "t");
    for (int i = 1; i <= 5; ++i) std::printf("  F%d-1  F%d-2", i, i);
    std::printf("\n");
    for (std::size_t t = 0; t < samples.size(); ++t) {
      std::printf("%5zu", t + 1);
      for (int i = 0; i < 5; ++i) {
        std::printf(" %5.2f %5.2f", samples[t].rate[i][0], samples[t].rate[i][1]);
      }
      std::printf("\n");
    }

    // Shape checks: compare the quiet phase (t=5U, all flows up, no bg)
    // with the fully-loaded phase (t=9U, 4 bg flows) and after closure.
    const Sample& quiet = samples[4];
    const Sample& loaded = samples[8];
    const Sample& closed = samples.back();
    std::printf("shape: F2-2 %5.2f -> %5.2f (loaded) -> %5.2f (L3 closed)\n",
                quiet.rate[1][1], loaded.rate[1][1], closed.rate[1][1]);
    std::printf("       F3-1 %5.2f -> %5.2f           -> %5.2f\n", quiet.rate[2][0],
                loaded.rate[2][0], closed.rate[2][0]);
    std::printf("       F2-1 %5.2f -> %5.2f (compensates) F3-2 %5.2f -> %5.2f\n\n",
                quiet.rate[1][0], loaded.rate[1][0], quiet.rate[2][1], loaded.rate[2][1]);
  }
  std::printf("paper shape: rates on L3 fall with load and hit 0 at closure; siblings\n"
              "rise (concave/convex mirror pairs); F1-1 and F5-x barely move.\n");
  return 0;
}
