// Figure 11: per-layer link utilization distributions (min / p10 / p50 /
// p90 / max over the links of each layer) under the three patterns, for
// DCTCP, LIA-4, XMP-2 and XMP-4.
//
// Expected shape: DCTCP's distribution is wide (long vertical lines) —
// single-path flows collide and leave other links idle; multipath schemes
// balance utilization (shorter lines), XMP ~10% above LIA on average.
//
// Usage: bench_fig11_utilization [--k=8] [--duration=0.4] [--seed=1] [--quick]

#include <map>

#include "common.hpp"

using namespace xmp;

int main(int argc, char** argv) {
  const cli::Args args{argc, argv};
  bool ok = true;
  const int k = cli::flag_k(args, 8, ok);
  const bool quick = args.has("quick");
  const double duration = cli::flag_d(args, "duration", quick ? 0.2 : 0.4, 1e-3, 3600, ok);
  const auto seed = static_cast<std::uint64_t>(cli::flag_i(args, "seed", 1, 0, INT64_MAX, ok));
  if (!ok || !args.finish()) return 2;

  bench::print_banner("bench_fig11_utilization",
                      "Figure 11 (link utilization distributions per layer)");

  struct SchemeRow {
    const char* name;
    workload::SchemeSpec::Kind kind;
    int subflows;
  };
  const SchemeRow schemes[] = {
      {"DCTCP", workload::SchemeSpec::Kind::Dctcp, 1},
      {"LIA-4", workload::SchemeSpec::Kind::Lia, 4},
      {"XMP-2", workload::SchemeSpec::Kind::Xmp, 2},
      {"XMP-4", workload::SchemeSpec::Kind::Xmp, 4},
  };
  const core::Pattern patterns[] = {core::Pattern::Permutation, core::Pattern::Random,
                                    core::Pattern::Incast};
  const topo::FatTree::Layer layers[] = {topo::FatTree::Layer::Core,
                                         topo::FatTree::Layer::Aggregation,
                                         topo::FatTree::Layer::Rack};

  for (const auto pattern : patterns) {
    std::printf("\n--- %s: link utilization per layer ---\n", core::pattern_name(pattern));
    std::printf("%-13s %-8s %7s %7s %7s %7s %7s %8s\n", "layer", "scheme", "min", "p10", "p50",
                "p90", "max", "spread");
    std::map<std::string, core::ExperimentResults> results;
    for (const auto& s : schemes) {
      core::ExperimentConfig cfg;
      cfg.scheme.kind = s.kind;
      cfg.scheme.subflows = s.subflows;
      cfg.pattern = pattern;
      cfg.fat_tree_k = k;
      cfg.duration = sim::Time::seconds(duration);
      cfg.permutation_rounds = 8;  // keep load up through the window
      cfg.seed = seed;
      if (quick) {
        cfg.perm_min_bytes /= 4;
        cfg.perm_max_bytes /= 4;
        cfg.rand_min_bytes /= 4;
        cfg.rand_max_bytes /= 4;
      }
      results[s.name] = core::run_experiment(cfg);
    }
    for (const auto layer : layers) {
      for (const auto& s : schemes) {
        const auto& d = results[s.name].utilization_by_layer[static_cast<int>(layer)];
        std::printf("%-13s %-8s %7.3f %7.3f %7.3f %7.3f %7.3f %8.3f\n",
                    topo::FatTree::layer_name(layer), s.name, d.min(), d.percentile(10),
                    d.percentile(50), d.percentile(90), d.max(), d.max() - d.min());
      }
    }
    // Aggregate comparison (the paper's "XMP increases utilization by 10%
    // in average over LIA").
    auto mean_all = [&](const char* name) {
      double sum = 0.0;
      for (int l = 0; l < 3; ++l) sum += results[name].utilization_by_layer[l].mean();
      return sum / 3.0;
    };
    std::printf("mean over all layers: DCTCP %.3f  LIA-4 %.3f  XMP-2 %.3f  XMP-4 %.3f\n",
                mean_all("DCTCP"), mean_all("LIA-4"), mean_all("XMP-2"), mean_all("XMP-4"));
  }

  std::printf("\npaper shape: DCTCP has the widest spread (unbalanced); XMP/LIA are\n"
              "balanced; XMP's mean utilization ~10%% above LIA's.\n");
  return 0;
}
