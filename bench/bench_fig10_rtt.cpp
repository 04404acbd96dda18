// Figure 10: RTT distributions of large flows by locality category under
// the three traffic patterns, for DCTCP, LIA-4, XMP-2 and XMP-4.
//
// RTT proxies link buffer occupancy (12 us per queued packet at 1 Gbps),
// so this is the paper's latency argument: ECN-based schemes (DCTCP, XMP)
// keep RTT low and nearly independent of the subflow count; LIA fills the
// drop-tail buffers and shows multi-millisecond RTTs.
//
// Usage: bench_fig10_rtt [--k=8] [--duration=0.4] [--seed=1] [--quick]

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

  bench::print_banner("bench_fig10_rtt",
                      "Figure 10 (RTT distributions by category, per pattern and scheme)");

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

  for (const auto pattern : patterns) {
    std::printf("\n--- %s: smoothed RTT of large flows (ms) ---\n",
                core::pattern_name(pattern));
    std::printf("%-12s %-8s %8s %8s %8s %8s\n", "category", "scheme", "p10", "p50", "p90",
                "mean");
    std::map<std::string, core::ExperimentResults> results;
    for (const auto& s : schemes) {
      core::ExperimentConfig cfg;
      cfg.scheme.kind = s.kind;
      cfg.scheme.subflows = s.subflows;
      cfg.pattern = pattern;
      cfg.fat_tree_k = k;
      cfg.duration = sim::Time::seconds(duration);
      cfg.permutation_rounds = 8;  // keep load up for the whole window
      cfg.seed = seed;
      if (quick) {
        cfg.perm_min_bytes /= 4;
        cfg.perm_max_bytes /= 4;
        cfg.rand_min_bytes /= 4;
        cfg.rand_max_bytes /= 4;
      }
      results[s.name] = core::run_experiment(cfg);
    }
    for (int cat = 2; cat >= 0; --cat) {
      const char* cname =
          topo::FatTree::category_name(static_cast<topo::FatTree::Category>(cat));
      for (const auto& s : schemes) {
        const auto& d = results[s.name].rtt_by_category[cat];
        if (d.empty()) {
          std::printf("%-12s %-8s %8s\n", cname, s.name, "(none)");
          continue;
        }
        std::printf("%-12s %-8s %8.2f %8.2f %8.2f %8.2f\n", cname, s.name, d.percentile(10),
                    d.percentile(50), d.percentile(90), d.mean());
      }
    }
    // The claim behind the figure: RTT proxies buffer occupancy. Print the
    // exact (time-weighted) per-link queue occupancy per layer.
    std::printf("  buffer occupancy (pkts, time-weighted mean / p90 across links):\n");
    std::printf("  %-8s", "scheme");
    for (int l = 0; l < 3; ++l) {
      std::printf(" %18s", topo::FatTree::layer_name(static_cast<topo::FatTree::Layer>(l)));
    }
    std::printf("\n");
    for (const auto& s : schemes) {
      std::printf("  %-8s", s.name);
      for (int l = 0; l < 3; ++l) {
        const auto& d = results[s.name].queue_occupancy_by_layer[l];
        char buf[32];
        std::snprintf(buf, sizeof buf, "%6.2f /%6.2f", d.mean(), d.percentile(90));
        std::printf(" %18s", buf);
      }
      std::printf("\n");
    }
  }

  std::printf("\npaper shape: DCTCP and XMP keep RTT low (sub-millisecond to ~1 ms,\n"
              "subflow count barely matters); LIA inflates RTT to several ms by\n"
              "filling drop-tail queues; Incast runs a bit higher (TCP small flows).\n");
  return 0;
}
