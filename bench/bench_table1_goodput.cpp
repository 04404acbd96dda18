// Table 1 + Figure 8: average goodput of large flows on the k=8 Fat-Tree
// (128 hosts, 1 Gbps, K=10, queue 100) under the Permutation, Random and
// Incast patterns, for DCTCP, LIA-2/4 and XMP-2/4.
//
//   - Table 1: mean goodput (Mbps) per scheme x pattern
//   - Fig. 8a/8b: goodput CDFs (Permutation / Incast)
//   - Fig. 8c/8d: percentiles by locality category
//
// Flow sizes are scaled 32x down from the paper (see DESIGN.md §3);
// goodput is a rate and survives the scaling. Expected shape: XMP-4 >
// XMP-2 > LIA-4 ~ DCTCP > LIA-2; XMP-2 gains >13% over DCTCP; doubling
// XMP's subflows adds ~10% while doubling LIA's adds >40%.
//
// Usage: bench_table1_goodput [--k=8] [--rounds=2] [--duration=0.6]
//        [--seed=1] [--quick] [--scale=1] [--jobs=N]
//
// The 15 scheme x pattern cells are independent experiments; they are
// fanned across a core::WorkerPool (--jobs, default: hardware cores).
// Results are bit-identical to a serial loop.
//
// --scale multiplies the (already 32x-reduced) flow sizes; --scale=8 gets
// within 4x of the paper's sizes, which matters for LIA whose 200 ms RTO
// penalties amortize only over long transfers.

#include <map>

#include "common.hpp"

using namespace xmp;

namespace {

workload::SchemeSpec scheme_by_name(const std::string& name) {
  workload::SchemeSpec s;
  if (name == "DCTCP") {
    s.kind = workload::SchemeSpec::Kind::Dctcp;
  } else if (name == "LIA-2") {
    s.kind = workload::SchemeSpec::Kind::Lia;
    s.subflows = 2;
  } else if (name == "LIA-4") {
    s.kind = workload::SchemeSpec::Kind::Lia;
    s.subflows = 4;
  } else if (name == "XMP-2") {
    s.kind = workload::SchemeSpec::Kind::Xmp;
    s.subflows = 2;
  } else {
    s.kind = workload::SchemeSpec::Kind::Xmp;
    s.subflows = 4;
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const cli::Args args{argc, argv};
  bool ok = true;
  const int k = cli::flag_k(args, 8, ok);
  const bool quick = args.has("quick");
  const int rounds = static_cast<int>(cli::flag_i(args, "rounds", quick ? 1 : 2, 1, 1000, ok));
  const double duration = cli::flag_d(args, "duration", quick ? 0.25 : 0.6, 1e-3, 3600, ok);
  const auto seed = static_cast<std::uint64_t>(cli::flag_i(args, "seed", 1, 0, INT64_MAX, ok));
  const std::int64_t scale = cli::flag_i(args, "scale", 1, 1, 1000000, ok);
  const std::int64_t jobs = cli::flag_i(args, "jobs", 0, 0, 4096, ok);  // 0 = hardware cores
  if (!ok || !args.finish()) return 2;

  bench::print_banner("bench_table1_goodput",
                      "Table 1 + Figure 8 (goodput per scheme x pattern, k=8 Fat-Tree)");

  const std::vector<std::string> schemes = {"DCTCP", "LIA-2", "LIA-4", "XMP-2", "XMP-4"};
  const std::vector<core::Pattern> patterns = {core::Pattern::Permutation, core::Pattern::Random,
                                               core::Pattern::Incast};

  // Paper's Table 1 for side-by-side comparison.
  const std::map<std::string, std::array<double, 3>> paper = {
      {"DCTCP", {513.6, 440.5, 423.7}}, {"LIA-2", {400.8, 310.0, 302.7}},
      {"LIA-4", {627.3, 434.5, 425.4}}, {"XMP-2", {644.3, 497.9, 483.7}},
      {"XMP-4", {735.6, 542.9, 535.7}},
  };

  // Build all 15 cells up front and fan them across worker threads; the
  // results are indexed like the grid, so the tables below are
  // bit-identical to a serial loop.
  std::vector<core::ExperimentConfig> grid;
  std::vector<std::pair<std::string, std::size_t>> cells;  // (scheme, pattern index)
  for (const auto& name : schemes) {
    for (std::size_t pi = 0; pi < patterns.size(); ++pi) {
      core::ExperimentConfig cfg;
      cfg.scheme = scheme_by_name(name);
      cfg.pattern = patterns[pi];
      cfg.fat_tree_k = k;
      cfg.permutation_rounds = rounds;
      // Permutation terminates by itself after `rounds`; give it a generous
      // cap so slow schemes' stragglers are not censored (that would bias
      // mean goodput upward). Random/Incast run for exactly `duration`.
      cfg.duration = patterns[pi] == core::Pattern::Permutation ? sim::Time::seconds(30.0)
                                                                : sim::Time::seconds(duration);
      cfg.seed = seed;
      if (quick) {
        cfg.perm_min_bytes /= 4;
        cfg.perm_max_bytes /= 4;
        cfg.rand_min_bytes /= 4;
        cfg.rand_max_bytes /= 4;
      }
      cfg.perm_min_bytes *= scale;
      cfg.perm_max_bytes *= scale;
      cfg.rand_min_bytes *= scale;
      cfg.rand_max_bytes *= scale;
      if (scale > 1) {
        cfg.duration = cfg.duration * scale;  // keep Random/Incast comparable
      }
      grid.push_back(cfg);
      cells.emplace_back(name, pi);
    }
  }

  const auto ordered = bench::run_grid(grid, jobs, [&](std::size_t i) {
    return cells[i].first + " " + core::pattern_name(patterns[cells[i].second]);
  });

  std::map<std::string, std::array<core::ExperimentResults, 3>> results;
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    results[cells[i].first][cells[i].second] = ordered[i];
  }

  // ------------------------------------------------------------ Table 1
  std::printf("\nTable 1: Average Goodput (Mbps) -- measured (paper)\n");
  std::printf("%-8s %22s %22s %22s\n", "", "Permutation", "Random", "Incast");
  for (const auto& name : schemes) {
    std::printf("%-8s", name.c_str());
    for (int pi = 0; pi < 3; ++pi) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%7.1f (%6.1f)", results[name][pi].avg_goodput_mbps(),
                    paper.at(name)[static_cast<std::size_t>(pi)]);
      std::printf(" %22s", buf);
    }
    std::printf("\n");
  }

  // Shape checks the paper calls out in §5.2.2.
  const double dctcp_p = results["DCTCP"][0].avg_goodput_mbps();
  const double xmp2_p = results["XMP-2"][0].avg_goodput_mbps();
  const double xmp4_p = results["XMP-4"][0].avg_goodput_mbps();
  const double lia2_p = results["LIA-2"][0].avg_goodput_mbps();
  const double lia4_p = results["LIA-4"][0].avg_goodput_mbps();
  std::printf("\nshape checks (Permutation):\n");
  std::printf("  XMP-2 vs DCTCP: %+.1f%% (paper: >13%%)\n", (xmp2_p / dctcp_p - 1) * 100);
  std::printf("  XMP-4 vs XMP-2: %+.1f%% (paper: ~10%%)\n", (xmp4_p / xmp2_p - 1) * 100);
  std::printf("  LIA-4 vs LIA-2: %+.1f%% (paper: >40%%)\n", (lia4_p / lia2_p - 1) * 100);

  // ----------------------------------------------------- Figure 8c / 8d
  auto print_categories = [&](int pi, const char* title,
                              const std::vector<std::string>& show) {
    std::printf("\nFigure %s: goodput percentiles by category (normalized to 1 Gbps)\n", title);
    std::printf("%-12s %-8s %8s %8s %8s %8s %8s\n", "category", "scheme", "min", "p10", "p50",
                "p90", "max");
    for (int cat = 2; cat >= 0; --cat) {  // Inter-Pod, Inter-Rack, Inner-Rack
      const char* cname =
          topo::FatTree::category_name(static_cast<topo::FatTree::Category>(cat));
      for (const auto& name : show) {
        const auto& d =
            results[name][static_cast<std::size_t>(pi)].goodput_by_category[cat];
        if (d.empty()) {
          std::printf("%-12s %-8s %8s\n", cname, name.c_str(), "(none)");
          continue;
        }
        std::printf("%-12s %-8s %8.3f %8.3f %8.3f %8.3f %8.3f\n", cname, name.c_str(),
                    d.min() / 1000.0, d.percentile(10) / 1000.0, d.percentile(50) / 1000.0,
                    d.percentile(90) / 1000.0, d.max() / 1000.0);
      }
    }
  };
  const std::vector<std::string> fig8_schemes = {"DCTCP", "LIA-4", "XMP-2", "XMP-4"};
  print_categories(0, "8c (Permutation)", fig8_schemes);
  print_categories(2, "8d (Incast)", fig8_schemes);

  // ----------------------------------------------------- Figure 8a / 8b
  {
    for (int pi : {0, 2}) {
      std::printf("\nFigure 8%c: goodput CDF (%s), normalized goodput -> CDF\n",
                  pi == 0 ? 'a' : 'b', core::pattern_name(patterns[static_cast<std::size_t>(pi)]));
      std::printf("%-8s", "scheme");
      for (int i = 1; i <= 10; ++i) std::printf("   p%-3d", i * 10);
      std::printf("\n");
      for (const auto& name : schemes) {
        const auto& d = results[name][static_cast<std::size_t>(pi)].goodput;
        std::printf("%-8s", name.c_str());
        for (int i = 1; i <= 10; ++i) std::printf(" %6.3f", d.percentile(i * 10.0) / 1000.0);
        std::printf("\n");
      }
    }
  }

  std::printf("\npaper shape: XMP-4 > XMP-2 > LIA-4 ~ DCTCP > LIA-2 on every pattern;\n"
              "DCTCP wins inner-rack but collapses inter-pod; LIA poor inner-rack\n"
              "(200 ms RTOmin), competitive inter-pod.\n");
  return 0;
}
