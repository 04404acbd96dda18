// Ablation (paper §5.2.2 discussion): goodput of XMP and LIA versus the
// number of subflows on the k=8 Fat-Tree (Permutation pattern).
//
// The paper argues MPTCP/LIA needs ~8 subflows for good Fat-Tree
// utilization (Raiciu et al.) while XMP saturates with 2 — establishing
// more subflows mainly hurts small flows. This sweep regenerates that
// comparison.
//
// Usage: bench_ablation_subflows [--k=8] [--rounds=1] [--seed=1] [--quick]

#include "common.hpp"

using namespace xmp;

int main(int argc, char** argv) {
  const cli::Args args{argc, argv};
  bool ok = true;
  const int k = cli::flag_k(args, 8, ok);
  const bool quick = args.has("quick");
  const int rounds = static_cast<int>(cli::flag_i(args, "rounds", 1, 1, 1000, ok));
  const auto seed = static_cast<std::uint64_t>(cli::flag_i(args, "seed", 1, 0, INT64_MAX, ok));
  if (!ok || !args.finish()) return 2;

  bench::print_banner("bench_ablation_subflows",
                      "Subflow-count ablation (paper §5.2.2: XMP needs only 2 subflows)");

  std::printf("%9s %16s %16s\n", "subflows", "XMP (Mbps)", "LIA (Mbps)");
  double xmp1 = 0.0;
  for (int n : {1, 2, 3, 4, 6, 8}) {
    double goodput[2] = {0.0, 0.0};
    int idx = 0;
    for (auto kind : {workload::SchemeSpec::Kind::Xmp, workload::SchemeSpec::Kind::Lia}) {
      core::ExperimentConfig cfg;
      cfg.scheme.kind = kind;
      cfg.scheme.subflows = n;
      cfg.pattern = core::Pattern::Permutation;
      cfg.fat_tree_k = k;
      cfg.permutation_rounds = rounds;
      cfg.duration = sim::Time::seconds(30.0);  // cap only; rounds terminate the run
      cfg.seed = seed;
      if (quick) {
        cfg.perm_min_bytes /= 4;
        cfg.perm_max_bytes /= 4;
      }
      goodput[idx++] = core::run_experiment(cfg).avg_goodput_mbps();
    }
    if (n == 1) xmp1 = goodput[0];
    std::printf("%9d %16.1f %16.1f\n", n, goodput[0], goodput[1]);
  }
  std::printf("\npaper shape: XMP's curve flattens after 2 subflows (+~10%% from 2 to 4);\n"
              "LIA keeps gaining with more subflows (needs ~8 for good utilization).\n"
              "XMP-1 (= plain BOS, %.0f Mbps) already beats single-path baselines on\n"
              "clean paths but cannot route around collisions.\n",
              xmp1);
  return 0;
}
