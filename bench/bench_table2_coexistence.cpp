// Table 2: XMP-2 coexisting with LIA-2 / TCP / DCTCP in the Random pattern
// (half of the hosts run XMP, the other half the second scheme), for queue
// sizes 50 and 100 packets.
//
// Expected shape (paper §5.2.2): XMP shares ~fairly with DCTCP; it beats
// TCP decisively (TCP is loss-driven and pays RTOmin); a larger queue lets
// loss-driven schemes (LIA/TCP) claw back bandwidth while XMP relinquishes
// some (more standing queue -> more ECN marks for XMP).
//
// Usage: bench_table2_coexistence [--k=8] [--duration=0.5] [--seed=1] [--quick]
//        [--jobs=N]
//
// The 6 pairing x queue cells run concurrently on a core::WorkerPool
// (--jobs, default: hardware cores); results match a serial loop.

#include <map>

#include "common.hpp"

using namespace xmp;

int main(int argc, char** argv) {
  const cli::Args args{argc, argv};
  bool ok = true;
  const int k = cli::flag_k(args, 8, ok);
  const bool quick = args.has("quick");
  const double duration = cli::flag_d(args, "duration", quick ? 0.25 : 0.5, 1e-3, 3600, ok);
  const auto seed = static_cast<std::uint64_t>(cli::flag_i(args, "seed", 1, 0, INT64_MAX, ok));
  const std::int64_t jobs = cli::flag_i(args, "jobs", 0, 0, 4096, ok);  // 0 = hardware cores
  if (!ok || !args.finish()) return 2;

  bench::print_banner("bench_table2_coexistence",
                      "Table 2 (XMP-2 vs LIA-2 / TCP / DCTCP, Random pattern, queue 50/100)");

  struct Pairing {
    const char* name;
    workload::SchemeSpec::Kind kind;
    int subflows;
    std::array<double, 2> paper_xmp;    // queue 50, 100
    std::array<double, 2> paper_other;
  };
  const Pairing pairings[] = {
      {"LIA", workload::SchemeSpec::Kind::Lia, 2, {463.4, 423.2}, {314.3, 388.3}},
      {"TCP", workload::SchemeSpec::Kind::Tcp, 1, {522.9, 501.8}, {175.3, 243.4}},
      {"DCTCP", workload::SchemeSpec::Kind::Dctcp, 1, {485.4, 481.4}, {485.3, 493.5}},
  };

  // All 6 cells (pairing x queue size) are independent; build them up
  // front and fan across a worker pool. Results are indexed like the grid,
  // so the table matches a serial loop exactly.
  std::vector<core::ExperimentConfig> grid;
  for (const auto& p : pairings) {
    for (int qi = 0; qi < 2; ++qi) {
      core::ExperimentConfig cfg;
      cfg.scheme.kind = workload::SchemeSpec::Kind::Xmp;
      cfg.scheme.subflows = 2;
      workload::SchemeSpec other;
      other.kind = p.kind;
      other.subflows = p.subflows;
      cfg.scheme_b = other;
      cfg.pattern = core::Pattern::Random;
      cfg.fat_tree_k = k;
      cfg.queue_capacity = qi == 0 ? 50 : 100;
      cfg.duration = sim::Time::seconds(duration);
      cfg.seed = seed;
      if (quick) {
        cfg.rand_min_bytes /= 4;
        cfg.rand_max_bytes /= 4;
      }
      grid.push_back(cfg);
    }
  }

  const auto results = bench::run_grid(grid, jobs, [&](std::size_t i) {
    return std::string{pairings[i / 2].name} + (i % 2 == 0 ? " q50" : " q100");
  });

  std::printf("\nAverage goodput (Mbps), measured (paper):\n");
  std::printf("%-14s %26s %26s\n", "", "queue = 50 pkts", "queue = 100 pkts");
  std::size_t cell = 0;
  for (const auto& p : pairings) {
    std::printf("XMP : %-8s", p.name);
    for (int qi = 0; qi < 2; ++qi) {
      const auto& res = results[cell++];
      char buf[80];
      std::snprintf(buf, sizeof buf, "%5.1f:%5.1f (%5.1f:%5.1f)", res.avg_goodput_mbps(),
                    res.avg_goodput_b_mbps(), p.paper_xmp[static_cast<std::size_t>(qi)],
                    p.paper_other[static_cast<std::size_t>(qi)]);
      std::printf(" %26s", buf);
    }
    std::printf("\n");
  }

  std::printf("\npaper shape: XMP ~ DCTCP (both ECN-driven); XMP >> TCP; larger queue\n"
              "helps LIA/TCP (loss-driven) and costs XMP a little.\n");
  return 0;
}
