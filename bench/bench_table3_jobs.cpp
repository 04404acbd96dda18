// Table 3 + Figure 9: completion time of incast Jobs (1 client fanning a
// 2 KB request to 8 servers, 64 KB responses, 8 concurrent jobs) while
// large background flows run under each scheme.
//
//   - Table 3: average job completion time and the fraction > 300 ms
//   - Fig. 9: job-completion-time CDF; the RTOmin = 200 ms staircase
//
// Expected shape: DCTCP fastest (~tens of ms), XMP roughly doubles DCTCP
// (MPTCP saturates all paths, small flows can't dodge them), LIA far worse
// with >10% of jobs beyond 300 ms; CDF jumps ~200 ms apart (TCP incast
// collapse); more subflows -> slightly more second-collapse jobs.
//
// Usage: bench_table3_jobs [--k=8] [--duration=1.2] [--seed=1] [--quick] [--jobs=N]
//
// The five scheme rows are independent experiments, fanned across a
// core::WorkerPool (--jobs, default: hardware cores); stdout is identical
// at every width.

#include <map>

#include "common.hpp"

using namespace xmp;

int main(int argc, char** argv) {
  const cli::Args args{argc, argv};
  bool ok = true;
  const int k = cli::flag_k(args, 8, ok);
  const bool quick = args.has("quick");
  const double duration = cli::flag_d(args, "duration", quick ? 0.3 : 1.2, 1e-3, 3600, ok);
  const auto seed = static_cast<std::uint64_t>(cli::flag_i(args, "seed", 1, 0, INT64_MAX, ok));
  const std::int64_t jobs = cli::flag_i(args, "jobs", 0, 0, 4096, ok);  // 0 = hardware cores
  if (!ok || !args.finish()) return 2;

  bench::print_banner("bench_table3_jobs",
                      "Table 3 + Figure 9 (incast job completion times per scheme)");

  struct SchemeRow {
    const char* name;
    workload::SchemeSpec::Kind kind;
    int subflows;
    double paper_avg_ms;
    double paper_over300;
  };
  const SchemeRow rows[] = {
      {"DCTCP", workload::SchemeSpec::Kind::Dctcp, 1, 52, 0.001},
      {"LIA-2", workload::SchemeSpec::Kind::Lia, 2, 156, 0.101},
      {"LIA-4", workload::SchemeSpec::Kind::Lia, 4, 180, 0.125},
      {"XMP-2", workload::SchemeSpec::Kind::Xmp, 2, 93, 0.001},
      {"XMP-4", workload::SchemeSpec::Kind::Xmp, 4, 109, 0.002},
  };

  std::vector<core::ExperimentConfig> grid;
  for (const auto& r : rows) {
    core::ExperimentConfig cfg;
    cfg.scheme.kind = r.kind;
    cfg.scheme.subflows = r.subflows;
    cfg.pattern = core::Pattern::Incast;
    cfg.fat_tree_k = k;
    cfg.duration = sim::Time::seconds(duration);
    cfg.seed = seed;
    if (quick) {
      cfg.rand_min_bytes /= 4;
      cfg.rand_max_bytes /= 4;
    }
    grid.push_back(cfg);
  }
  const auto ordered =
      bench::run_grid(grid, jobs, [&](std::size_t i) { return std::string{rows[i].name}; });
  std::map<std::string, core::ExperimentResults> results;
  for (std::size_t i = 0; i < ordered.size(); ++i) results[rows[i].name] = ordered[i];

  std::printf("\nTable 3: Average Job Completion Time -- measured (paper)\n");
  std::printf("%-8s %18s %18s %10s\n", "scheme", "avg (ms)", ">300ms", "jobs");
  for (const auto& r : rows) {
    const auto& res = results[r.name];
    std::size_t completed = 0;
    for (const auto& j : res.jobs) completed += j.completed ? 1 : 0;
    std::printf("%-8s %8.1f (%5.0f) %9.1f%% (%4.1f%%) %10zu\n", r.name,
                res.avg_job_completion_ms(), r.paper_avg_ms,
                res.job_completion_over_ms(300.0) * 100, r.paper_over300 * 100, completed);
  }

  std::printf("\nFigure 9: job completion time CDF (ms)\n");
  std::printf("%-8s", "scheme");
  const double percentiles[] = {10, 25, 50, 75, 90, 95, 99};
  for (double p : percentiles) std::printf(" %7.0fth", p);
  std::printf("\n");
  for (const auto& r : rows) {
    stats::Distribution d;
    for (const auto& j : results[r.name].jobs) {
      if (j.completed) d.add(j.completion_time().ms());
    }
    std::printf("%-8s", r.name);
    for (double p : percentiles) std::printf(" %9.1f", d.percentile(p));
    std::printf("\n");
  }

  // The RTOmin staircase: fraction of jobs in the three "collapse bands".
  std::printf("\nRTOmin staircase (fraction of jobs per band):\n");
  std::printf("%-8s %12s %12s %12s\n", "scheme", "<200ms", "200-400ms", ">400ms");
  for (const auto& r : rows) {
    const auto& jobs = results[r.name].jobs;
    std::size_t n = 0, b0 = 0, b1 = 0, b2 = 0;
    for (const auto& j : jobs) {
      if (!j.completed) continue;
      ++n;
      const double ms = j.completion_time().ms();
      if (ms < 200) {
        ++b0;
      } else if (ms < 400) {
        ++b1;
      } else {
        ++b2;
      }
    }
    if (n == 0) continue;
    std::printf("%-8s %11.1f%% %11.1f%% %11.1f%%\n", r.name, 100.0 * b0 / n, 100.0 * b1 / n,
                100.0 * b2 / n);
  }

  std::printf("\npaper shape: DCTCP < XMP-2 < XMP-4 << LIA; LIA has >10%% of jobs over\n"
              "300 ms; the CDF exhibits ~200 ms jumps (TCP incast collapse).\n");
  return 0;
}
