#include "core/orchestrator.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/job_manifest.hpp"
#include "obs/metrics.hpp"
#include "trace/writers.hpp"

namespace xmp::core {
namespace {

struct TempDir {
  explicit TempDir(const char* name)
      : path{std::string{"/tmp/xmp_orch_test_"} + name + "_" + std::to_string(::getpid())} {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string path;
};

/// `n` jobs of config `cfg` in job_<i>/, as a sweep names them.
std::vector<CampaignJob> grid_of(std::size_t n, const ExperimentConfig& cfg) {
  std::vector<CampaignJob> grid;
  for (std::size_t i = 0; i < n; ++i) grid.push_back({cfg, "job_" + std::to_string(i)});
  return grid;
}

/// The orchestrator never looks inside the configs — the injected child
/// body does all the work — so empty configs keep these tests fast and
/// independent of simulator timing.
std::vector<CampaignJob> dummy_grid(std::size_t n) { return grid_of(n, ExperimentConfig{}); }

JobManifest fresh_manifest(std::size_t n) {
  JobManifest m;
  m.param = "seed";
  for (std::size_t i = 0; i < n; ++i) {
    JobEntry j;
    j.index = i;
    j.value = SweepValue::of_int(static_cast<std::int64_t>(i));
    m.jobs.push_back(j);
  }
  return m;
}

/// Child body that writes a well-formed result file and exits 0: a run's
/// summary.json, cut down to the keys load_job_result reads.
int write_result_and_succeed(std::size_t index, const std::string& job_dir) {
  trace::JsonWriter json{job_dir + "/summary.json"};
  json.begin_object();
  json.key("summary");
  json.begin_object();
  json.kv("events", static_cast<std::uint64_t>(1000 + index));
  json.kv("flows", std::uint64_t{4});
  json.kv("avg_goodput_mbps", 100.0 + static_cast<double>(index));
  json.kv("aborted_flows", std::uint64_t{0});
  json.end_object();
  json.key("goodput_mbps");
  json.begin_object();
  json.key("all");
  json.begin_object();
  json.kv("count", std::uint64_t{3});
  json.end_object();
  json.end_object();
  json.end_object();
  return 0;
}

/// A job file in the hand-written format sweeps wrote before a job's result
/// became its run's summary.json.
void write_old_job_file(const std::string& path) {
  trace::JsonWriter json{path};
  json.begin_object();
  json.kv("index", std::uint64_t{0});
  json.kv("goodput_mbps", 100.0);
  json.kv("events", std::uint64_t{1000});
  json.kv("flows", std::uint64_t{4});
  json.kv("completed_flows", std::uint64_t{3});
  json.kv("aborted_flows", std::uint64_t{0});
  json.end_object();
}

OrchestratorConfig fast_cfg(const std::string& dir) {
  OrchestratorConfig cfg;
  cfg.campaign_dir = dir;
  cfg.workers = 2;
  cfg.retries = 2;
  cfg.backoff_base_s = 0.01;  // keep retry waits test-sized
  return cfg;
}

TEST(Orchestrator, AllJobsSucceedFirstAttempt) {
  const TempDir dir{"ok"};
  obs::MetricsRegistry metrics;
  auto cfg = fast_cfg(dir.path);
  cfg.metrics = &metrics;
  Orchestrator orch{cfg};

  auto manifest = fresh_manifest(4);
  const auto outcome = orch.run(
      dummy_grid(4), manifest,
      [](std::size_t i, const ExperimentConfig&, const std::string& path, int) {
        return write_result_and_succeed(i, path);
      });

  EXPECT_TRUE(outcome.complete());
  ASSERT_EQ(outcome.results.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(outcome.results[i].has_value()) << "job " << i;
    EXPECT_DOUBLE_EQ(outcome.results[i]->goodput_mbps, 100.0 + static_cast<double>(i));
    EXPECT_EQ(outcome.results[i]->value, SweepValue::of_int(static_cast<std::int64_t>(i)));
    EXPECT_EQ(outcome.jobs[i].state, JobState::Succeeded);
    EXPECT_EQ(outcome.jobs[i].attempts, 1);
  }
  EXPECT_EQ(metrics.counter("harness.spawns").get(), 4u);
  EXPECT_EQ(metrics.counter("harness.jobs_succeeded").get(), 4u);
  EXPECT_EQ(metrics.counter("harness.retries").get(), 0u);

  // The on-disk manifest reflects the final state.
  JobManifest reloaded;
  ASSERT_TRUE(JobManifest::load(dir.path, reloaded));
  for (const auto& j : reloaded.jobs) EXPECT_EQ(j.state, JobState::Succeeded);
}

TEST(Orchestrator, TransientFailureIsRetriedWithBackoff) {
  const TempDir dir{"retry"};
  obs::MetricsRegistry metrics;
  auto cfg = fast_cfg(dir.path);
  cfg.metrics = &metrics;
  Orchestrator orch{cfg};

  auto manifest = fresh_manifest(2);
  // Job 0 fails its first attempt (exit 7) and succeeds on the second;
  // `attempt` is passed into the child so no shared state is needed.
  const auto outcome = orch.run(
      dummy_grid(2), manifest,
      [](std::size_t i, const ExperimentConfig&, const std::string& path, int attempt) {
        if (i == 0 && attempt == 0) return 7;
        return write_result_and_succeed(i, path);
      });

  EXPECT_TRUE(outcome.complete());
  EXPECT_EQ(outcome.jobs[0].attempts, 2);
  EXPECT_EQ(outcome.jobs[0].state, JobState::Succeeded);
  EXPECT_EQ(outcome.jobs[1].attempts, 1);
  EXPECT_EQ(metrics.counter("harness.retries").get(), 1u);
  EXPECT_EQ(metrics.counter("harness.exits_nonzero").get(), 1u);
  EXPECT_EQ(metrics.counter("harness.spawns").get(), 3u);
}

TEST(Orchestrator, CrashingJobIsIsolatedAndReported) {
  const TempDir dir{"crash"};
  obs::MetricsRegistry metrics;
  auto cfg = fast_cfg(dir.path);
  cfg.retries = 1;
  cfg.metrics = &metrics;
  Orchestrator orch{cfg};

  auto manifest = fresh_manifest(3);
  const auto outcome = orch.run(
      dummy_grid(3), manifest,
      [](std::size_t i, const ExperimentConfig&, const std::string& path, int) {
        if (i == 1) std::abort();  // SIGABRT in the child, never the parent
        return write_result_and_succeed(i, path);
      });

  // The crash burns every attempt but the survivors are salvaged.
  EXPECT_FALSE(outcome.complete());
  ASSERT_EQ(outcome.incomplete.size(), 1u);
  EXPECT_EQ(outcome.incomplete[0], 1u);
  EXPECT_EQ(outcome.jobs[1].state, JobState::Exhausted);
  EXPECT_EQ(outcome.jobs[1].attempts, 2);  // 1 + retries
  EXPECT_NE(outcome.jobs[1].last_error.find("signal"), std::string::npos);
  EXPECT_TRUE(outcome.results[0].has_value());
  EXPECT_TRUE(outcome.results[2].has_value());
  EXPECT_EQ(metrics.counter("harness.crashes").get(), 2u);
  EXPECT_EQ(metrics.counter("harness.jobs_exhausted").get(), 1u);
}

TEST(Orchestrator, WatchdogKillsHungJobs) {
  const TempDir dir{"hang"};
  obs::MetricsRegistry metrics;
  auto cfg = fast_cfg(dir.path);
  cfg.workers = 2;
  cfg.retries = 1;
  cfg.job_timeout_s = 0.3;
  cfg.metrics = &metrics;
  Orchestrator orch{cfg};

  auto manifest = fresh_manifest(2);
  const auto t0 = std::chrono::steady_clock::now();
  const auto outcome = orch.run(
      dummy_grid(2), manifest,
      [](std::size_t i, const ExperimentConfig&, const std::string& path, int) {
        if (i == 0) {
          std::this_thread::sleep_for(std::chrono::seconds{3600});  // hang forever
          return 0;
        }
        return write_result_and_succeed(i, path);
      });
  const auto elapsed = std::chrono::steady_clock::now() - t0;

  // 2 attempts * 0.3 s timeout + backoff << 3600 s: the watchdog, not the
  // sleep, bounded the campaign.
  EXPECT_LT(elapsed, std::chrono::seconds{30});
  EXPECT_FALSE(outcome.complete());
  EXPECT_EQ(outcome.jobs[0].state, JobState::Exhausted);
  EXPECT_EQ(outcome.jobs[0].last_error, "timeout");
  EXPECT_TRUE(outcome.results[1].has_value());
  EXPECT_EQ(metrics.counter("harness.timeouts").get(), 2u);
}

TEST(Orchestrator, ExitZeroWithoutResultFileIsAFailure) {
  const TempDir dir{"noresult"};
  auto cfg = fast_cfg(dir.path);
  cfg.retries = 0;
  Orchestrator orch{cfg};

  auto manifest = fresh_manifest(1);
  const auto outcome = orch.run(dummy_grid(1), manifest,
                                [](std::size_t, const ExperimentConfig&, const std::string&,
                                   int) { return 0; /* "succeeds" but writes nothing */ });

  EXPECT_FALSE(outcome.complete());
  EXPECT_EQ(outcome.jobs[0].state, JobState::Exhausted);
  EXPECT_EQ(outcome.jobs[0].last_error, "missing result");
}

TEST(Orchestrator, ResumeSkipsSucceededJobs) {
  const TempDir dir{"resume"};

  // First campaign: job 1 exhausts (exit 9 every attempt), jobs 0/2 succeed.
  {
    auto cfg = fast_cfg(dir.path);
    cfg.retries = 0;
    Orchestrator orch{cfg};
    auto manifest = fresh_manifest(3);
    const auto outcome = orch.run(
        dummy_grid(3), manifest,
        [](std::size_t i, const ExperimentConfig&, const std::string& path, int) {
          if (i == 1) return 9;
          return write_result_and_succeed(i, path);
        });
    ASSERT_EQ(outcome.incomplete.size(), 1u);
  }

  // Resume with a healed job body: only job 1 may spawn again.
  JobManifest manifest;
  ASSERT_TRUE(JobManifest::load(dir.path, manifest));
  obs::MetricsRegistry metrics;
  auto cfg = fast_cfg(dir.path);
  cfg.metrics = &metrics;
  Orchestrator orch{cfg};
  const auto outcome = orch.run(
      dummy_grid(3), manifest,
      [](std::size_t i, const ExperimentConfig&, const std::string& path, int) {
        // gtest failures in the forked child are invisible to the parent;
        // a poisoned exit code makes an unexpected re-run fail the campaign.
        if (i != 1) return 77;
        return write_result_and_succeed(i, path);
      });

  EXPECT_TRUE(outcome.complete());
  EXPECT_EQ(metrics.counter("harness.jobs_resumed").get(), 2u);
  EXPECT_EQ(metrics.counter("harness.spawns").get(), 1u);
  // Salvaged results keep their original first-campaign payloads.
  EXPECT_DOUBLE_EQ(outcome.results[0]->goodput_mbps, 100.0);
  EXPECT_DOUBLE_EQ(outcome.results[2]->goodput_mbps, 102.0);
}

// A campaign directory from a build that wrote the hand-written job files:
// --resume cannot salvage such a file, so it re-runs that job instead of
// failing the campaign.
TEST(Orchestrator, ResumeRerunsAJobWhoseResultIsNotARunSummary) {
  const TempDir dir{"oldformat"};
  {
    Orchestrator orch{fast_cfg(dir.path)};
    auto manifest = fresh_manifest(2);
    const auto outcome = orch.run(
        dummy_grid(2), manifest,
        [](std::size_t i, const ExperimentConfig&, const std::string& path, int) {
          return write_result_and_succeed(i, path);
        });
    ASSERT_TRUE(outcome.complete());
  }
  write_old_job_file(dir.path + "/job_0/summary.json");

  JobManifest manifest;
  ASSERT_TRUE(JobManifest::load(dir.path, manifest));
  obs::MetricsRegistry metrics;
  auto cfg = fast_cfg(dir.path);
  cfg.metrics = &metrics;
  Orchestrator orch{cfg};
  const auto outcome = orch.run(
      dummy_grid(2), manifest,
      [](std::size_t i, const ExperimentConfig&, const std::string& path, int) {
        if (i != 0) return 77;  // job 1's result still parses: never re-run
        return write_result_and_succeed(i, path);
      });
  EXPECT_TRUE(outcome.complete());
  EXPECT_EQ(metrics.counter("harness.jobs_resumed").get(), 1u);
  EXPECT_EQ(metrics.counter("harness.spawns").get(), 1u);
  EXPECT_EQ(outcome.results[0]->events, 1000u);
  EXPECT_EQ(outcome.results[0]->completed_flows, 3u);
}

// The manifest on disk names each job's directory, but only for the
// reader: a resume resolves every job in the directory its caller names.
// Here the stored name points at a valid summary that is not job 0's, and
// job 0's own summary is gone, so job 0 runs again.
TEST(Orchestrator, ResumeUsesTheCallersJobDirectories) {
  const TempDir dir{"names"};
  {
    Orchestrator orch{fast_cfg(dir.path)};
    auto manifest = fresh_manifest(2);
    ASSERT_TRUE(orch.run(dummy_grid(2), manifest,
                         [](std::size_t i, const ExperimentConfig&, const std::string& d, int) {
                           return write_result_and_succeed(i, d);
                         })
                    .complete());
  }
  std::filesystem::create_directories(dir.path + "/elsewhere");
  write_result_and_succeed(55, dir.path + "/elsewhere");
  std::filesystem::remove(dir.path + "/job_0/summary.json");
  JobManifest manifest;
  ASSERT_TRUE(JobManifest::load(dir.path, manifest));
  EXPECT_EQ(manifest.jobs[0].dir, "job_0");
  manifest.jobs[0].dir = "elsewhere";
  ASSERT_TRUE(manifest.save(dir.path));
  ASSERT_TRUE(JobManifest::load(dir.path, manifest));

  obs::MetricsRegistry metrics;
  auto cfg = fast_cfg(dir.path);
  cfg.metrics = &metrics;
  const auto outcome = Orchestrator{cfg}.run(
      dummy_grid(2), manifest,
      [&dir](std::size_t i, const ExperimentConfig&, const std::string& d, int) {
        if (i != 0 || d != dir.path + "/job_0") return 77;
        return write_result_and_succeed(i, d);
      });
  EXPECT_TRUE(outcome.complete());
  EXPECT_EQ(metrics.counter("harness.spawns").get(), 1u);
  EXPECT_EQ(outcome.jobs[0].dir, "job_0");
  EXPECT_DOUBLE_EQ(outcome.results[0]->goodput_mbps, 100.0);
}

TEST(Orchestrator, ManifestGridSizeMismatchThrows) {
  const TempDir dir{"mismatch"};
  Orchestrator orch{fast_cfg(dir.path)};
  auto manifest = fresh_manifest(2);
  EXPECT_THROW((void)orch.run(dummy_grid(3), manifest), std::invalid_argument);
}

TEST(LoadJobResult, RejectsMissingAndMalformedFiles) {
  const TempDir dir{"loadresult"};
  JobResult r;
  std::string error;
  EXPECT_FALSE(load_job_result(dir.path + "/nope.json", r, &error));

  const std::string bad = dir.path + "/bad.json";
  {
    trace::JsonWriter json{bad};
    json.begin_object();
    json.kv("unrelated", 1.0);
    json.end_object();
  }
  EXPECT_FALSE(load_job_result(bad, r, &error));
  EXPECT_NE(error.find("not a run summary"), std::string::npos);

  const std::string old = dir.path + "/old.json";
  write_old_job_file(old);
  EXPECT_FALSE(load_job_result(old, r, &error));
  EXPECT_NE(error.find("not a run summary"), std::string::npos);
}

// The default child body's result file is the run's summary.json, and
// load_job_result reads back what the aggregate tables need: the summary
// counters, the completed-flow count and the FCT block, where a bin with
// no completions reads 0.
TEST(LoadJobResult, ReadsTheSummaryRunSweepJobWrites) {
  const TempDir dir{"roundtrip"};
  std::ofstream{dir.path + "/sizes.cdf"} << "1000 0\n50000 0.6\n1000000 1\n";
  std::ofstream{dir.path + "/web.wl"} << "nodes 16\ncdf sizes.cdf\nload 0.3\nspan any\n";
  auto spec = std::make_shared<workload::WorkloadSpec>();
  std::string err;
  ASSERT_TRUE(workload::WorkloadSpec::parse_file(dir.path + "/web.wl", *spec, &err)) << err;
  ExperimentConfig cfg;
  cfg.fat_tree_k = 4;
  cfg.pattern = Pattern::Workload;
  cfg.workload = spec;
  cfg.duration = sim::Time::seconds(0.02);
  cfg.seed = 3;

  const std::string path = dir.path + "/summary.json";
  ASSERT_EQ(run_sweep_job(0, cfg, dir.path), 0);
  JobResult r;
  ASSERT_TRUE(load_job_result(path, r, &err)) << err;

  const ExperimentResults res = run_experiment(cfg);
  EXPECT_NEAR(r.goodput_mbps, res.avg_goodput_mbps(), 1e-6 * (1 + res.avg_goodput_mbps()));
  EXPECT_EQ(r.events, res.events_dispatched);
  EXPECT_EQ(r.flows, res.flows.size());
  EXPECT_EQ(r.completed_flows, res.goodput.count());
  EXPECT_EQ(r.aborted_flows, res.aborted_flows);
  ASSERT_TRUE(r.has_fct);
  EXPECT_EQ(r.fct_completed, res.fct.completed);
  EXPECT_EQ(r.fct_censored, res.fct.censored);
  ASSERT_GT(res.fct.slowdown_all.count(), 0u);
  EXPECT_EQ(r.fct_all.count, res.fct.slowdown_all.count());
  EXPECT_NEAR(r.fct_all.p99, res.fct.slowdown_all.percentile(99), 1e-6 * r.fct_all.p99);
  bool saw_empty_bin = false;
  for (int b = 0; b < ExperimentResults::FctStats::kBins; ++b) {
    const auto& q = r.fct_bins[static_cast<std::size_t>(b)];
    EXPECT_EQ(q.count, res.fct.slowdown_by_bin[b].count()) << "bin " << b;
    if (q.count == 0) {
      saw_empty_bin = true;
      EXPECT_EQ(q.mean, 0.0);
      EXPECT_EQ(q.p50, 0.0);
      EXPECT_EQ(q.p99, 0.0);
    }
  }
  // The size CDF stops at 1 MB: the >10M bin is empty.
  EXPECT_TRUE(saw_empty_bin);
}

// --- planned kills and the checkpoint-aware retry, on real runs ----------

/// A tiny checkpointed k=4 permutation: snapshots every 2 ms of 60 ms.
ExperimentConfig checkpointed_perm() {
  ExperimentConfig cfg;
  cfg.fat_tree_k = 4;
  cfg.pattern = Pattern::Permutation;
  cfg.permutation_rounds = 1;
  cfg.duration = sim::Time::seconds(0.06);
  cfg.seed = 11;
  cfg.checkpoint.every = sim::Time::seconds(0.002);
  return cfg;
}

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

// Job 0 is marked: its first attempt is SIGKILLed at its first snapshot
// (or finishes first), and one more attempt resumes from the newest valid
// snapshot through the checkpoint-aware retry, at no cost to the retry
// budget. Its summary is byte for byte that of job 1, the same config run
// once without a kill.
TEST(Orchestrator, PlannedKillResumesFromTheNewestSnapshot) {
  const TempDir dir{"planned"};
  obs::MetricsRegistry metrics;
  auto cfg = fast_cfg(dir.path);
  cfg.retries = 0;
  cfg.kill_at_snapshot = {0};
  cfg.metrics = &metrics;
  auto manifest = fresh_manifest(2);
  const auto outcome = Orchestrator{cfg}.run(grid_of(2, checkpointed_perm()), manifest);

  ASSERT_TRUE(outcome.complete());
  const JobEntry& killed = outcome.jobs[0];
  EXPECT_EQ(killed.state, JobState::Succeeded);
  EXPECT_EQ(killed.attempts, 2);
  ASSERT_EQ(killed.lineage.size(), 2u);
  EXPECT_EQ(killed.lineage[0], "fresh");
  EXPECT_EQ(killed.lineage[1].rfind("ckpt_", 0), 0u) << killed.lineage[1];
  EXPECT_EQ(outcome.jobs[1].attempts, 1);
  EXPECT_EQ(outcome.jobs[1].lineage, std::vector<std::string>{"fresh"});
  EXPECT_EQ(metrics.counter("harness.ckpt.restores").get(), 1u);
  EXPECT_EQ(metrics.counter("harness.retries").get(), 0u);
  EXPECT_EQ(metrics.counter("harness.crashes").get(), 0u);
  EXPECT_EQ(metrics.counter("harness.exits_nonzero").get(), 0u);

  const std::string a = slurp(dir.path + "/job_0/summary.json");
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, slurp(dir.path + "/job_1/summary.json"));
}

// A marked job whose first attempt writes no snapshot has nothing to
// resume from: it fails on that attempt, with no second one.
TEST(Orchestrator, PlannedKillWithoutASnapshotFails) {
  const TempDir dir{"nosnap"};
  obs::MetricsRegistry metrics;
  auto cfg = fast_cfg(dir.path);
  cfg.retries = 0;
  cfg.kill_at_snapshot = {0};
  cfg.metrics = &metrics;
  ExperimentConfig run = checkpointed_perm();
  run.duration = sim::Time::seconds(0.005);
  run.checkpoint.every = sim::Time::seconds(1.0);  // no boundary before the horizon
  auto manifest = fresh_manifest(1);
  const auto outcome = Orchestrator{cfg}.run(grid_of(1, run), manifest);

  EXPECT_FALSE(outcome.complete());
  EXPECT_EQ(outcome.jobs[0].state, JobState::Exhausted);
  EXPECT_EQ(outcome.jobs[0].attempts, 1);
  EXPECT_EQ(outcome.jobs[0].last_error, "no snapshot");
  EXPECT_EQ(outcome.jobs[0].lineage, std::vector<std::string>{"fresh"});
  EXPECT_EQ(metrics.counter("harness.spawns").get(), 1u);
  EXPECT_EQ(metrics.counter("harness.ckpt.restores").get(), 0u);
}

TEST(Orchestrator, NoRetriesRunsAFailingJobOnce) {
  const TempDir dir{"once"};
  obs::MetricsRegistry metrics;
  auto cfg = fast_cfg(dir.path);
  cfg.retries = 0;
  cfg.metrics = &metrics;
  auto manifest = fresh_manifest(1);
  const auto outcome =
      Orchestrator{cfg}.run(dummy_grid(1), manifest,
                            [](std::size_t, const ExperimentConfig&, const std::string&, int) {
                              return 1;
                            });
  EXPECT_EQ(outcome.jobs[0].state, JobState::Exhausted);
  EXPECT_EQ(outcome.jobs[0].attempts, 1);
  EXPECT_EQ(outcome.jobs[0].last_error, "exit 1");
  EXPECT_EQ(metrics.counter("harness.spawns").get(), 1u);
  EXPECT_EQ(metrics.counter("harness.retries").get(), 0u);
}

}  // namespace
}  // namespace xmp::core
