#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/job_manifest.hpp"

namespace xmp::obs {
class MetricsRegistry;
class TimelineTracer;
}  // namespace xmp::obs

namespace xmp::core {

/// Knobs of one resilient sweep campaign.
struct OrchestratorConfig {
  std::string campaign_dir;     ///< manifest + per-job result files live here
  unsigned workers = 0;         ///< concurrent child processes; 0 = hardware cores
  double job_timeout_s = 0.0;   ///< wall-clock watchdog per attempt; 0 = none
  int retries = 2;              ///< extra attempts after a failed first run
  double backoff_base_s = 0.5;  ///< exponential backoff base (see retry_backoff_s)
  bool strict = false;          ///< caller policy: incomplete campaign = failure

  /// Optional harness observability. Counters land under "harness.*"; the
  /// tracer gets job-lifecycle events (cat::kHarness) stamped with
  /// wall-clock time since the campaign started.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TimelineTracer* tracer = nullptr;

  /// Granularity of the reap/watchdog loop. Only tests tune this.
  double poll_interval_s = 0.002;
};

/// The numbers salvaged from one job's result file (job_<i>.json, the
/// run's own summary.json as export_summary_json writes it), written by the
/// child and parsed back by the parent. The aggregate sweep table is built
/// *only* from these files — never from in-memory state — so a resumed
/// campaign aggregates byte-identically to an uninterrupted one.
struct JobResult {
  SweepValue value;  ///< swept parameter value (filled from the manifest)
  double goodput_mbps = 0.0;
  std::uint64_t events = 0;
  std::uint64_t flows = 0;
  std::uint64_t completed_flows = 0;
  std::uint64_t aborted_flows = 0;

  /// FCT-slowdown quantiles parsed back from the job file's "fct" block
  /// (Workload runs; `has_fct` false otherwise). Mirrors
  /// ExperimentResults::FctStats.
  struct FctQuantiles {
    std::uint64_t count = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };
  bool has_fct = false;
  double fct_load = 0.0;
  std::uint64_t fct_completed = 0;
  std::uint64_t fct_censored = 0;
  FctQuantiles fct_all;
  std::array<FctQuantiles, ExperimentResults::FctStats::kBins> fct_bins;
};

/// Final shape of a campaign: every job either salvaged a result or is
/// listed in `incomplete` (state Exhausted in `jobs`).
struct CampaignOutcome {
  std::vector<JobEntry> jobs;                     ///< final manifest rows
  std::vector<std::optional<JobResult>> results;  ///< indexed like the grid
  std::vector<std::size_t> incomplete;            ///< jobs with no salvageable result
  [[nodiscard]] bool complete() const { return incomplete.empty(); }
};

/// Crash-isolated sweep campaign driver: every `xmpsim sweep` runs through
/// it (in --out=DIR, or in a temporary directory).
///
/// Each grid point runs in a forked child process: a segfault, OOM kill,
/// std::terminate or runaway loop in one job can never take down the
/// campaign or its siblings. The parent is a single-threaded reap loop —
/// spawn up to `workers` children, waitpid(WNOHANG) each, SIGKILL any that
/// outlive the watchdog, and respawn failures after a deterministic
/// exponential backoff — which sidesteps every fork-vs-threads hazard.
///
/// The manifest is rewritten atomically after every state transition, so
/// SIGKILLing the *campaign* at any instant leaves a resumable directory.
class Orchestrator {
 public:
  /// Body of one job attempt, run inside the forked child; its return value
  /// becomes the child's exit status. The default body is run_sweep_job().
  /// Tests substitute hostile bodies (hang, abort, exit non-zero).
  using ChildFn = std::function<int(std::size_t index, const ExperimentConfig& cfg,
                                    const std::string& result_path, int attempt)>;

  explicit Orchestrator(OrchestratorConfig cfg);

  /// Run the campaign to quiescence: every job ends Succeeded or Exhausted.
  /// `manifest.jobs` must have one entry per grid config (index and value
  /// filled in). Entries already Succeeded with a parseable result file are
  /// skipped — that is what makes --resume cheap; all other states are
  /// reset to Pending and re-run.
  CampaignOutcome run(const std::vector<ExperimentConfig>& grid, JobManifest& manifest,
                      const ChildFn& child = {});

 private:
  OrchestratorConfig cfg_;
};

/// Default child body: run_experiment(cfg), then export_summary_json to
/// `result_path` (atomically). Returns 0, or 3 when invariant checking
/// found violations, 4 on an exception, 5 when the result file cannot be
/// written.
int run_sweep_job(std::size_t index, const ExperimentConfig& cfg, const std::string& result_path);

/// Result-file name for grid point `index`: "job_<index>.json".
[[nodiscard]] std::string job_result_file(std::size_t index);

/// Parse a result file written by run_sweep_job. `value` is left at 0 (the
/// manifest owns it). Returns false and sets *error on a missing or
/// malformed file, or one that is not a run summary (a job file of the
/// older hand-written format included) — the caller treats that attempt as
/// failed, so a resumed campaign re-runs the job.
bool load_job_result(const std::string& path, JobResult& out, std::string* error = nullptr);

}  // namespace xmp::core
