#include "core/orchestrator.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "core/checkpoint.hpp"
#include "core/export.hpp"
#include "core/mini_json.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"

namespace xmp::core {
namespace {

using Clock = std::chrono::steady_clock;

std::chrono::nanoseconds dur_s(double s) {
  return std::chrono::nanoseconds{static_cast<std::int64_t>(s * 1e9)};
}

constexpr std::chrono::milliseconds kPoll{2};  ///< granularity of the reap/watchdog loop

/// Why the parent SIGKILLed a child, if it did.
enum class Kill : std::uint8_t { None, Watchdog, Planned };

/// One live child process the reap loop is responsible for.
struct RunningChild {
  pid_t pid = -1;
  std::size_t job = 0;
  Clock::time_point start;
  Clock::time_point deadline;  ///< the watchdog's; time_point::max() when off
};

}  // namespace

Orchestrator::Orchestrator(OrchestratorConfig cfg) : cfg_{std::move(cfg)} {
  if (cfg_.workers == 0) {
    cfg_.workers = std::thread::hardware_concurrency();
    if (cfg_.workers == 0) cfg_.workers = 1;
  }
}

CampaignOutcome Orchestrator::run(const std::vector<CampaignJob>& grid, JobManifest& manifest,
                                  const ChildFn& child) {
  if (manifest.jobs.size() != grid.size()) {
    throw std::invalid_argument("Orchestrator: manifest has " +
                                std::to_string(manifest.jobs.size()) + " jobs for a grid of " +
                                std::to_string(grid.size()));
  }
  const auto job_dir = [&](std::size_t i) { return cfg_.campaign_dir + "/" + grid[i].dir; };
  const auto summary = [&](std::size_t i) { return job_dir(i) + "/summary.json"; };
  const auto planned_first = [&](std::size_t i) {
    const auto& k = cfg_.kill_at_snapshot;
    return manifest.jobs[i].attempts == 1 && std::find(k.begin(), k.end(), i) != k.end();
  };
  const auto has_snapshot = [&](std::size_t i) {
    return !ckpt::newest_valid(job_dir(i), 0).empty();
  };
  const ChildFn body =
      child ? child
            : ChildFn{[](std::size_t i, const ExperimentConfig& c, const std::string& p, int) {
                return run_sweep_job(i, c, p);
              }};

  obs::MetricsRegistry scratch;
  obs::MetricsRegistry& m = cfg_.metrics != nullptr ? *cfg_.metrics : scratch;
  obs::Counter& c_spawns = m.counter("harness.spawns");
  obs::Counter& c_retries = m.counter("harness.retries");
  obs::Counter& c_timeouts = m.counter("harness.timeouts");
  obs::Counter& c_exits = m.counter("harness.exits_nonzero");
  obs::Counter& c_crashes = m.counter("harness.crashes");
  obs::Counter& c_succeeded = m.counter("harness.jobs_succeeded");
  obs::Counter& c_exhausted = m.counter("harness.jobs_exhausted");
  obs::Counter& c_salvaged = m.counter("harness.results_salvaged");
  obs::Counter& c_resumed = m.counter("harness.jobs_resumed");
  obs::Counter& c_ckpt_restores = m.counter("harness.ckpt.restores");
  obs::Counter& c_ckpt_fallbacks = m.counter("harness.ckpt.fallbacks");
  obs::Histogram& h_attempt_ms = m.histogram("harness.attempt_ms");

  const auto t0 = Clock::now();
  const auto trace_now = [&] {
    return sim::Time::nanoseconds(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
  };

  CampaignOutcome out;
  out.results.resize(grid.size());

  // Resume pass: keep Succeeded jobs whose summary still parses;
  // everything else (including jobs that were Running when a previous
  // campaign process died) starts over from Pending. The directory names
  // are the caller's, never the manifest's.
  for (std::size_t i = 0; i < grid.size(); ++i) {
    JobEntry& j = manifest.jobs[i];
    j.index = i;
    j.dir = grid[i].dir;
    if (j.state == JobState::Succeeded) {
      JobResult r;
      if (load_job_result(summary(i), r)) {
        r.value = j.value;
        out.results[i] = r;
        c_resumed.inc();
        c_salvaged.inc();
        continue;
      }
    }
    j.state = JobState::Pending;
    j.attempts = 0;
    j.last_error.clear();
  }
  manifest.save(cfg_.campaign_dir);

  if (cfg_.tracer != nullptr) {
    for (std::size_t i = 0; i < grid.size(); ++i) {
      cfg_.tracer->name_flow(static_cast<std::uint32_t>(i),
                             "job " + std::to_string(i) + " (" + manifest.param + "=" +
                                 manifest.jobs[i].value.label() + ")");
    }
  }

  std::vector<Clock::time_point> ready(grid.size(), t0);  // earliest next spawn per job
  std::vector<int> free_attempts(grid.size(), 0);         // planned kills: not retries
  std::vector<RunningChild> running;

  const auto runnable = [&](std::size_t i) {
    const JobState s = manifest.jobs[i].state;
    return (s == JobState::Pending || s == JobState::Failed) && ready[i] <= Clock::now();
  };
  const auto unsettled = [&] {
    for (const JobEntry& j : manifest.jobs) {
      if (j.state == JobState::Pending || j.state == JobState::Failed ||
          j.state == JobState::Running) {
        return true;
      }
    }
    return false;
  };

  // Handle one finished attempt of `job` (waitpid status `st`); decides
  // Succeeded / Failed-with-backoff / Exhausted / planned resume and
  // persists the manifest.
  const auto settle = [&](std::size_t job, int st, Kill kill, Clock::time_point started) {
    using Code = obs::JobOutcomeCode;
    JobEntry& j = manifest.jobs[job];
    const int attempt = j.attempts;  // 1-based count of spawns so far
    const auto id = static_cast<std::uint32_t>(job);
    h_attempt_ms.add(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - started).count()));
    const auto failed = [&](std::string error, obs::Counter& c, Code code, int aux) {
      j.last_error = std::move(error);
      c.inc();
      if (cfg_.tracer != nullptr) cfg_.tracer->job_outcome(trace_now(), id, code, attempt, aux);
    };
    const bool exit0 = WIFEXITED(st) && WEXITSTATUS(st) == 0;

    // A planned kill, or a marked first attempt that finished before the
    // kill landed: one more attempt, at once, resumes from the snapshot.
    if (planned_first(job) && (kill == Kill::Planned || exit0) && has_snapshot(job)) {
      j.state = JobState::Pending;
      free_attempts[job] = 1;
      manifest.save(cfg_.campaign_dir);
      return;
    }

    JobResult r;
    if (exit0 && planned_first(job)) {
      // A marked job that finished without a snapshot has nothing to resume.
      failed("no snapshot", c_exits, Code::MissingResult, 0);
    } else if (exit0 && load_job_result(summary(job), r)) {
      // A clean exit 0 wins even if the watchdog fired in the race window
      // between the last poll and the kill.
      r.value = j.value;
      out.results[job] = r;
      j.state = JobState::Succeeded;
      j.last_error.clear();
      c_succeeded.inc();
      c_salvaged.inc();
      if (cfg_.tracer != nullptr) cfg_.tracer->job_outcome(trace_now(), id, Code::Ok, attempt, 0);
      manifest.save(cfg_.campaign_dir);
      return;
    } else if (exit0) {
      failed("missing result", c_exits, Code::MissingResult, 0);
    } else if (kill == Kill::Watchdog) {
      failed("timeout", c_timeouts, Code::Timeout, SIGKILL);
    } else if (WIFSIGNALED(st)) {
      failed("signal " + std::to_string(WTERMSIG(st)), c_crashes, Code::Signal, WTERMSIG(st));
    } else {
      const int code = WIFEXITED(st) ? WEXITSTATUS(st) : -1;
      failed("exit " + std::to_string(code), c_exits, Code::Exit, code);
    }

    if (j.attempts > cfg_.retries + free_attempts[job]) {
      j.state = JobState::Exhausted;
      c_exhausted.inc();
      if (cfg_.tracer != nullptr) cfg_.tracer->job_exhausted(trace_now(), id, j.attempts);
    } else {
      j.state = JobState::Failed;
      const double backoff = retry_backoff_s(cfg_.backoff_base_s, j.attempts - 1, job);
      ready[job] = Clock::now() + dur_s(backoff);
      c_retries.inc();
      if (cfg_.tracer != nullptr) cfg_.tracer->job_retry(trace_now(), id, j.attempts, backoff);
    }
    manifest.save(cfg_.campaign_dir);
  };

  for (;;) {
    // Spawn phase: fill free worker slots with the first ready job of
    // spawn_first, else the lowest-index ready job.
    while (running.size() < cfg_.workers) {
      std::size_t pick = grid.size();
      for (std::size_t i : cfg_.spawn_first) {
        if (i < grid.size() && runnable(i)) {
          pick = i;
          break;
        }
      }
      for (std::size_t i = 0; i < grid.size() && pick == grid.size(); ++i) {
        if (runnable(i)) pick = i;
      }
      if (pick == grid.size()) break;

      JobEntry& j = manifest.jobs[pick];
      j.state = JobState::Running;
      ++j.attempts;

      // Every attempt runs in the job's directory. Checkpoint-aware retry:
      // a checkpointing job's snapshots land there too, and a retry resumes
      // from the newest snapshot that still verifies (CRC + fingerprint),
      // falling back through older ones — or a fresh start — when the
      // newest is truncated or bit-flipped. The lineage column makes the
      // decision auditable per attempt in sweep_manifest.json.
      const std::string dir = job_dir(pick);
      std::error_code ec;
      std::filesystem::create_directories(dir, ec);
      ExperimentConfig eff = grid[pick].cfg;
      eff.checkpoint.dir = dir;
      if (eff.checkpoint.every > sim::Time::zero()) {
        std::string resumed_from = "fresh";
        // A retry within this campaign process (attempts > 1) or a job that
        // already ran in a resumed campaign (non-empty lineage) prefers the
        // newest snapshot it left behind.
        if (j.attempts > 1 || !j.lineage.empty()) {
          const std::uint64_t fp = ckpt::config_fingerprint(eff);
          const std::string best = ckpt::newest_valid(dir, fp, /*verbose=*/true);
          if (!best.empty()) {
            eff.checkpoint.restore_path = best;
            resumed_from = best.substr(best.find_last_of('/') + 1);
            c_ckpt_restores.inc();
            ckpt::Header h;
            if (cfg_.tracer != nullptr && ckpt::probe_file(best, fp, h)) {
              std::error_code fec;
              const auto sz = std::filesystem::file_size(best, fec);
              cfg_.tracer->ckpt_restore(trace_now(), h.seq, fec ? 0 : sz,
                                        sim::Time::nanoseconds(h.t_ns).us());
            }
          } else {
            // A prior attempt ran but left no usable snapshot: fresh start.
            c_ckpt_fallbacks.inc();
          }
        }
        j.lineage.push_back(resumed_from);
      }

      manifest.save(cfg_.campaign_dir);
      c_spawns.inc();
      if (cfg_.tracer != nullptr) {
        cfg_.tracer->job_spawn(trace_now(), static_cast<std::uint32_t>(pick), j.attempts);
      }

      // Flush stdio so the child does not replay buffered parent output.
      std::fflush(stdout);
      std::fflush(stderr);
      const pid_t pid = ::fork();
      if (pid == 0) {
        // Child: run the job body and leave without running atexit hooks —
        // the parent's state (manifest, tracer, stdio) is not ours to touch.
        int code = 125;
        try {
          code = body(pick, eff, dir, j.attempts - 1);
        } catch (...) {
          code = 125;
        }
        std::_Exit(code);
      }
      if (pid < 0) {
        // fork failed (EAGAIN/ENOMEM): count it as a failed attempt so the
        // campaign backs off instead of spinning.
        settle(pick, 0x7f00 /* synthetic "exit 127" */, Kill::None, Clock::now());
        continue;
      }
      const auto now = Clock::now();
      running.push_back({pid, pick, now,
                         cfg_.job_timeout_s > 0 ? now + dur_s(cfg_.job_timeout_s)
                                                : Clock::time_point::max()});
    }

    if (running.empty()) {
      if (!unsettled()) break;           // campaign quiescent: all terminal
      std::this_thread::sleep_for(kPoll);  // backoff wait
      continue;
    }

    // Reap phase: non-blocking wait on every child; SIGKILL watchdog
    // overruns and planned kills whose snapshot is on disk (published by
    // an atomic rename, so complete), and reap them synchronously.
    bool reaped = false;
    for (auto it = running.begin(); it != running.end();) {
      int st = 0;
      const pid_t r = ::waitpid(it->pid, &st, WNOHANG);
      Kill kill = Kill::None;
      if (r == 0) {
        if (Clock::now() > it->deadline) {
          kill = Kill::Watchdog;
        } else if (planned_first(it->job) && has_snapshot(it->job)) {
          kill = Kill::Planned;
        } else {
          ++it;
          continue;
        }
        ::kill(it->pid, SIGKILL);
        ::waitpid(it->pid, &st, 0);
      }
      settle(it->job, st, kill, it->start);
      it = running.erase(it);
      reaped = true;
    }
    if (!reaped) std::this_thread::sleep_for(kPoll);
  }

  out.jobs = manifest.jobs;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (!out.results[i]) out.incomplete.push_back(i);
  }
  return out;
}

int run_sweep_job(std::size_t index, const ExperimentConfig& cfg, const std::string& job_dir) {
  try {
    const ExperimentResults res = run_experiment(cfg);
    for (const std::string& flag : res.unwritten) {
      std::fprintf(stderr, "job %zu: could not write %s\n", index, flag.c_str());
    }
    if (!export_summary_json(cfg, res, job_dir + "/summary.json") || !res.unwritten.empty() ||
        (!res.series.rows.empty() && !export_series_csv(res, job_dir + "/series.csv"))) {
      return 5;
    }
    return res.invariant_violations.empty() ? 0 : 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "job %zu: %s\n", index, e.what());
    return 4;
  } catch (...) {
    return 4;
  }
}

bool load_job_result(const std::string& path, JobResult& out, std::string* error) {
  json::JsonValue root;
  if (!json::parse_file(path, root, error)) return false;
  const auto count = [](const json::JsonValue& v) { return static_cast<std::uint64_t>(v.number); };
  // A distribution with no samples carries only its count: absent
  // quantiles read as 0.
  const auto quantiles = [&](const json::JsonValue& q, JobResult::FctQuantiles& o) {
    o.count = count(q.at("count"));
    o.mean = q.has("mean") ? q.at("mean").number : 0.0;
    o.p50 = q.has("p50") ? q.at("p50").number : 0.0;
    o.p95 = q.has("p95") ? q.at("p95").number : 0.0;
    o.p99 = q.has("p99") ? q.at("p99").number : 0.0;
  };
  // at() throws on a missing key or a non-object parent: the file is not
  // a run summary (a job file of the older hand-written format, say).
  try {
    const json::JsonValue& summary = root.at("summary");
    out = JobResult{};
    out.goodput_mbps = summary.at("avg_goodput_mbps").number;
    out.events = count(summary.at("events"));
    out.flows = count(summary.at("flows"));
    out.aborted_flows = count(summary.at("aborted_flows"));
    out.completed_flows = count(root.at("goodput_mbps").at("all").at("count"));
    if (root.has("fct")) {
      const json::JsonValue& fct = root.at("fct");
      out.has_fct = true;
      out.fct_load = fct.at("offered_load").number;
      out.fct_completed = count(fct.at("completed"));
      out.fct_censored = count(fct.at("censored"));
      quantiles(fct.at("all"), out.fct_all);
      for (int b = 0; b < ExperimentResults::FctStats::kBins; ++b) {
        quantiles(fct.at("bins").at(ExperimentResults::FctStats::bin_name(b)),
                  out.fct_bins[static_cast<std::size_t>(b)]);
      }
    }
  } catch (const std::runtime_error& e) {
    if (error != nullptr) *error = path + ": not a run summary (" + e.what() + ")";
    return false;
  }
  return true;
}

}  // namespace xmp::core
