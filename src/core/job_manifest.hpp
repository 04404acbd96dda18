#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace xmp::trace {
class JsonWriter;
}

namespace xmp::core {

/// One swept parameter value. Integer knobs (seed, mark-k, beta, subflows,
/// queue) stay exact integers in the sweep table, sweep_summary.json and
/// the manifest: a double cannot hold every seed above 2^53, so two distinct
/// seeds would print, store and compare as one. --param=load is real-valued.
struct SweepValue {
  bool integral = false;
  std::int64_t i = 0;  ///< the value, when integral
  double d = 0.0;      ///< the value, otherwise

  [[nodiscard]] static SweepValue of_int(std::int64_t v) { return {true, v, 0.0}; }
  [[nodiscard]] static SweepValue of_real(double v) { return {false, 0, v}; }
  /// The table label: "%lld" when integral, "%g" otherwise.
  [[nodiscard]] std::string label() const;
  /// A JSON number: exact when integral, JsonWriter's double ("%.9g")
  /// otherwise, as the sweep tables print it.
  void write(trace::JsonWriter& json) const;
  /// A JSON number that reads back as this exact value: a real in its
  /// shortest round-trip form. The manifest stores values this way, so a
  /// resumed campaign rebuilds the same grid.
  void write_exact(trace::JsonWriter& json) const;
  /// Integers compare exactly. Otherwise the doubles compare, so a load of
  /// 1, which the manifest stores as the literal `1`, still matches.
  friend bool operator==(const SweepValue& a, const SweepValue& b) {
    if (a.integral && b.integral) return a.i == b.i;
    const auto real = [](const SweepValue& v) {
      return v.integral ? static_cast<double>(v.i) : v.d;
    };
    return real(a) == real(b);
  }
};

/// Lifecycle of one sweep job inside a campaign (DESIGN.md §10):
///
///   Pending ──spawn──▶ Running ──exit 0 + result──▶ Succeeded
///                         │
///                         └──exit!=0 / signal / timeout──▶ Failed
///                                │                            │
///          retries left: back to Running after backoff ◀──────┤
///                                │                            │
///                                └──retries exhausted──▶ Exhausted
///
/// Failed is a *transient* state (the job will be respawned after its
/// backoff); Succeeded and Exhausted are terminal.
enum class JobState : std::uint8_t { Pending, Running, Succeeded, Failed, Exhausted };

[[nodiscard]] const char* job_state_name(JobState s);
[[nodiscard]] bool parse_job_state(const std::string& name, JobState& out);

/// One job row of the campaign manifest.
struct JobEntry {
  std::size_t index = 0;    ///< position in the sweep grid
  SweepValue value;         ///< swept parameter value of this grid point
  JobState state = JobState::Pending;
  int attempts = 0;         ///< child processes spawned so far for this job
  std::string result_file;  ///< campaign-dir-relative result JSON ("job_<i>.json")
  std::string last_error;   ///< "", "exit N", "signal N", "timeout", "missing result"
  /// Checkpoint lineage, one entry per spawned attempt: "fresh" for a clean
  /// start, or the ckpt_<seq>.bin file the attempt resumed from. Empty when
  /// the campaign runs without --checkpoint-every.
  std::vector<std::string> lineage;
};

/// Per-campaign sweep manifest, persisted as sweep_manifest.json in the
/// campaign directory. Saved atomically (temp file + fsync + rename) after
/// every job-state transition, so a campaign killed at any instant — even
/// SIGKILL mid-write — leaves a consistent manifest behind. On
/// `xmpsim sweep --resume <dir>` the stored argv rebuilds the grid,
/// Succeeded jobs with a parseable result file are skipped, and everything
/// else re-runs from Pending.
struct JobManifest {
  static constexpr int kVersion = 1;
  static constexpr const char* kFileName = "sweep_manifest.json";

  std::string param;              ///< swept parameter name (--param)
  std::vector<std::string> argv;  ///< original sweep arguments, verbatim
  std::vector<JobEntry> jobs;

  /// Atomic write of <dir>/sweep_manifest.json. Returns false and sets
  /// *error on I/O failure.
  bool save(const std::string& dir, std::string* error = nullptr) const;

  /// Load <dir>/sweep_manifest.json. Returns false and sets *error when the
  /// file is missing, malformed, or a different manifest version.
  static bool load(const std::string& dir, JobManifest& out, std::string* error = nullptr);
};

/// Deterministic retry backoff: base * 2^attempt stretched by up to +50%
/// jitter. The jitter is derived from (job index, attempt) via splitmix64 —
/// never rand() — so a replayed campaign schedules retries at identical
/// offsets, while concurrent failing jobs still decorrelate instead of
/// thundering back in lockstep. `attempt` counts prior failures (0 = first
/// retry).
[[nodiscard]] double retry_backoff_s(double base_s, int attempt, std::size_t job_index);

}  // namespace xmp::core
