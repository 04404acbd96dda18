#include "core/experiment.hpp"

#include <atomic>
#include <optional>
#include <string>
#include <utility>

#include "core/world.hpp"
#include "sim/scheduler.hpp"
#include "stats/distribution.hpp"

namespace xmp::core {

const char* pattern_name(Pattern p) {
  switch (p) {
    case Pattern::Permutation:
      return "Permutation";
    case Pattern::Random:
      return "Random";
    case Pattern::Incast:
      return "Incast";
    case Pattern::Workload:
      return "Workload";
  }
  return "?";
}

const char* ExperimentResults::FctStats::bin_name(int b) {
  switch (b) {
    case 0: return "0-10K";
    case 1: return "10K-100K";
    case 2: return "100K-1M";
    case 3: return "1M-10M";
    case 4: return ">10M";
  }
  return "?";
}

int ExperimentResults::FctStats::bin_of(std::int64_t bytes) {
  if (bytes < 10'000) return 0;
  if (bytes < 100'000) return 1;
  if (bytes < 1'000'000) return 2;
  if (bytes < 10'000'000) return 3;
  return 4;
}

double ExperimentResults::avg_job_completion_ms() const {
  stats::Distribution d;
  for (const auto& j : jobs) {
    if (j.completed) d.add(j.completion_time().ms());
  }
  return d.mean();
}

double ExperimentResults::job_completion_over_ms(double threshold_ms) const {
  std::size_t total = 0;
  std::size_t over = 0;
  for (const auto& j : jobs) {
    if (!j.completed) continue;
    ++total;
    if (j.completion_time().ms() > threshold_ms) ++over;
  }
  if (total == 0) return 0.0;
  return static_cast<double>(over) / static_cast<double>(total);
}

// The serial engine: one scheduler, run to the horizon in segments that
// end at the checkpoint boundaries (DESIGN.md §12). Between events is
// always a quiescent point in a serial DES.
ExperimentResults run_experiment(const ExperimentConfig& cfg) {
  if (cfg.shards > 0) return run_experiment_sharded(cfg);
  const std::optional<RestoreImage> image = read_restore_image(cfg);
  sim::Scheduler sched;
  World w{cfg, sched, nullptr};
  if (w.perm) w.perm->set_on_done([&sched] { sched.stop(); });
  if (image) {
    w.apply_restore(image->h, image->payload);
  } else {
    w.start();
  }

  const std::atomic<bool>* stop_flag = cfg.checkpoint.stop_requested;
  sched.set_external_stop(stop_flag);
  for (;;) {
    const sim::Time boundary = w.next_checkpoint(sched.now());
    sched.run_until(boundary < cfg.duration ? boundary : cfg.duration);
    if (stop_flag != nullptr && stop_flag->load()) {
      // Halted between events: a final snapshot at whatever t it reached.
      w.write_checkpoint();
      w.res.ckpt.interrupted = true;
      break;
    }
    if (sched.stopped()) break;           // the workload ended the run early
    if (boundary >= cfg.duration) break;  // reached the horizon
    w.write_checkpoint();
  }
  sched.set_external_stop(nullptr);

  w.collect(sched.now(), sched.dispatched());
  w.export_obs();
  return std::move(w.res);
}

}  // namespace xmp::core
