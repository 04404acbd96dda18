#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "topo/host_pool.hpp"
#include "workload/flow_manager.hpp"

namespace xmp::workload {

/// The paper's Permutation pattern (§5.2.1): every host sends one large
/// flow to a distinct random host (a random permutation with no fixed
/// point); when *all* flows of the round finish, a new permutation starts.
///
/// A round ends with an event on `sched` (the control strand of a sharded
/// run), `round_gap` after the round's latest completion. The completion
/// that takes the round's outstanding count to zero schedules it, on
/// whichever thread finishes that flow; the event then starts the next
/// round or ends the run (DESIGN.md §11, "Round ends on the control
/// strand").
class PermutationTraffic {
 public:
  struct Config {
    std::int64_t min_bytes = 2'000'000;   ///< paper: 64 MB (scaled 32x down)
    std::int64_t max_bytes = 16'000'000;  ///< paper: 512 MB (scaled 32x down)
    int rounds = 2;
    /// From a round's latest completion to its round-end event. World sets
    /// the Fat-Tree core-link delay, which is also the sharded lookahead.
    sim::Time round_gap = sim::Time::zero();
  };

  PermutationTraffic(sim::Scheduler& sched, topo::HostPool& topo, FlowManager& flows,
                     sim::Rng rng, const Config& cfg)
      : sched_{sched}, topo_{topo}, flows_{flows}, rng_{rng}, cfg_{cfg} {}

  void start() { start_round(); }

  [[nodiscard]] bool done() const { return completed_rounds_ >= cfg_.rounds; }
  [[nodiscard]] int completed_rounds() const { return completed_rounds_; }
  [[nodiscard]] sim::Time round_gap() const { return cfg_.round_gap; }

  /// Fires (from the last round-end event) when the configured number of
  /// rounds has completed.
  void set_on_done(std::function<void()> fn) { on_done_ = std::move(fn); }

  /// Checkpoint the RNG, round progress and the pending round-end event.
  void checkpoint(core::ckpt::Io& io) {
    io.rng(rng_);
    io.i64(completed_rounds_);
    int outstanding = outstanding_.load(std::memory_order_relaxed);
    io.i64(outstanding);
    outstanding_.store(outstanding, std::memory_order_relaxed);
    std::int64_t latest = latest_done_ns_.load(std::memory_order_relaxed);
    io.i64(latest);
    latest_done_ns_.store(latest, std::memory_order_relaxed);
    io.opt_event(sched_, round_end_, [this] { end_round(); });
  }
  /// Completion-callback target for flows re-bound after a restore.
  void restored_flow_done() { on_flow_done(); }

 private:
  void start_round();
  void on_flow_done();
  void end_round();

  sim::Scheduler& sched_;
  topo::HostPool& topo_;
  FlowManager& flows_;
  sim::Rng rng_;
  Config cfg_;
  int completed_rounds_ = 0;
  // Flows of different shards finish concurrently inside an epoch; both
  // counters are atomics for that reason alone.
  std::atomic<int> outstanding_{0};
  std::atomic<std::int64_t> latest_done_ns_{0};  ///< the round's latest completion
  sim::EventId round_end_ = sim::kInvalidEventId;
  std::function<void()> on_done_;
};

}  // namespace xmp::workload
