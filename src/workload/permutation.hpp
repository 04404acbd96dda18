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
class PermutationTraffic {
 public:
  struct Config {
    std::int64_t min_bytes = 2'000'000;   ///< paper: 64 MB (scaled 32x down)
    std::int64_t max_bytes = 16'000'000;  ///< paper: 512 MB (scaled 32x down)
    int rounds = 2;
  };

  PermutationTraffic(sim::Scheduler& sched, topo::HostPool& topo, FlowManager& flows,
                     sim::Rng rng, const Config& cfg)
      : sched_{sched}, topo_{topo}, flows_{flows}, rng_{rng}, cfg_{cfg} {}

  void start() { start_round(); }

  [[nodiscard]] bool done() const { return completed_rounds_ >= cfg_.rounds; }
  [[nodiscard]] int completed_rounds() const { return completed_rounds_; }

  /// Fires when the configured number of rounds has completed.
  void set_on_done(std::function<void()> fn) { on_done_ = std::move(fn); }

  // --- Sharded-engine sync gate -------------------------------------------
  // A round flip (start_round / on_done_) touches every shard, so it must
  // run in a serial context. The engine marks parallel epochs; if the last
  // flow of a round completes inside one, the flip is *deferred* and the
  // flag tells the engine to replay that epoch serially.

  /// Flows of the current round still in flight.
  [[nodiscard]] int pending_flows() const { return outstanding_.load(std::memory_order_relaxed); }
  /// Engine hook: bracket parallel epoch execution.
  void set_parallel_phase(bool on) { parallel_phase_.store(on, std::memory_order_relaxed); }
  /// True once a round completion was deferred (the round did NOT flip; the
  /// engine must replay from a serial context). Sticky for the attempt.
  [[nodiscard]] bool deferred_done() const {
    return deferred_done_.load(std::memory_order_relaxed);
  }

  /// Checkpoint the RNG and round progress. The parallel-phase flags are
  /// transient per-epoch state, always clear at a quiescent point.
  void checkpoint(core::ckpt::Io& io) {
    io.rng(rng_);
    io.i64(completed_rounds_);
    int outstanding = outstanding_.load(std::memory_order_relaxed);
    io.i64(outstanding);
    outstanding_.store(outstanding, std::memory_order_relaxed);
  }
  /// Completion-callback target for flows re-bound after a restore.
  void restored_flow_done() { on_flow_done(); }

 private:
  void start_round();
  void on_flow_done();

  sim::Scheduler& sched_;
  topo::HostPool& topo_;
  FlowManager& flows_;
  sim::Rng rng_;
  Config cfg_;
  int completed_rounds_ = 0;
  std::atomic<int> outstanding_{0};
  std::atomic<bool> parallel_phase_{false};
  std::atomic<bool> deferred_done_{false};
  std::function<void()> on_done_;
};

}  // namespace xmp::workload
