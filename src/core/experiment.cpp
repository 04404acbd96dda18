#include "core/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/worker_pool.hpp"
#include "core/world.hpp"
#include "net/handoff.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "sim/scheduler.hpp"
#include "stats/distribution.hpp"
#include "workload/permutation.hpp"

// The conservative-sync epoch loop (DESIGN.md §11), the one engine.
//
// The fabric is partitioned into logical shards at topology-construction
// time: one per pod (plus the round-robin core assignment) for a
// non-hybrid Permutation, one for every other traffic source. cfg.shards
// only sizes the worker pool, so every run is bit-identical across worker
// counts by construction. Shards advance in epochs of length
//
//   L = min cross-shard propagation delay  (the lookahead),
//
// executing events strictly before the epoch boundary in parallel: a packet
// another shard sends during the same epoch cannot arrive earlier than
// epoch_start + L, so nothing a shard runs inside the window can be
// invalidated. Links start transmissions lazily (DESIGN.md §6), so each
// shard's task ends with a sweep of its boundary links that starts every
// transmission due before the boundary: all of them are handed off at
// this barrier. A one-shard fabric has no cross-shard links; its epochs
// take the core-link delay, the k-shard value, so snapshots and stop
// requests are served at the same barriers. A pinned testbed has no
// k-shard value: its epochs take kTestbedEpoch. Each shard's inbound packets
// are drained in a fixed (src, FIFO) order per destination and its clock
// advanced to the boundary: by the workers in a drain phase at the
// barrier, or, when nothing needs a quiesced fabric before the next epoch,
// by each shard's next epoch task before it runs (a deferred drain: one
// pool.run per epoch). Then the control strand (RTT probe, fault plan,
// route manager, invariant checker, hybrid fluid tick, Permutation round
// ends) runs with the whole fabric quiesced.
//
// A round end is a control event at least L after the completion that
// scheduled it, so it lands on a barrier like any other control event and
// the loop never reads the workload.

namespace xmp::core {

namespace {

/// The epoch of a pinned testbed, which runs on one logical shard. Its
/// results do not depend on it (control events bound every epoch); it only
/// spaces the barriers where snapshots and stop requests are served.
constexpr sim::Time kTestbedEpoch = sim::Time::milliseconds(1);

}  // namespace

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

bool is_testbed(const ExperimentConfig& cfg) {
  return cfg.pattern == Pattern::Workload && cfg.workload && cfg.workload->pinned;
}

int logical_shards(const ExperimentConfig& cfg) {
  return cfg.pattern == Pattern::Permutation && !cfg.hybrid.enabled ? cfg.fat_tree_k : 1;
}

int worker_count(const ExperimentConfig& cfg) {
  return std::clamp(cfg.shards, 1, logical_shards(cfg));
}

ExperimentResults run_experiment(const ExperimentConfig& cfg) {
  WorkerPool pool{static_cast<unsigned>(worker_count(cfg))};
  // The engine thread observes as the control strand for the whole run
  // (epoch/barrier markers, control events); each worker observes into its
  // shard's tracer.
  sim::Scheduler control;
  net::ShardFabric fabric{logical_shards(cfg)};
  World w{cfg, control, fabric};
  const int n_shards = fabric.n_shards();

  const sim::Time horizon = cfg.duration;
  const sim::Time lookahead = fabric.has_cross_links() ? fabric.lookahead()
                              : w.tree                   ? w.tree->config().core_delay
                                                         : kTestbedEpoch;

  bool done = false;
  sim::Time final_time = horizon;
  if (w.perm) {
    // A worker schedules a round end from inside an epoch; it must not fall
    // before that epoch's boundary.
    assert(w.perm->round_gap() >= lookahead && "a round end must land on a barrier");
    // The last round end, a control event: the control clock stands at it.
    w.perm->set_on_done([&done, &final_time, &control] {
      done = true;
      final_time = control.now();
    });
  }
  if (cfg.checkpoint.restore_path.empty()) {
    w.start();
  } else {
    w.restore();
  }

  ExperimentResults::ShardStats& stats = w.res.shard;
  // Packets each shard parked during one epoch, summed in shard order at
  // its barrier.
  std::vector<std::uint64_t> parked(static_cast<std::size_t>(n_shards));
  // The last barrier's drain runs at the start of the next epoch's tasks.
  // The counter is live (not summed at the end) so a snapshot carries it.
  bool drain_deferred = false;
  obs::Counter* deferred_drains =
      w.registry ? &w.registry->counter("harness.shard.deferred_drains") : nullptr;
  auto drain_at = [&](sim::Time b) {
    pool.run(n_shards, [&fabric, b](int s) {
      fabric.drain_into(s);
      fabric.sched(s).advance_clock_to(b);
    });
  };

  // Snapshots happen only at barriers, where handoff channels are drained
  // and every clock is aligned — the engine's quiescent points.
  const std::atomic<bool>* stop_flag = cfg.checkpoint.stop_requested;
  sim::Time next_ckpt = w.next_checkpoint(control.now());

  sim::Time start = control.now();
  while (!done && start < horizon) {
    // ---- epoch [start, b) ----
    sim::Time b = start + lookahead;
    const sim::Time ct = control.next_time();
    if (ct < b) b = ct;  // the control strand defines the next boundary
    if (b > horizon) b = horizon;
    if (auto* tr = obs::tracer(); tr != nullptr) [[unlikely]] {
      tr->shard_epoch(start, w.next_epoch, b.us());
    }

    pool.run(n_shards, [&fabric, &w, &parked, start, b, drain_first = drain_deferred](int s) {
      obs::ObservationScope shard_scope{
          w.shard_tracers.empty() ? nullptr : w.shard_tracers[static_cast<std::size_t>(s)].get(),
          w.sim_metrics.get()};
      sim::Scheduler& sched = fabric.sched(s);
      if (drain_first) {
        fabric.drain_into(s);
        sched.advance_clock_to(start);
      }
      sched.run_before(b);
      fabric.settle_boundary(s, b);
      parked[static_cast<std::size_t>(s)] = fabric.parked_by(s);
    });

    // ---- barrier: every shard's inbound handoffs are drained and its
    // clock aligned, either now or (deferred) by its next task; then the
    // control strand runs on this thread. A round end a worker scheduled
    // during the epoch is visible here: pool.run returned after every task
    // ended. ----
    fabric.flip();
    std::uint64_t drained = 0;
    for (const std::uint64_t p : parked) drained += p;
    stats.handoff_packets += drained;
    // The drain waits for the next epoch when nothing before it needs a
    // quiesced fabric: no control event at b, no horizon pass and no
    // snapshot. Each shard's next task drains its own inbound packets
    // before it runs, which reserves the same keys as a drain here. A stop
    // request is not consulted: the loop below completes a deferred drain
    // before it snapshots, so the decision is a pure function of
    // simulation state.
    drain_deferred = control.next_time() > b && b < horizon && b < next_ckpt;
    if (drain_deferred) {
      if (deferred_drains != nullptr) deferred_drains->inc();
    } else {
      drain_at(b);
    }
    control.advance_clock_to(b);
    control.run_until(b);
    ++stats.epochs;
    ++stats.barriers;
    if (auto* tr = obs::tracer(); tr != nullptr) [[unlikely]] {
      tr->shard_barrier(b, w.next_epoch, drained);
    }
    start = b;
    ++w.next_epoch;

    // ---- quiescent point: channels drained, every clock == start (once a
    // deferred drain has run) ----
    if (done) break;
    if (stop_flag != nullptr && stop_flag->load()) {
      if (drain_deferred) drain_at(start);
      w.write_checkpoint();
      w.res.ckpt.interrupted = true;
      final_time = start;  // partial summary covers [0, halt)
      break;
    }
    if (start >= next_ckpt) {
      w.write_checkpoint();
      next_ckpt = w.next_checkpoint(start);
    }
  }

  if (!done && !w.res.ckpt.interrupted) {
    // Horizon pass: events at exactly t == horizon still run, the control
    // strand's first (equal-time events on different shards cannot
    // interact within the instant).
    control.run_until(horizon);
    for (int s = 0; s < n_shards; ++s) fabric.sched(s).run_until(horizon);
    final_time = horizon;
  }

  w.collect(final_time, fabric.total_dispatched() + control.dispatched());

  stats.logical_shards = n_shards;
  stats.lookahead_us = lookahead.us();
  if (w.registry) {
    obs::MetricsRegistry& reg = *w.registry;
    reg.counter("harness.shard.logical_shards").inc(static_cast<std::uint64_t>(n_shards));
    reg.counter("harness.shard.epochs").inc(stats.epochs);
    reg.counter("harness.shard.barriers").inc(stats.barriers);
    reg.counter("harness.shard.handoff_packets").inc(stats.handoff_packets);
  }
  w.export_obs();
  return std::move(w.res);
}

}  // namespace xmp::core
