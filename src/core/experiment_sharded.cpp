#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/worker_pool.hpp"
#include "core/world.hpp"
#include "net/handoff.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "sim/scheduler.hpp"
#include "workload/permutation.hpp"

// The sharded conservative-sync engine (DESIGN.md §11).
//
// The fabric is partitioned into one *logical* shard per pod (plus the
// round-robin core assignment) at topology-construction time; cfg.shards
// only sizes the worker pool, so every run is bit-identical across worker
// counts by construction. Shards advance in epochs of length
//
//   L = min cross-shard propagation delay  (the lookahead),
//
// executing events strictly before the epoch boundary in parallel: a packet
// another shard sends during the same epoch cannot arrive earlier than
// epoch_start + L, so nothing a shard runs inside the window can be
// invalidated. Each shard's inbound packets are drained in a fixed
// (src, FIFO) order per destination and its clock advanced to the
// boundary: by the workers in a drain phase at the barrier, or, when
// nothing needs a quiesced fabric before the next epoch, by each shard's
// next epoch task before it runs (a deferred drain: one pool.run per
// epoch). Then the control strand (RTT probe, fault plan, route manager,
// invariant checker) runs with the whole fabric quiesced.
//
// Global transitions — a Permutation round flip fans flow construction out
// to every shard — must not run mid-epoch on a worker thread. The workload
// defers a round completion that lands inside a parallel epoch and flags
// the engine, which discards the attempt and replays it from scratch with
// that epoch pinned serial (micro-stepped in global (t, control-first,
// shard-index) order). A cheap gate makes replays rare: once a round has
// at most one flow left, the engine micro-steps until the next round is in
// full flight again.
//
// World building, checkpointing, collection and export are shared with the
// serial engine (core/world.hpp); this file is the epoch loop and its
// accounting.

namespace xmp::core {

namespace {

struct AttemptOutcome {
  bool ok = true;
  std::int64_t failed_epoch_start_ns = 0;  ///< epoch to pin serial on replay
  ExperimentResults res;
};

AttemptOutcome attempt(const ExperimentConfig& cfg, const std::set<std::int64_t>& forced,
                       WorkerPool& pool, std::uint64_t replays, const RestoreImage* image) {
  AttemptOutcome out;

  // The engine thread observes as the control strand for the whole attempt
  // (epoch/barrier markers, serial micro-steps, control events); each
  // worker observes into its shard's tracer.
  sim::Scheduler control;
  net::ShardFabric fabric{cfg.fat_tree_k};
  World w{cfg, control, &fabric};
  const int n_shards = fabric.n_shards();
  workload::PermutationTraffic& perm = *w.perm;  // the caller asserted the pattern

  bool done = false;
  sim::Time final_time = cfg.duration;
  perm.set_on_done([&done, &final_time, &control] {
    done = true;
    // Fires inside a serial micro-step, which first aligns every clock on
    // the step's time, or in the horizon pass, after the control clock
    // reached the horizon: either way the exact completion instant.
    final_time = control.now();
  });
  if (image != nullptr) {
    w.apply_restore(image->h, image->payload);
  } else {
    w.start();
  }

  // --- the epoch engine ---
  const sim::Time horizon = cfg.duration;
  // A fabric with no cross-shard links has unbounded lookahead; one epoch
  // spans the whole horizon. (Unreachable for a Fat-Tree, where pods only
  // connect through cores, but it keeps the math total.)
  const sim::Time lookahead = fabric.has_cross_links()
                                  ? fabric.lookahead()
                                  : horizon + sim::Time::nanoseconds(1);
  ExperimentResults::ShardStats& stats = w.res.shard;
  // Packets each shard parked during one parallel epoch, summed in shard
  // order at its barrier.
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

  auto all_clocks_to = [&](sim::Time t) {
    for (int s = 0; s < n_shards; ++s) fabric.sched(s).advance_clock_to(t);
    control.advance_clock_to(t);
  };

  // The strand with the earliest pending event; the control strand wins
  // ties, then ascending shard index — the canonical order that keeps
  // serial segments a pure function of simulation state.
  auto earliest = [&](sim::Time& t_out) -> sim::Scheduler* {
    sim::Scheduler* who = nullptr;
    sim::Time best = control.next_time();
    if (best < sim::Time::infinity()) who = &control;
    for (int s = 0; s < n_shards; ++s) {
      sim::Scheduler& ss = fabric.sched(s);
      const sim::Time t = ss.next_time();
      if (t < best) {
        best = t;
        who = &ss;
      }
    }
    t_out = best;
    return who;
  };

  // Snapshots happen only at barriers, where handoff channels are drained
  // and every clock is aligned — the sharded engine's quiescent points.
  const std::atomic<bool>* stop_flag = cfg.checkpoint.stop_requested;
  sim::Time next_ckpt = w.next_checkpoint(control.now());

  sim::Time start = control.now();

  while (!done && start < horizon) {
    const bool forced_serial = forced.count(start.ns()) > 0;
    const bool gate_serial = perm.pending_flows() <= 1;

    if (forced_serial || gate_serial) {
      // ---- serial segment: global one-event micro-steps ----
      assert(!drain_deferred && "a serial segment needs a drained fabric");
      const sim::Time serial_until = start + lookahead;
      if (auto* tr = obs::tracer(); tr != nullptr) [[unlikely]] {
        tr->shard_epoch(start, w.next_epoch, serial_until.us(), /*serial=*/true);
      }
      sim::Time seg_t = start;
      for (;;) {
        sim::Time t;
        sim::Scheduler* s = earliest(t);
        if (s == nullptr || t > horizon) {
          seg_t = horizon;
          break;
        }
        // The segment ends once the next round is in full flight again and
        // one full lookahead window has been stepped through.
        if (t >= serial_until && perm.pending_flows() > 1) break;
        // No strand holds an event before `t`, so every clock moves there
        // first: a flow the step starts on another shard (a round flip)
        // schedules from `t`, never behind that shard's clock.
        all_clocks_to(t);
        s->step_one();
        ++stats.micro_steps;
        stats.handoff_packets += fabric.drain_all();
        seg_t = t;
        if (done) break;
        // Clocks are aligned and handoffs drained right here, so an external
        // stop can cut the segment short and still checkpoint safely below.
        if (stop_flag != nullptr && stop_flag->load()) break;
      }
      ++stats.barriers;
      if (auto* tr = obs::tracer(); tr != nullptr) [[unlikely]] {
        tr->shard_barrier(seg_t, w.next_epoch, 0);
      }
      start = seg_t > start ? seg_t : start;
    } else {
      // ---- parallel epoch [start, b) ----
      sim::Time b = start + lookahead;
      const sim::Time ct = control.next_time();
      if (ct < b) b = ct;  // the control strand defines the next boundary
      if (b > horizon) b = horizon;
      if (auto* tr = obs::tracer(); tr != nullptr) [[unlikely]] {
        tr->shard_epoch(start, w.next_epoch, b.us(), /*serial=*/false);
      }

      perm.set_parallel_phase(true);
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
        parked[static_cast<std::size_t>(s)] = fabric.parked_by(s);
      });
      perm.set_parallel_phase(false);

      if (perm.deferred_done()) {
        // A round completed mid-epoch; the flip must run serially. Discard
        // this attempt and replay with this epoch pinned.
        out.ok = false;
        out.failed_epoch_start_ns = start.ns();
        return out;
      }

      // ---- barrier: every shard's inbound handoffs are drained and its
      // clock aligned, either now or (deferred) by its next task; then the
      // control strand runs on this thread ----
      fabric.flip();
      std::uint64_t drained = 0;
      for (const std::uint64_t p : parked) drained += p;
      stats.handoff_packets += drained;
      // The drain waits for the next epoch when nothing before it needs a
      // quiesced fabric: no control event at b, no horizon pass, no
      // snapshot, and a next epoch that runs in parallel. Each shard's
      // next task drains its own inbound packets before it runs, which
      // reserves the same keys as a drain here. A stop request is not
      // consulted: the loop below completes a deferred drain before it
      // snapshots, so the decision is a pure function of simulation state.
      drain_deferred = control.next_time() > b && b < horizon && b < next_ckpt &&
                       forced.count(b.ns()) == 0 && perm.pending_flows() > 1;
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
    }
    ++w.next_epoch;

    // ---- quiescent point: channels drained, every clock == start (once a
    // deferred drain has run) ----
    if (!done) {
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
  }

  if (!done && !w.res.ckpt.interrupted) {
    // Horizon pass: the serial engine's run_until bound is inclusive, so
    // events at exactly t == horizon still run (canonical order; equal-time
    // events on different shards cannot interact within the instant).
    control.run_until(horizon);
    for (int s = 0; s < n_shards; ++s) fabric.sched(s).run_until(horizon);
    all_clocks_to(horizon);
    final_time = horizon;
  }

  // The control clock stands in for the serial engine's single scheduler.
  w.collect(final_time, fabric.total_dispatched() + control.dispatched());

  w.res.sharded = true;
  stats.logical_shards = n_shards;
  stats.lookahead_us = fabric.has_cross_links() ? fabric.lookahead().us() : 0.0;
  stats.replays = replays;
  if (w.registry) {
    obs::MetricsRegistry& reg = *w.registry;
    reg.counter("harness.shard.logical_shards").inc(static_cast<std::uint64_t>(n_shards));
    reg.counter("harness.shard.epochs").inc(stats.epochs);
    reg.counter("harness.shard.barriers").inc(stats.barriers);
    reg.counter("harness.shard.handoff_packets").inc(stats.handoff_packets);
    reg.counter("harness.shard.micro_steps").inc(stats.micro_steps);
    reg.counter("harness.shard.replays").inc(replays);
  }
  w.export_obs();

  out.res = std::move(w.res);
  return out;
}

}  // namespace

int sharded_pool_width(const ExperimentConfig& cfg) {
  // One logical shard per pod: a wider pool only adds idle helpers that
  // every barrier must still wake.
  return std::min(cfg.shards, cfg.fat_tree_k);
}

std::string sharded_refusal(const ExperimentConfig& cfg) {
  if (cfg.shards == 0) return {};
  if (cfg.hybrid.enabled) return "--hybrid is incompatible with --shards (serial engine only)";
  if (cfg.pattern != Pattern::Permutation) {
    return std::string{"--shards requires --pattern=permutation (got "} + pattern_name(cfg.pattern) +
           ")";
  }
  // A re-home writes the peer shard's receiver tag mid-epoch.
  if (cfg.scheme.max_rehomes > 0) return "--shards is incompatible with --rehome";
  return {};
}

ExperimentResults run_experiment_sharded(const ExperimentConfig& cfg) {
  assert(cfg.shards >= 1);
  assert(sharded_refusal(cfg).empty() && "sharded engine: the CLI rejects this config");

  // A restore image is read and verified once; every attempt (including
  // round-flip replays) restores from the same in-memory bytes.
  const std::optional<RestoreImage> image = read_restore_image(cfg);

  WorkerPool pool{static_cast<unsigned>(sharded_pool_width(cfg))};
  std::set<std::int64_t> forced;  // epoch starts pinned serial by failed attempts
  for (;;) {
    AttemptOutcome out = attempt(cfg, forced, pool, forced.size(), image ? &*image : nullptr);
    if (out.ok) return std::move(out.res);
    // Abort-and-replay: deterministic world construction makes the replay
    // reach the same epoch with the same state, now micro-stepped serially.
    const bool fresh = forced.insert(out.failed_epoch_start_ns).second;
    assert(fresh && "replayed epoch deferred again despite serial pinning");
    (void)fresh;
  }
}

}  // namespace xmp::core
