#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/experiment.hpp"
#include "core/parallel_runner.hpp"
#include "faults/fault_controller.hpp"
#include "net/handoff.hpp"
#include "net/network.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "route/route_manager.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "stats/probes.hpp"
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
// invalidated. At the barrier each worker drains the packets parked for its
// own shards in a fixed (src, FIFO) order per destination and advances
// their clocks to the boundary; then the control strand (RTT probe, fault
// plan, route manager) runs with the whole fabric quiesced.
//
// Global transitions — a Permutation round flip fans flow construction out
// to every shard — must not run mid-epoch on a worker thread. The workload
// defers a round completion that lands inside a parallel epoch and flags
// the engine, which discards the attempt and replays it from scratch with
// that epoch pinned serial (micro-stepped in global (t, control-first,
// shard-index) order). A cheap gate makes replays rare: once a round has
// at most one flow left, the engine micro-steps until the next round is in
// full flight again.

namespace xmp::core {

namespace {

struct EpochStats {
  std::uint64_t epochs = 0;
  std::uint64_t barriers = 0;
  std::uint64_t handoff_packets = 0;
  std::uint64_t micro_steps = 0;
};

struct AttemptOutcome {
  bool ok = true;
  std::int64_t failed_epoch_start_ns = 0;  ///< epoch to pin serial on replay
  ExperimentResults res;
};

/// A checkpoint image read once by run_experiment_sharded and restored by
/// every attempt (replayed attempts re-restore the same bytes, so the
/// abort-and-replay gate composes with --restore).
struct RestoreImage {
  ckpt::Header h;
  std::string payload;
};

AttemptOutcome attempt(const ExperimentConfig& cfg, const std::set<std::int64_t>& forced,
                       WorkerPool& pool, std::uint64_t replays, const RestoreImage* restore) {
  AttemptOutcome out;

  // --- observation: one tracer per shard plus one for the control strand
  // (merged deterministically at export); a single registry whose
  // instruments are relaxed atomics shared by every thread ---
  std::unique_ptr<obs::TimelineTracer> control_tracer;
  std::vector<std::unique_ptr<obs::TimelineTracer>> shard_tracers;
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::unique_ptr<obs::SimMetrics> sim_metrics;
  if (cfg.obs.tracing()) {
    obs::TimelineTracer::Config oc;
    oc.capacity = cfg.obs.capacity;
    oc.categories = cfg.obs.categories;
    control_tracer = std::make_unique<obs::TimelineTracer>(oc);
  }
  if (cfg.obs.enabled()) {
    registry = std::make_unique<obs::MetricsRegistry>();
    sim_metrics = std::make_unique<obs::SimMetrics>(*registry);
  }
  // The engine thread observes as the control strand for the whole attempt
  // (epoch/barrier markers, serial micro-steps, control events).
  obs::ObservationScope scope{control_tracer.get(), sim_metrics.get()};

  // --- world construction (identical order to the serial engine, so every
  // NodeId/LinkId and the full creation sequence match byte for byte) ---
  sim::Scheduler control;
  net::Network netw{control};

  topo::FatTree::Config tc;
  tc.k = cfg.fat_tree_k;
  tc.queue.kind = net::QueueConfig::Kind::EcnThreshold;
  tc.queue.capacity_packets = cfg.queue_capacity;
  tc.queue.mark_threshold = cfg.mark_threshold;

  net::ShardFabric fabric{tc.k};
  netw.set_shard_fabric(&fabric);
  topo::FatTree tree{netw, tc};
  const int n_shards = fabric.n_shards();

  if (control_tracer) {
    shard_tracers.reserve(static_cast<std::size_t>(n_shards));
    for (int s = 0; s < n_shards; ++s) {
      obs::TimelineTracer::Config oc;
      oc.capacity = cfg.obs.capacity;
      oc.categories = cfg.obs.categories;
      shard_tracers.push_back(std::make_unique<obs::TimelineTracer>(oc));
    }
    for (int l = 0; l < 3; ++l) {
      const auto layer = static_cast<topo::FatTree::Layer>(l);
      for (const net::Link* link : tree.links(layer)) {
        control_tracer->name_link(link->id(), std::string{topo::FatTree::layer_name(layer)} +
                                                  " link " + std::to_string(link->id()));
      }
    }
  }

  route::RouteManager routes{control, netw, cfg.routing};
  routes.install_all();

  sim::Rng rng{cfg.seed};

  workload::FlowManager flows_a{control, cfg.scheme};
  flows_a.set_schedulers([&netw, &fabric, &tree](int host) -> sim::Scheduler& {
    return fabric.sched(netw.shard_of(tree.host(host)));
  });

  std::unique_ptr<faults::FaultController> fault_ctl;
  if (!cfg.fault_plan.empty()) {
    faults::FaultController::Config fcc;
    fcc.seed = cfg.fault_seed;
    fault_ctl = std::make_unique<faults::FaultController>(control, netw, cfg.fault_plan, fcc);
    // arm() is deferred to the restore-or-fresh branch below.
  }

  // --- workload (Permutation only; the caller asserted the pattern) ---
  bool done = false;
  sim::Time final_time = cfg.duration;
  workload::PermutationTraffic::Config pc;
  pc.min_bytes = cfg.perm_min_bytes;
  pc.max_bytes = cfg.perm_max_bytes;
  pc.rounds = cfg.permutation_rounds;
  auto perm = std::make_unique<workload::PermutationTraffic>(control, tree, flows_a, rng.split(),
                                                             pc);
  perm->set_on_done([&done, &final_time, &control] {
    done = true;
    // Fires inside a serial micro-step: the dispatching scheduler's clock
    // is the exact completion instant (the serial engine's sched.now()).
    sim::Scheduler* cs = sim::current_scheduler();
    final_time = cs != nullptr ? cs->now() : control.now();
  });
  // start() is deferred to the restore-or-fresh branch below.

  // --- probes (control strand; they run with the fabric quiesced) ---
  ExperimentResults res;

  stats::GaugeProbe rtt_tick{control, cfg.rtt_sample_interval, [&] {
    flows_a.for_each_active_large_sender(
        [&](const workload::FlowRecord& rec, const transport::TcpSender& s) {
          if (!s.has_rtt_sample()) return;
          const auto cat = tree.category(rec.src_host, rec.dst_host);
          res.rtt_by_category[static_cast<int>(cat)].add(s.srtt().ms());
        });
    return 0.0;
  }};

  stats::UtilizationWindow util{control};
  std::vector<net::Link*> all_links;
  std::array<std::pair<std::size_t, std::size_t>, 3> layer_ranges;
  {
    std::size_t off = 0;
    for (int l = 0; l < 3; ++l) {
      const auto& ls = tree.links(static_cast<topo::FatTree::Layer>(l));
      all_links.insert(all_links.end(), ls.begin(), ls.end());
      layer_ranges[l] = {off, off + ls.size()};
      off += ls.size();
    }
  }

  // --- the epoch engine ---
  const sim::Time horizon = cfg.duration;
  // A fabric with no cross-shard links has unbounded lookahead; one epoch
  // spans the whole horizon. (Unreachable for a Fat-Tree, where pods only
  // connect through cores, but it keeps the math total.)
  const sim::Time lookahead = fabric.has_cross_links()
                                  ? fabric.lookahead()
                                  : horizon + sim::Time::nanoseconds(1);
  EpochStats stats;
  // Per-destination handoff counts of one barrier, summed in shard order.
  std::vector<std::uint64_t> drained_into(static_cast<std::size_t>(n_shards));

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

  std::uint32_t epoch_idx = 0;

  // --- checkpoint plumbing (DESIGN.md §12; sharded payload layout) ---
  // Snapshots happen only at barriers, where handoff channels are drained
  // and every clock is aligned — the sharded engine's quiescent points.
  const bool ckpt_on = cfg.checkpoint.enabled();
  const std::uint64_t fp = ckpt_on ? ckpt::config_fingerprint(cfg) : 0;
  std::uint64_t ckpt_seq = 0;      // last sequence number used
  std::uint64_t ckpt_written = 0;  // lineage-cumulative snapshot count
  std::uint64_t ckpt_bytes = 0;    // lineage-cumulative snapshot bytes

  const workload::FlowManager::BindFn bind =
      [&](const workload::CallbackTag& tag) -> std::function<void()> {
    if (tag.kind == workload::CallbackTag::kPermutation) {
      return [g = perm.get()] { g->restored_flow_done(); };
    }
    return nullptr;  // the CLI gates the sharded engine to Permutation
  };

  auto save_tracer = [](ckpt::Saver& s, const obs::TimelineTracer& t) {
    s.u64(t.size());
    t.for_each([&](const obs::TimelineEvent& e) {
      s.i64(e.t_ns);
      s.f64(e.a);
      s.f64(e.b);
      s.u32(e.id);
      s.u8(static_cast<std::uint8_t>(e.kind));
      s.u8(e.subflow);
      s.u16(e.aux);
    });
    s.u64(t.dropped());
  };
  // Consumes one tracer section; applies it when `t` is non-null (presence
  // flags let an untraced checkpoint be replayed with --trace and vice versa).
  auto load_tracer = [](ckpt::Loader& l, obs::TimelineTracer* t) {
    const std::uint64_t ne = l.u64();
    std::vector<obs::TimelineEvent> evs;
    for (std::uint64_t i = 0; i < ne && l.ok(); ++i) {
      obs::TimelineEvent e;
      e.t_ns = l.i64();
      e.a = l.f64();
      e.b = l.f64();
      e.id = l.u32();
      e.kind = static_cast<obs::EventKind>(l.u8());
      e.subflow = l.u8();
      e.aux = l.u16();
      evs.push_back(e);
    }
    const std::uint64_t ev_dropped = l.u64();
    if (t != nullptr && l.ok()) t->restore_snapshot(evs, ev_dropped);
  };

  auto save_world = [&](ckpt::Saver& s) {
    s.tag("SCHD");
    s.time(control.now());
    s.u64(control.next_seq());
    s.u64(control.dispatched());
    s.tag("SHRD");
    s.u64(static_cast<std::uint64_t>(n_shards));
    for (int sh = 0; sh < n_shards; ++sh) {
      const sim::Scheduler& ss = fabric.sched(sh);
      s.time(ss.now());
      s.u64(ss.next_seq());
      s.u64(ss.dispatched());
    }
    s.tag("LNKS");
    s.u64(netw.links().size());
    for (const auto& l : netw.links()) l->save_state(s);
    s.tag("SWCH");
    s.u64(netw.switches().size());
    for (const net::Switch* sw : netw.switches()) sw->save_state(s);
    s.tag("HOST");
    s.u64(netw.hosts().size());
    for (const net::Host* h : netw.hosts()) h->save_state(s);
    s.tag("RTEM");
    routes.save_state(s);
    s.tag("FLTC");
    s.b(fault_ctl != nullptr);
    if (fault_ctl) fault_ctl->save_state(s);
    s.tag("FLWA");
    flows_a.save_state(s);
    s.tag("WKLD");
    perm->save_state(s);
    s.tag("PROB");
    rtt_tick.save_state(s);
    util.save_state(s);
    // The RTT gauge accumulates into the results object, not the probe, so
    // its pre-checkpoint samples must ride along explicitly.
    for (const auto& d : res.rtt_by_category) d.save_state(s);
    // Epoch accounting rides along so a resumed run's summary (epochs,
    // barriers, micro-steps) matches an uninterrupted run's. `replays` is
    // process-local by design and deliberately not saved.
    s.tag("SHST");
    s.u64(stats.epochs);
    s.u64(stats.barriers);
    s.u64(stats.handoff_packets);
    s.u64(stats.micro_steps);
    s.u32(epoch_idx);
    s.tag("OBSV");
    s.b(control_tracer != nullptr);
    if (control_tracer) {
      save_tracer(s, *control_tracer);
      s.u64(shard_tracers.size());
      for (const auto& t : shard_tracers) save_tracer(s, *t);
    }
    s.b(registry != nullptr);
    if (registry) registry->save_state(s);
  };

  auto restore_world = [&](ckpt::Loader& l) -> bool {
    l.tag("SCHD");
    {
      const sim::Time now = l.time();
      const std::uint64_t next_seq = l.u64();
      const std::uint64_t disp = l.u64();
      if (!l.ok()) return false;
      control.restore_clock(now, next_seq, disp);
    }
    l.tag("SHRD");
    if (l.u64() != static_cast<std::uint64_t>(n_shards)) return false;
    for (int sh = 0; sh < n_shards && l.ok(); ++sh) {
      const sim::Time now = l.time();
      const std::uint64_t next_seq = l.u64();
      const std::uint64_t disp = l.u64();
      if (!l.ok()) return false;
      fabric.sched(sh).restore_clock(now, next_seq, disp);
    }
    l.tag("LNKS");
    const std::uint64_t nl = l.u64();
    if (l.ok() && nl != netw.links().size()) return false;
    for (std::uint64_t i = 0; i < nl && l.ok(); ++i) netw.links()[i]->restore_state(l);
    l.tag("SWCH");
    const std::uint64_t nsw = l.u64();
    if (l.ok() && nsw != netw.switches().size()) return false;
    for (std::uint64_t i = 0; i < nsw && l.ok(); ++i) netw.switches()[i]->restore_state(l);
    l.tag("HOST");
    const std::uint64_t nh = l.u64();
    if (l.ok() && nh != netw.hosts().size()) return false;
    for (std::uint64_t i = 0; i < nh && l.ok(); ++i) netw.hosts()[i]->restore_state(l);
    l.tag("RTEM");
    routes.restore_state(l);
    l.tag("FLTC");
    if (l.b() && fault_ctl) fault_ctl->restore_state(l);
    l.tag("FLWA");
    flows_a.restore_state(l, [&](int h) -> net::Host& { return tree.host(h); }, bind);
    l.tag("WKLD");
    perm->restore_state(l);
    l.tag("PROB");
    rtt_tick.restore_state(l);
    util.restore_state(l, all_links);
    for (auto& d : res.rtt_by_category) d.restore_state(l);
    l.tag("SHST");
    stats.epochs = l.u64();
    stats.barriers = l.u64();
    stats.handoff_packets = l.u64();
    stats.micro_steps = l.u64();
    epoch_idx = l.u32();
    l.tag("OBSV");
    if (l.b()) {
      load_tracer(l, control_tracer.get());
      const std::uint64_t nt = l.u64();
      for (std::uint64_t i = 0; i < nt && l.ok(); ++i) {
        load_tracer(l, i < shard_tracers.size() ? shard_tracers[i].get() : nullptr);
      }
    }
    if (l.b()) {
      if (registry) {
        registry->restore_state(l);
      } else {
        obs::MetricsRegistry discard;  // consume the section to stay aligned
        discard.restore_state(l);
      }
    }
    return l.done();
  };

  auto write_checkpoint = [&]() {
    ckpt::Saver s;
    save_world(s);
    ckpt::Header h;
    h.fingerprint = fp;
    h.t_ns = control.now().ns();
    h.seq = ++ckpt_seq;
    h.prev_written = ckpt_written;
    h.prev_bytes = ckpt_bytes;
    const std::string path = cfg.checkpoint.dir + "/" + ckpt::file_name(h.seq);
    std::string err;
    if (!ckpt::write_file(path, h, s.data(), &err)) {
      std::fprintf(stderr, "xmpsim: checkpoint write failed: %s\n", err.c_str());
      return;  // the run continues; the previous snapshot stays the fallback
    }
    const std::uint64_t file_bytes = ckpt::kHeaderBytes + s.data().size();
    ckpt_written += 1;
    ckpt_bytes += file_bytes;
    res.ckpt.last_path = path;
    if (registry) {
      registry->counter("harness.ckpt.written").set(ckpt_written);
      registry->counter("harness.ckpt.bytes").set(ckpt_bytes);
    }
    if (control_tracer) control_tracer->ckpt_write(control.now(), h.seq, file_bytes);
  };

  // --- restore or fresh start ---
  if (restore != nullptr) {
    ckpt::Loader l{restore->payload};
    if (!restore_world(l)) {
      std::fprintf(stderr, "xmpsim: restore failed: %s: malformed payload\n",
                   cfg.checkpoint.restore_path.c_str());
      std::exit(2);
    }
    ckpt_seq = restore->h.seq;
    ckpt_written = restore->h.prev_written + 1;
    ckpt_bytes = restore->h.prev_bytes + ckpt::kHeaderBytes + restore->payload.size();
    res.ckpt.restored = true;
    res.ckpt.restored_seq = restore->h.seq;
    res.ckpt.restored_t = sim::Time::nanoseconds(restore->h.t_ns);
    if (registry) {
      registry->counter("harness.ckpt.written").set(ckpt_written);
      registry->counter("harness.ckpt.bytes").set(ckpt_bytes);
    }
    // The snapshot predates its own ckpt_write event; synthesize it so the
    // resumed trace matches an uninterrupted run's.
    if (control_tracer) {
      control_tracer->ckpt_write(sim::Time::nanoseconds(restore->h.t_ns), restore->h.seq,
                                 ckpt::kHeaderBytes + restore->payload.size());
    }
  } else {
    // Legacy scheduling order — byte-compatible with the pre-checkpoint
    // engine: faults, workload, probes.
    if (fault_ctl) fault_ctl->arm();
    perm->start();
    rtt_tick.start();
    util.open(all_links);
  }

  const std::atomic<bool>* stop_flag = cfg.checkpoint.stop_requested;
  const sim::Time every = cfg.checkpoint.every;
  // The next periodic boundary is a pure function of the clock, so a
  // resumed run checkpoints at the same sim times as an uninterrupted one.
  sim::Time next_ckpt = sim::Time::infinity();
  if (every > sim::Time::zero()) {
    next_ckpt = sim::Time::nanoseconds((control.now().ns() / every.ns() + 1) * every.ns());
  }

  sim::Time start = control.now();

  while (!done && start < horizon) {
    const bool forced_serial = forced.count(start.ns()) > 0;
    const bool gate_serial = perm->pending_flows() <= 1;

    if (forced_serial || gate_serial) {
      // ---- serial segment: global one-event micro-steps ----
      const sim::Time serial_until = start + lookahead;
      if (auto* tr = obs::tracer(); tr != nullptr) [[unlikely]] {
        tr->shard_epoch(start, epoch_idx, serial_until.us(), /*serial=*/true);
      }
      // Every step re-aligns all clocks, so which events exist — not just
      // what they do — shapes the segment: links arm even completions with
      // nothing queued (no-ops) while it runs, as eager scheduling would.
      for (const auto& l : netw.links()) l->set_eager_completions(true);
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
        if (t >= serial_until && perm->pending_flows() > 1) break;
        s->step_one();
        ++stats.micro_steps;
        stats.handoff_packets += fabric.drain_all();
        all_clocks_to(t);
        seg_t = t;
        if (done) break;
        // Clocks are aligned and handoffs drained right here, so an external
        // stop can cut the segment short and still checkpoint safely below.
        if (stop_flag != nullptr && stop_flag->load()) break;
      }
      for (const auto& l : netw.links()) l->set_eager_completions(false);
      ++stats.barriers;
      if (auto* tr = obs::tracer(); tr != nullptr) [[unlikely]] {
        tr->shard_barrier(seg_t, epoch_idx, 0);
      }
      start = seg_t > start ? seg_t : start;
    } else {
      // ---- parallel epoch [start, b) ----
      sim::Time b = start + lookahead;
      const sim::Time ct = control.next_time();
      if (ct < b) b = ct;  // the control strand defines the next boundary
      if (b > horizon) b = horizon;
      if (auto* tr = obs::tracer(); tr != nullptr) [[unlikely]] {
        tr->shard_epoch(start, epoch_idx, b.us(), /*serial=*/false);
      }

      obs::SimMetrics* metrics = sim_metrics.get();
      perm->set_parallel_phase(true);
      pool.run(n_shards, [&fabric, &shard_tracers, metrics, b](int s) {
        obs::ObservationScope shard_scope{
            shard_tracers.empty() ? nullptr : shard_tracers[static_cast<std::size_t>(s)].get(),
            metrics};
        fabric.sched(s).run_before(b);
      });
      perm->set_parallel_phase(false);

      if (perm->deferred_done()) {
        // A round completed mid-epoch; the flip must run serially. Discard
        // this attempt and replay with this epoch pinned.
        out.ok = false;
        out.failed_epoch_start_ns = start.ns();
        return out;
      }

      // ---- barrier: each worker drains its shards' inbound handoffs and
      // aligns their clocks; then the control strand runs on this thread ----
      pool.run(n_shards, [&fabric, &drained_into, b](int s) {
        drained_into[static_cast<std::size_t>(s)] = fabric.drain_into(s);
        fabric.sched(s).advance_clock_to(b);
      });
      std::uint64_t drained = 0;
      for (const std::uint64_t d : drained_into) drained += d;
      stats.handoff_packets += drained;
      control.advance_clock_to(b);
      control.run_until(b);
      ++stats.epochs;
      ++stats.barriers;
      if (auto* tr = obs::tracer(); tr != nullptr) [[unlikely]] {
        tr->shard_barrier(b, epoch_idx, drained);
      }
      start = b;
    }
    ++epoch_idx;

    // ---- quiescent point: channels drained, every clock == start ----
    if (ckpt_on && !done) {
      if (stop_flag != nullptr && stop_flag->load()) {
        write_checkpoint();
        res.ckpt.interrupted = true;
        final_time = start;  // partial summary covers [0, halt)
        break;
      }
      if (start >= next_ckpt) {
        write_checkpoint();
        next_ckpt = sim::Time::nanoseconds((start.ns() / every.ns() + 1) * every.ns());
      }
    }
  }

  if (!done && !res.ckpt.interrupted) {
    // Horizon pass: the serial engine's run_until bound is inclusive, so
    // events at exactly t == horizon still run (canonical order; equal-time
    // events on different shards cannot interact within the instant).
    control.run_until(horizon);
    for (int s = 0; s < n_shards; ++s) fabric.sched(s).run_until(horizon);
    all_clocks_to(horizon);
    final_time = horizon;
  }

  // --- collect (mirrors the serial engine, with the control clock standing
  // in for the single serial scheduler) ---
  // close() returns an empty vector when no sim time elapsed (e.g. a run
  // interrupted at t=0): no window, no samples.
  const auto utils = util.close();
  for (int l = 0; l < 3; ++l) {
    for (std::size_t i = layer_ranges[l].first; i < layer_ranges[l].second; ++i) {
      if (!utils.empty()) res.utilization_by_layer[l].add(utils[i]);
      res.queue_occupancy_by_layer[l].add(all_links[i]->queue().mean_occupancy(control.now()));
    }
  }

  for (const auto& rec : flows_a.records()) {
    res.flows.push_back(rec);
    res.flow_category.push_back(tree.category(rec.src_host, rec.dst_host));
    res.flow_scheme.push_back(0);
    if (rec.large && rec.completed) {
      const double mbps = rec.goodput_bps() / 1e6;
      res.goodput.add(mbps);
      res.goodput_by_category[static_cast<int>(tree.category(rec.src_host, rec.dst_host))].add(
          mbps);
    }
  }
  flows_a.for_each_partial_large([&](const workload::FlowRecord& rec, std::int64_t bytes) {
    const sim::Time ran = control.now() - rec.start;
    if (ran < sim::Time::milliseconds(20) || bytes < 128 * net::kMssBytes) return;
    const double mbps = static_cast<double>(bytes) * 8.0 / ran.sec() / 1e6;
    res.goodput.add(mbps);
    res.goodput_by_category[static_cast<int>(tree.category(rec.src_host, rec.dst_host))].add(
        mbps);
  });

  res.sim_duration = final_time;
  res.events_dispatched = fabric.total_dispatched() + control.dispatched();

  res.drops = stats::collect_drops(netw);
  for (const auto& l : netw.links()) {
    if (l->offered() == 0) continue;
    ExperimentResults::LinkDropRow row;
    row.link = l->id();
    row.offered = l->offered();
    row.delivered = l->delivered();
    row.drops = l->drops();
    row.duplicated = l->duplicated();
    row.delayed = l->delayed();
    row.overmarked = l->overmarked();
    res.link_drops.push_back(row);
  }
  res.aborted_flows = flows_a.aborted_large_flows();

  for (const net::Switch* sw : netw.switches()) {
    res.switch_forwarded += sw->forwarded();
    res.switch_unroutable += sw->unroutable();
    if (sw->unroutable() > 0) {
      res.switch_drops.push_back({sw->id(), sw->forwarded(), sw->unroutable()});
    }
  }
  res.route_reroutes = routes.reroutes();
  res.route_collisions = routes.collisions();
  res.flowlet_repaths = routes.repaths();
  res.path_rehomes = flows_a.subflow_rehomes();
  if (sim_metrics) {
    sim_metrics->switch_forwarded.inc(res.switch_forwarded);
    sim_metrics->switch_unroutable.inc(res.switch_unroutable);
  }

  res.sharded = true;
  res.shard.logical_shards = n_shards;
  res.shard.lookahead_us = fabric.has_cross_links() ? fabric.lookahead().us() : 0.0;
  res.shard.epochs = stats.epochs;
  res.shard.barriers = stats.barriers;
  res.shard.handoff_packets = stats.handoff_packets;
  res.shard.micro_steps = stats.micro_steps;
  res.shard.replays = replays;
  res.ckpt.written = ckpt_written;
  res.ckpt.bytes = ckpt_bytes;

  // --- observability exports (after collection) ---
  if (registry) {
    registry->counter("harness.shard.logical_shards").inc(static_cast<std::uint64_t>(n_shards));
    registry->counter("harness.shard.epochs").inc(stats.epochs);
    registry->counter("harness.shard.barriers").inc(stats.barriers);
    registry->counter("harness.shard.handoff_packets").inc(stats.handoff_packets);
    registry->counter("harness.shard.micro_steps").inc(stats.micro_steps);
    registry->counter("harness.shard.replays").inc(replays);
  }
  if (control_tracer) {
    std::vector<const obs::TimelineTracer*> streams;
    streams.push_back(control_tracer.get());  // stream 0: control wins ties
    for (const auto& t : shard_tracers) streams.push_back(t.get());
    const auto merged = obs::TimelineTracer::merged(streams);
    if (!cfg.obs.trace_json.empty()) merged->export_chrome_json(cfg.obs.trace_json);
    if (!cfg.obs.trace_csv.empty()) merged->export_csv(cfg.obs.trace_csv);
  }
  if (registry && !cfg.obs.metrics_json.empty()) {
    registry->dump_to_file(cfg.obs.metrics_json);
  }

  out.res = std::move(res);
  return out;
}

}  // namespace

int sharded_pool_width(const ExperimentConfig& cfg) {
  // One logical shard per pod: a wider pool only adds idle helpers that
  // every barrier must still wake.
  return std::min(cfg.shards, cfg.fat_tree_k);
}

ExperimentResults run_experiment_sharded(const ExperimentConfig& cfg) {
  assert(cfg.shards >= 1);
  assert(cfg.pattern == Pattern::Permutation &&
         "sharded engine: Permutation pattern only (CLI rejects others)");
  assert(!cfg.scheme_b && "sharded engine: coexistence runs are serial-only");
  assert(cfg.routing.kind != route::PolicyKind::Flowlet &&
         "sharded engine: flowlet repathing reads the control clock per packet");
  assert(!cfg.check_invariants && "sharded engine: invariant probing is serial-only");
  assert(cfg.scheme.max_rehomes == 0 && "sharded engine: subflow re-homing is serial-only");

  // A restore image is read and verified once; every attempt (including
  // round-flip replays) restores from the same in-memory bytes.
  std::unique_ptr<RestoreImage> restore;
  if (!cfg.checkpoint.restore_path.empty()) {
    restore = std::make_unique<RestoreImage>();
    std::string err;
    if (!ckpt::read_file(cfg.checkpoint.restore_path, ckpt::config_fingerprint(cfg), restore->h,
                         restore->payload, &err)) {
      std::fprintf(stderr, "xmpsim: restore failed: %s\n", err.c_str());
      std::exit(2);
    }
  }

  WorkerPool pool{static_cast<unsigned>(sharded_pool_width(cfg))};
  std::set<std::int64_t> forced;  // epoch starts pinned serial by failed attempts
  for (;;) {
    AttemptOutcome out = attempt(cfg, forced, pool, forced.size(), restore.get());
    if (out.ok) return std::move(out.res);
    // Abort-and-replay: deterministic world construction makes the replay
    // reach the same epoch with the same state, now micro-stepped serially.
    const bool fresh = forced.insert(out.failed_epoch_start_ns).second;
    assert(fresh && "replayed epoch deferred again despite serial pinning");
    (void)fresh;
  }
}

}  // namespace xmp::core
