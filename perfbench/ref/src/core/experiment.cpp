#include "core/experiment.hpp"

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "core/checkpoint.hpp"
#include "core/export.hpp"
#include "faults/fault_controller.hpp"
#include "faults/invariant_checker.hpp"
#include "model/hybrid/engine.hpp"
#include "net/network.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "route/route_manager.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "stats/probes.hpp"
#include "workload/empirical.hpp"
#include "workload/permutation.hpp"
#include "workload/random_traffic.hpp"

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

ExperimentResults run_experiment(const ExperimentConfig& cfg) {
  if (cfg.shards > 0) return run_experiment_sharded(cfg);
  // Observation is installed for this thread only (ParallelRunner gives
  // every sweep job its own worker thread and its own observers) and is
  // strictly passive: nothing below reads the tracer or registry, so a run
  // with observation produces byte-identical results to one without.
  std::unique_ptr<obs::TimelineTracer> tracer;
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::unique_ptr<obs::SimMetrics> sim_metrics;
  if (cfg.obs.tracing()) {
    obs::TimelineTracer::Config oc;
    oc.capacity = cfg.obs.capacity;
    oc.categories = cfg.obs.categories;
    tracer = std::make_unique<obs::TimelineTracer>(oc);
  }
  if (cfg.obs.enabled()) {
    registry = std::make_unique<obs::MetricsRegistry>();
    sim_metrics = std::make_unique<obs::SimMetrics>(*registry);
  }
  obs::ObservationScope scope{tracer.get(), sim_metrics.get()};

  sim::Scheduler sched;
  net::Network netw{sched};

  topo::FatTree::Config tc;
  tc.k = cfg.fat_tree_k;
  tc.queue.kind = net::QueueConfig::Kind::EcnThreshold;
  tc.queue.capacity_packets = cfg.queue_capacity;
  tc.queue.mark_threshold = cfg.mark_threshold;
  topo::FatTree tree{netw, tc};

  if (tracer) {
    for (int l = 0; l < 3; ++l) {
      const auto layer = static_cast<topo::FatTree::Layer>(l);
      for (const net::Link* link : tree.links(layer)) {
        tracer->name_link(link->id(), std::string{topo::FatTree::layer_name(layer)} +
                                          " link " + std::to_string(link->id()));
      }
    }
  }

  // --- routing tables (the default Pinned config replays the legacy
  // built-in hash bit for bit and schedules nothing while no link fails,
  // so fault-free default runs stay byte-identical) ---
  route::RouteManager routes{sched, netw, cfg.routing};
  routes.install_all();

  sim::Rng rng{cfg.seed};

  workload::FlowManager flows_a{sched, cfg.scheme};
  std::unique_ptr<workload::FlowManager> flows_b;
  if (cfg.scheme_b) {
    // Disjoint id space: flow ids are endpoint demux keys at the hosts.
    flows_b = std::make_unique<workload::FlowManager>(sched, *cfg.scheme_b,
                                                      net::FlowId{1} << 24);
  }

  // --- fault injection (no-op when the plan is empty). arm() is deferred:
  // on a fresh start it runs in the legacy order below; on a restore the
  // checkpoint re-arms the pending plan events instead. ---
  std::unique_ptr<faults::FaultController> fault_ctl;
  if (!cfg.fault_plan.empty()) {
    faults::FaultController::Config fcc;
    fcc.seed = cfg.fault_seed;
    fault_ctl = std::make_unique<faults::FaultController>(sched, netw, cfg.fault_plan, fcc);
  }

  std::unique_ptr<faults::InvariantChecker> inv;
  if (cfg.check_invariants) {
    inv = std::make_unique<faults::InvariantChecker>(sched);
    inv->watch_network(netw);
    inv->add_sender_enumerator([&flows_a](const faults::InvariantChecker::SenderVisitor& v) {
      flows_a.for_each_active_large_sender(
          [&v](const workload::FlowRecord&, const transport::TcpSender& s) { v(s); });
    });
    inv->add_connection_enumerator(
        [&flows_a](const faults::InvariantChecker::ConnectionVisitor& v) {
          flows_a.for_each_active_connection([&v](mptcp::MptcpConnection& c) { v(c); });
        });
    if (flows_b) {
      workload::FlowManager* fb = flows_b.get();
      inv->add_sender_enumerator([fb](const faults::InvariantChecker::SenderVisitor& v) {
        fb->for_each_active_large_sender(
            [&v](const workload::FlowRecord&, const transport::TcpSender& s) { v(s); });
      });
      inv->add_connection_enumerator(
          [fb](const faults::InvariantChecker::ConnectionVisitor& v) {
            fb->for_each_active_connection([&v](mptcp::MptcpConnection& c) { v(c); });
          });
    }
    // start() is deferred: on a restore it must schedule after the clock
    // and sequence counter have been restored.
  }

  // --- workload ---
  std::unique_ptr<workload::PermutationTraffic> perm;
  std::unique_ptr<workload::RandomTraffic> rand_a;
  std::unique_ptr<workload::RandomTraffic> rand_b;
  std::unique_ptr<workload::IncastTraffic> incast;
  std::unique_ptr<workload::RandomTraffic> incast_bg;
  std::unique_ptr<workload::EmpiricalTraffic> emp;

  // Generators are constructed on both the fresh and the restore path (the
  // rng.split() draws happen here, identically); start() is deferred so a
  // restore can rebuild their state instead. A hybrid run replaces the
  // pattern entirely (the CLI rejects an explicit --pattern), so none are
  // built.
  if (!cfg.hybrid.enabled) switch (cfg.pattern) {
    case Pattern::Permutation: {
      workload::PermutationTraffic::Config pc;
      pc.min_bytes = cfg.perm_min_bytes;
      pc.max_bytes = cfg.perm_max_bytes;
      pc.rounds = cfg.permutation_rounds;
      perm = std::make_unique<workload::PermutationTraffic>(sched, tree, flows_a, rng.split(), pc);
      perm->set_on_done([&sched] { sched.stop(); });
      break;
    }
    case Pattern::Random: {
      workload::RandomTraffic::Config rc;
      rc.min_bytes = cfg.rand_min_bytes;
      rc.max_bytes = cfg.rand_max_bytes;
      if (flows_b) {
        // Coexistence: even hosts use scheme A, odd hosts scheme B.
        workload::RandomTraffic::Config rc_b = rc;
        for (int h = 0; h < tree.n_hosts(); ++h) {
          (h % 2 == 0 ? rc.senders : rc_b.senders).push_back(h);
        }
        rand_b = std::make_unique<workload::RandomTraffic>(sched, tree, *flows_b, rng.split(), rc_b);
      }
      rand_a = std::make_unique<workload::RandomTraffic>(sched, tree, flows_a, rng.split(), rc);
      break;
    }
    case Pattern::Incast: {
      incast = std::make_unique<workload::IncastTraffic>(sched, tree, flows_a, rng.split(),
                                                         cfg.incast);
      workload::RandomTraffic::Config rc;
      rc.min_bytes = cfg.rand_min_bytes;
      rc.max_bytes = cfg.rand_max_bytes;
      rc.exclude_same_rack = true;  // paper footnote 8
      incast_bg = std::make_unique<workload::RandomTraffic>(sched, tree, flows_a, rng.split(), rc);
      break;
    }
    case Pattern::Workload: {
      const workload::WorkloadSpec& spec = *cfg.workload;
      workload::EmpiricalTraffic::Config ec;
      ec.cdf = spec.has_cdf ? &spec.cdf : nullptr;
      ec.load = cfg.offered_load > 0.0 ? cfg.offered_load : spec.default_load;
      ec.line_rate_bps = tree.config().link_rate_bps;
      ec.nodes = spec.nodes;
      ec.span = spec.span;
      ec.mice_threshold = spec.mice_threshold;
      ec.trace = &spec.flows;
      emp = std::make_unique<workload::EmpiricalTraffic>(sched, tree, flows_a, rng.split(), ec);
      break;
    }
  }

  // --- hybrid fluid/packet engine (DESIGN.md §14) ---
  std::unique_ptr<model::hybrid::Engine> hybrid;
  std::function<void(int)> start_hybrid_fg;
  if (cfg.hybrid.enabled) {
    model::hybrid::Engine::Config hc;
    hc.tick = cfg.hybrid.tick;
    hc.promote_bytes = cfg.hybrid.promote_bytes;
    hybrid = std::make_unique<model::hybrid::Engine>(sched, hc);

    const auto n_hosts = static_cast<std::uint64_t>(tree.n_hosts());
    const int half = cfg.fat_tree_k / 2;
    // Endpoint placement is derived by hashing (seed, index) rather than by
    // consuming the workload rng stream, so the fluid population never
    // perturbs the packet-domain draw sequence. Value captures only: this
    // lambda is copied into start_hybrid_fg, which outlives this block.
    auto pick_pair = [seed = cfg.seed, n_hosts](std::uint64_t salt, int& src, int& dst) {
      const std::uint64_t h = net::mix64(seed * 0x9e3779b97f4a7c15ULL + salt);
      src = static_cast<int>(h % n_hosts);
      dst = static_cast<int>(net::mix64(h) % (n_hosts - 1));
      if (dst >= src) ++dst;
    };
    // Interning a path registers its links on first sight; every queue in
    // the fabric shares the same ECN threshold K.
    const double mark_k = static_cast<double>(cfg.mark_threshold);
    auto intern_path = [&](int src, int dst, int agg_choice, int core_choice,
                           double& base_rtt_s) {
      const auto links = tree.path_links(src, dst, agg_choice, core_choice);
      std::vector<int> ids;
      ids.reserve(links.size());
      base_rtt_s = 0.0;
      for (net::Link* l : links) {
        ids.push_back(hybrid->add_link(l, mark_k));
        // Data out plus the ACK back over the mirror link: twice the
        // propagation, plus store-and-forward serialization of both packets.
        base_rtt_s += 2.0 * l->prop_delay().sec() +
                      static_cast<double>((net::kDataPacketBytes + net::kAckPacketBytes) * 8) /
                          static_cast<double>(l->rate_bps());
      }
      return hybrid->add_path(ids);
    };
    const int n_sub = cfg.scheme.multipath() ? cfg.scheme.subflows : 1;
    for (int i = 0; i < cfg.hybrid.bg_flows; ++i) {
      model::hybrid::FluidAggregate agg;
      agg.beta = static_cast<double>(cfg.scheme.beta);
      agg.total_bytes = cfg.hybrid.bg_bytes;
      pick_pair(0x1000000ULL + static_cast<std::uint64_t>(i), agg.src_host, agg.dst_host);
      const std::uint64_t hp = net::mix64(cfg.seed ^ 0xb5f0'd27cULL ^
                                          (static_cast<std::uint64_t>(i) << 20));
      for (int r = 0; r < n_sub; ++r) {
        model::hybrid::FluidSubflowState sf;
        // Distinct aggregation-layer choice per subflow (one pinned path
        // each, as in the packet domain); inner-rack pairs collapse to the
        // single rack path and the engine dedups it.
        const int agg_choice = static_cast<int>((hp + static_cast<std::uint64_t>(r)) %
                                                static_cast<std::uint64_t>(half));
        const int core_choice =
            static_cast<int>((hp >> 24) % static_cast<std::uint64_t>(half));
        sf.path = intern_path(agg.src_host, agg.dst_host, agg_choice, core_choice,
                              sf.base_rtt_s);
        agg.subflows.push_back(sf);
      }
      hybrid->add_aggregate(std::move(agg));
    }
    hybrid->set_on_promote([&](const model::hybrid::PromotionInfo& info) {
      workload::CallbackTag t;
      t.kind = workload::CallbackTag::kHybridPromoted;
      t.a = info.aggregate;
      flows_a.start_large_flow(tree.host(info.src_host), tree.host(info.dst_host),
                               info.src_host, info.dst_host, info.remaining_bytes, nullptr, t,
                               info.cwnd_segments);
    });
    // Foreground flows restart on completion so the packet-accurate lane
    // covers the whole horizon; the slot index makes the restart chain
    // checkpointable (CallbackTag::kHybridFg).
    // Captures are function-scope objects (or copies): start_hybrid_fg is
    // invoked long after this block's locals are gone.
    start_hybrid_fg = [&flows_a, &tree, &cfg, &start_hybrid_fg, pick_pair](int slot) {
      int src = 0;
      int dst = 0;
      pick_pair(0x2000000ULL + static_cast<std::uint64_t>(slot), src, dst);
      workload::CallbackTag t;
      t.kind = workload::CallbackTag::kHybridFg;
      t.a = slot;
      flows_a.start_large_flow(tree.host(src), tree.host(dst), src, dst, cfg.hybrid.fg_bytes,
                               [&start_hybrid_fg, slot] { start_hybrid_fg(slot); }, t);
    };
  }

  // --- probes ---
  ExperimentResults res;

  // The gauge hook samples into the category distributions directly; the
  // probe machinery just provides the periodic tick.
  stats::GaugeProbe rtt_tick{sched, cfg.rtt_sample_interval, [&] {
    auto sample = [&](const workload::FlowManager& fm) {
      fm.for_each_active_large_sender(
          [&](const workload::FlowRecord& rec, const transport::TcpSender& s) {
            if (!s.has_rtt_sample()) return;
            const auto cat = tree.category(rec.src_host, rec.dst_host);
            res.rtt_by_category[static_cast<int>(cat)].add(s.srtt().ms());
          });
    };
    sample(flows_a);
    if (flows_b) sample(*flows_b);
    return 0.0;
  }};
  stats::UtilizationWindow util{sched};
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

  // --- checkpoint plumbing (DESIGN.md §12) ---
  const bool ckpt_on = cfg.checkpoint.enabled();
  const bool restoring = !cfg.checkpoint.restore_path.empty();
  const std::uint64_t fp = ckpt_on ? ckpt::config_fingerprint(cfg) : 0;
  std::uint64_t ckpt_seq = 0;      // last sequence number used
  std::uint64_t ckpt_written = 0;  // lineage-cumulative snapshot count
  std::uint64_t ckpt_bytes = 0;    // lineage-cumulative snapshot bytes

  // Saved flow-completion callbacks come back as CallbackTags; resolve them
  // against the generators of this (identically constructed) world.
  const workload::FlowManager::BindFn bind =
      [&](const workload::CallbackTag& tag) -> std::function<void()> {
    using Tag = workload::CallbackTag;
    switch (tag.kind) {
      case Tag::kPermutation:
        return [g = perm.get()] { g->restored_flow_done(); };
      case Tag::kRandom: {
        workload::RandomTraffic* g =
            cfg.pattern == Pattern::Incast ? incast_bg.get() : rand_a.get();
        return [g, src = static_cast<int>(tag.a), dst = static_cast<int>(tag.b)] {
          g->restored_flow_done(src, dst);
        };
      }
      case Tag::kIncastRequest:
        return [g = incast.get(), job = static_cast<std::size_t>(tag.a),
                server = static_cast<int>(tag.b), client = static_cast<int>(tag.c)] {
          g->restored_request_done(job, server, client);
        };
      case Tag::kIncastResponse:
        return [g = incast.get(), job = static_cast<std::size_t>(tag.a)] {
          g->restored_response_done(job);
        };
      case Tag::kHybridFg:
        return [&start_hybrid_fg, slot = static_cast<int>(tag.a)] { start_hybrid_fg(slot); };
      default:
        // Includes kHybridPromoted: a promoted tail has no completion hook
        // (its FlowRecord is the record of completion).
        return nullptr;
    }
  };

  auto save_world = [&](ckpt::Saver& s) {
    s.tag("SCHD");
    s.time(sched.now());
    s.u64(sched.next_seq());
    s.u64(sched.dispatched());
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
    if (!cfg.hybrid.enabled) switch (cfg.pattern) {
      case Pattern::Permutation:
        perm->save_state(s);
        break;
      case Pattern::Random:
        rand_a->save_state(s);
        break;
      case Pattern::Incast:
        incast->save_state(s);
        incast_bg->save_state(s);
        break;
      case Pattern::Workload:
        emp->save_state(s);
        break;
    }
    s.tag("HYBR");
    s.b(hybrid != nullptr);
    if (hybrid) hybrid->save_state(s);
    s.tag("PROB");
    rtt_tick.save_state(s);
    util.save_state(s);
    // The RTT gauge accumulates into the results object, not the probe, so
    // its pre-checkpoint samples must ride along explicitly.
    for (const auto& d : res.rtt_by_category) d.save_state(s);
    // Observability state rides along so a resumed run's exports match an
    // uninterrupted run's byte for byte. Presence flags let a checkpoint
    // taken without --trace be replayed with it (and vice versa).
    s.tag("OBSV");
    s.b(tracer != nullptr);
    if (tracer) {
      s.u64(tracer->size());
      tracer->for_each([&](const obs::TimelineEvent& e) {
        s.i64(e.t_ns);
        s.f64(e.a);
        s.f64(e.b);
        s.u32(e.id);
        s.u8(static_cast<std::uint8_t>(e.kind));
        s.u8(e.subflow);
        s.u16(e.aux);
      });
      s.u64(tracer->dropped());
    }
    s.b(registry != nullptr);
    if (registry) registry->save_state(s);
  };

  auto restore_world = [&](ckpt::Loader& l) -> bool {
    l.tag("SCHD");
    const sim::Time now = l.time();
    const std::uint64_t next_seq = l.u64();
    const std::uint64_t disp = l.u64();
    if (!l.ok()) return false;
    sched.restore_clock(now, next_seq, disp);
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
    if (!cfg.hybrid.enabled) switch (cfg.pattern) {
      case Pattern::Permutation:
        perm->restore_state(l);
        break;
      case Pattern::Random:
        rand_a->restore_state(l);
        break;
      case Pattern::Incast:
        incast->restore_state(l);
        incast_bg->restore_state(l);
        break;
      case Pattern::Workload:
        emp->restore_state(l);
        break;
    }
    l.tag("HYBR");
    // The config fingerprint covers cfg.hybrid, so a non-hybrid snapshot
    // never reaches a hybrid world (and vice versa); the flag only keeps the
    // payload self-describing.
    if (l.b() && hybrid) hybrid->restore_state(l);
    l.tag("PROB");
    rtt_tick.restore_state(l);
    util.restore_state(l, all_links);
    for (auto& d : res.rtt_by_category) d.restore_state(l);
    l.tag("OBSV");
    if (l.b()) {
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
      if (tracer && l.ok()) tracer->restore_snapshot(evs, ev_dropped);
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
    h.t_ns = sched.now().ns();
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
    // Recorded *after* the snapshot was serialized: the event describes this
    // file, so it can only appear in the next one (restores synthesize it).
    if (tracer) tracer->ckpt_write(sched.now(), h.seq, file_bytes);
  };

  // --- restore or fresh start ---
  if (restoring) {
    ckpt::Header h;
    std::string payload;
    std::string err;
    if (!ckpt::read_file(cfg.checkpoint.restore_path, fp, h, payload, &err)) {
      std::fprintf(stderr, "xmpsim: restore failed: %s\n", err.c_str());
      std::exit(2);
    }
    ckpt::Loader l{payload};
    if (!restore_world(l)) {
      std::fprintf(stderr, "xmpsim: restore failed: %s: malformed payload\n",
                   cfg.checkpoint.restore_path.c_str());
      std::exit(2);
    }
    ckpt_seq = h.seq;
    ckpt_written = h.prev_written + 1;
    ckpt_bytes = h.prev_bytes + ckpt::kHeaderBytes + payload.size();
    res.ckpt.restored = true;
    res.ckpt.restored_seq = h.seq;
    res.ckpt.restored_t = sim::Time::nanoseconds(h.t_ns);
    if (registry) {
      registry->counter("harness.ckpt.written").set(ckpt_written);
      registry->counter("harness.ckpt.bytes").set(ckpt_bytes);
    }
    // The snapshot predates its own ckpt_write event; synthesize it so the
    // resumed trace matches an uninterrupted run's.
    if (tracer) {
      tracer->ckpt_write(sim::Time::nanoseconds(h.t_ns), h.seq,
                         ckpt::kHeaderBytes + payload.size());
    }
    if (inv) inv->start();  // replay-only: a fresh checker over the resumed run
  } else {
    // Legacy scheduling order — byte-compatible with the pre-checkpoint
    // engine: faults, invariant checker, workload, probes.
    if (fault_ctl) fault_ctl->arm();
    if (inv) inv->start();
    if (!cfg.hybrid.enabled) switch (cfg.pattern) {
      case Pattern::Permutation:
        perm->start();
        break;
      case Pattern::Random:
        rand_a->start();
        if (rand_b) rand_b->start();
        break;
      case Pattern::Incast:
        incast->start();
        incast_bg->start();
        break;
      case Pattern::Workload:
        emp->start();
        break;
    }
    if (hybrid) {
      for (int slot = 0; slot < cfg.hybrid.fg_flows; ++slot) start_hybrid_fg(slot);
      hybrid->start();
    }
    rtt_tick.start();
    util.open(all_links);
  }

  // --- run ---
  if (!ckpt_on) {
    sched.run_until(cfg.duration);
  } else {
    if (cfg.checkpoint.stop_requested) sched.set_external_stop(cfg.checkpoint.stop_requested);
    const sim::Time every = cfg.checkpoint.every;
    // Segmented run: each segment ends at the next absolute multiple of
    // `every` (so a resumed run checkpoints at the same sim times as an
    // uninterrupted one) or at the horizon, whichever is earlier.
    while (true) {
      sim::Time target = cfg.duration;
      bool boundary = false;
      if (every > sim::Time::zero()) {
        const std::int64_t next = (sched.now().ns() / every.ns() + 1) * every.ns();
        if (next < cfg.duration.ns()) {
          target = sim::Time::nanoseconds(next);
          boundary = true;
        }
      }
      sched.run_until(target);
      if (cfg.checkpoint.stop_requested && cfg.checkpoint.stop_requested->load()) {
        // Halted between events — always a quiescent point in a serial DES.
        write_checkpoint();
        res.ckpt.interrupted = true;
        break;
      }
      if (sched.stopped()) break;  // the workload ended the run early
      if (!boundary) break;        // reached the horizon
      write_checkpoint();
    }
    sched.set_external_stop(nullptr);
  }

  // --- collect ---
  // close() returns an empty vector when no sim time elapsed (e.g. a run
  // interrupted at t=0): no window, no samples.
  const auto utils = util.close();
  for (int l = 0; l < 3; ++l) {
    for (std::size_t i = layer_ranges[l].first; i < layer_ranges[l].second; ++i) {
      if (!utils.empty()) res.utilization_by_layer[l].add(utils[i]);
      res.queue_occupancy_by_layer[l].add(all_links[i]->queue().mean_occupancy(sched.now()));
    }
  }

  auto collect_flows = [&](const workload::FlowManager& fm, int scheme_index) {
    for (const auto& rec : fm.records()) {
      res.flows.push_back(rec);
      res.flow_category.push_back(tree.category(rec.src_host, rec.dst_host));
      res.flow_scheme.push_back(scheme_index);
      if (rec.large && rec.completed) {
        const double mbps = rec.goodput_bps() / 1e6;
        (scheme_index == 0 ? res.goodput : res.goodput_b).add(mbps);
        if (scheme_index == 0) {
          res.goodput_by_category[static_cast<int>(tree.category(rec.src_host, rec.dst_host))]
              .add(mbps);
        }
      }
    }
  };
  collect_flows(flows_a, 0);
  if (flows_b) collect_flows(*flows_b, 1);

  // Fixed-horizon runs cut slow flows off mid-transfer; dropping them would
  // bias mean goodput toward fast schemes (survivorship). Count a partial
  // flow at its average rate so far, provided it ran long enough for the
  // estimate to be meaningful.
  auto collect_partials = [&](const workload::FlowManager& fm, int scheme_index) {
    fm.for_each_partial_large([&](const workload::FlowRecord& rec, std::int64_t bytes) {
      const sim::Time ran = sched.now() - rec.start;
      if (ran < sim::Time::milliseconds(20) || bytes < 128 * net::kMssBytes) return;
      const double mbps = static_cast<double>(bytes) * 8.0 / ran.sec() / 1e6;
      (scheme_index == 0 ? res.goodput : res.goodput_b).add(mbps);
      if (scheme_index == 0) {
        res.goodput_by_category[static_cast<int>(tree.category(rec.src_host, rec.dst_host))]
            .add(mbps);
      }
    });
  };
  collect_partials(flows_a, 0);
  if (flows_b) collect_partials(*flows_b, 1);

  if (emp) {
    // FCT slowdown vs the unloaded fabric: one-way propagation by locality
    // category plus serialization at line rate. Aborted and still-in-flight
    // flows are censored (counted, never averaged in).
    const topo::FatTree::Config& tc2 = tree.config();
    const double rate_bps = static_cast<double>(tc2.link_rate_bps);
    auto ideal_sec = [&](const workload::FlowRecord& rec) {
      const auto cat = tree.category(rec.src_host, rec.dst_host);
      double prop = 2.0 * tc2.rack_delay.sec();
      if (cat != topo::FatTree::Category::InnerRack) prop += 2.0 * tc2.agg_delay.sec();
      if (cat == topo::FatTree::Category::InterPod) prop += 2.0 * tc2.core_delay.sec();
      return prop + static_cast<double>(rec.bytes) * 8.0 / rate_bps;
    };
    res.fct.offered_load =
        cfg.offered_load > 0.0 ? cfg.offered_load : cfg.workload->default_load;
    res.fct.arrival_rate = emp->arrival_rate();
    for (const auto& rec : flows_a.records()) {
      ExperimentResults::FctRecord fr;
      fr.id = rec.id;
      fr.bytes = rec.bytes;
      fr.start_ns = rec.start.ns();
      if (!rec.completed) {
        ++res.fct.censored;
        res.fct_records.push_back(fr);
        continue;
      }
      const double slow = (rec.finish - rec.start).sec() / ideal_sec(rec);
      fr.finish_ns = rec.finish.ns();
      fr.completed = true;
      fr.slowdown = slow;
      res.fct_records.push_back(fr);
      res.fct.slowdown_all.add(slow);
      res.fct.slowdown_by_bin[ExperimentResults::FctStats::bin_of(rec.bytes)].add(slow);
      ++res.fct.completed;
      if (sim_metrics) {
        sim_metrics->fct_slowdown_milli.add(static_cast<std::uint64_t>(slow * 1000.0));
      }
    }
  }

  if (incast) res.jobs = incast->jobs();
  if (hybrid) {
    res.hybrid.enabled = true;
    res.hybrid.bg_flows = cfg.hybrid.bg_flows;
    res.hybrid.fg_flows = cfg.hybrid.fg_flows;
    res.hybrid.active_fluid = hybrid->active_fluid_flows();
    const auto& hs = hybrid->stats();
    res.hybrid.ticks = hs.ticks;
    res.hybrid.promotions = hs.promotions;
    res.hybrid.fluid_completions = hs.fluid_completions;
    res.hybrid.fluid_bytes = hs.fluid_bytes;
    res.hybrid.fluid_throughput_mbps = hybrid->fluid_throughput_bps() / 1e6;
    res.hybrid.mean_mark_p =
        hs.ticks > 0 ? hs.mark_p_accum / static_cast<double>(hs.ticks) : 0.0;
  }
  res.sim_duration = sched.now();
  res.events_dispatched = sched.dispatched();
  res.ckpt.written = ckpt_written;
  res.ckpt.bytes = ckpt_bytes;

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
  if (flows_b) res.aborted_flows += flows_b->aborted_large_flows();

  // --- routing-layer accounting (end-of-run aggregation: the per-packet
  // hot path never touches the metrics registry for these) ---
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
  if (flows_b) res.path_rehomes += flows_b->subflow_rehomes();
  if (sim_metrics) {
    sim_metrics->switch_forwarded.inc(res.switch_forwarded);
    sim_metrics->switch_unroutable.inc(res.switch_unroutable);
  }
  if (inv) {
    inv->stop();
    inv->check_now();  // final sweep at the horizon
    res.invariant_checks = inv->checks_run();
    for (const auto& v : inv->violations()) {
      res.invariant_violations.push_back("[t=" + std::to_string(v.at.sec()) + "s] " + v.what);
    }
  }

  // --- observability exports (after collection: they must not observe the run) ---
  if (tracer) {
    if (!cfg.obs.trace_json.empty()) tracer->export_chrome_json(cfg.obs.trace_json);
    if (!cfg.obs.trace_csv.empty()) tracer->export_csv(cfg.obs.trace_csv);
  }
  if (registry && !cfg.obs.metrics_json.empty()) {
    registry->dump_to_file(cfg.obs.metrics_json);
  }
  if (!cfg.obs.fct_csv.empty()) export_fct_csv(res, cfg.obs.fct_csv);
  return res;
}

}  // namespace xmp::core
