#include "core/world.hpp"

#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "core/export.hpp"

namespace xmp::core {

namespace {

topo::FatTree::Config fat_tree_config(const ExperimentConfig& cfg) {
  topo::FatTree::Config tc;
  tc.k = cfg.fat_tree_k;
  tc.queue.kind = net::QueueConfig::Kind::EcnThreshold;
  tc.queue.capacity_packets = cfg.queue_capacity;
  tc.queue.mark_threshold = cfg.mark_threshold;
  return tc;
}

std::unique_ptr<obs::TimelineTracer> make_tracer(const ExperimentConfig& cfg) {
  if (!cfg.obs.tracing()) return nullptr;
  obs::TimelineTracer::Config oc;
  oc.capacity = cfg.obs.capacity;
  oc.categories = cfg.obs.categories;
  return std::make_unique<obs::TimelineTracer>(oc);
}

/// The fabric must be attached before the topology is built: link
/// construction records the cross-shard links and their delays.
net::Network& attach(net::Network& netw, net::ShardFabric& fabric) {
  netw.set_shard_fabric(&fabric);
  return netw;
}

void clock(ckpt::Io& io, sim::Scheduler& sc) {
  sim::Time now = sc.now();
  std::uint64_t next_seq = sc.next_seq();
  std::uint64_t dispatched = sc.dispatched();
  io.time(now);
  io.u64(next_seq);
  io.u64(dispatched);
  if (io.loading() && io.ok()) sc.restore_clock(now, next_seq, dispatched);
}

/// A counted section of per-element state (links, switches, hosts); fails
/// when the element count differs from the world's.
template <typename Items>
void each(ckpt::Io& io, const Items& items) {
  if (!io.count(items.size())) return;
  for (std::size_t i = 0; i < items.size() && io.ok(); ++i) items[i]->checkpoint(io);
}

/// One tracer ring. Loading applies it when `t` is non-null (an untraced
/// snapshot can be replayed with --trace and vice versa) and fails on an
/// event kind the tracer does not know.
void trace_ring(ckpt::Io& io, obs::TimelineTracer* t) {
  auto fields = [&](obs::TimelineEvent& e) {
    io.i64(e.t_ns);
    io.f64(e.a);
    io.f64(e.b);
    io.u32(e.id);
    io.u8(e.kind);
    io.u8(e.subflow);
    io.u16(e.aux);
    if (e.kind > obs::kLastEventKind) io.fail();
  };
  std::uint64_t n = t != nullptr ? t->size() : 0;
  std::uint64_t dropped = t != nullptr ? t->dropped() : 0;
  io.u64(n);
  std::vector<obs::TimelineEvent> evs;
  if (io.saving()) {
    t->for_each([&](obs::TimelineEvent e) { fields(e); });
  } else {
    for (std::uint64_t i = 0; i < n && io.ok(); ++i) fields(evs.emplace_back());
  }
  io.u64(dropped);
  if (io.loading() && t != nullptr && io.ok()) t->restore_snapshot(evs, dropped);
}

}  // namespace

// Observation is installed for this thread only (concurrent experiments on
// a WorkerPool each get their own observers) and is strictly passive:
// nothing reads the tracer or registry, so a run with observation produces
// byte-identical results to one without.
World::World(const ExperimentConfig& cfg_in, sim::Scheduler& control, net::ShardFabric& fab)
    : cfg{cfg_in},
      sched{control},
      fabric{fab},
      tracer{make_tracer(cfg_in)},
      registry{cfg_in.obs.enabled() ? std::make_unique<obs::MetricsRegistry>() : nullptr},
      sim_metrics{registry ? std::make_unique<obs::SimMetrics>(*registry) : nullptr},
      scope{tracer.get(), sim_metrics.get()},
      netw{control},
      tree{attach(netw, fab), fat_tree_config(cfg_in)},
      routes{control, netw, cfg_in.routing},
      rng{cfg_in.seed},
      flows_a{control, cfg_in.scheme},
      rtt_tick{control, cfg_in.rtt_sample_interval, [this] { return sample_rtts(); }},
      util{control} {
  if (tracer) {
    for (int s = 0; s < fabric.n_shards(); ++s) {
      shard_tracers.push_back(make_tracer(cfg));
    }
    for (int l = 0; l < 3; ++l) {
      const auto layer = static_cast<topo::FatTree::Layer>(l);
      for (const net::Link* link : tree.links(layer)) {
        tracer->name_link(link->id(), std::string{topo::FatTree::layer_name(layer)} +
                                          " link " + std::to_string(link->id()));
      }
    }
  }

  // --- routing tables (the default Pinned config reproduces the legacy
  // built-in hash bit for bit and schedules nothing while no link fails,
  // so fault-free default runs stay byte-identical) ---
  routes.install_all();

  const auto host_sched = [this](int host) -> sim::Scheduler& {
    return fabric.sched(netw.shard_of(tree.host(host)));
  };
  flows_a.set_schedulers(host_sched);
  if (cfg.scheme_b) {
    // Disjoint id space: flow ids are endpoint demux keys at the hosts.
    flows_b = std::make_unique<workload::FlowManager>(sched, *cfg.scheme_b,
                                                      net::FlowId{1} << 24);
    flows_b->set_schedulers(host_sched);
  }

  // --- fault injection (no-op when the plan is empty). arm() is deferred:
  // on a fresh start it runs in start(); on a restore the checkpoint
  // re-arms the pending plan events instead. ---
  if (!cfg.fault_plan.empty()) {
    faults::FaultController::Config fcc;
    fcc.seed = cfg.fault_seed;
    fault_ctl = std::make_unique<faults::FaultController>(sched, netw, cfg.fault_plan, fcc);
  }

  if (cfg.check_invariants) {
    inv = std::make_unique<faults::InvariantChecker>(sched);
    inv->watch_network(netw);
    for (workload::FlowManager* fm : {&flows_a, flows_b.get()}) {
      if (fm == nullptr) continue;
      inv->add_sender_enumerator([fm](const faults::InvariantChecker::SenderVisitor& v) {
        fm->for_each_active_large_sender(
            [&v](const workload::FlowRecord&, const transport::TcpSender& s) { v(s); });
      });
      inv->add_connection_enumerator(
          [fm](const faults::InvariantChecker::ConnectionVisitor& v) {
            fm->for_each_active_connection([&v](mptcp::MptcpConnection& c) { v(c); });
          });
    }
    // start() is deferred: on a restore it must schedule after the clock
    // and sequence counter have been restored.
  }

  // A hybrid run replaces the pattern entirely (the CLI rejects an
  // explicit --pattern), so no generator is built.
  if (cfg.hybrid.enabled) {
    build_hybrid();
  } else {
    build_workload();
  }

  std::size_t off = 0;
  for (int l = 0; l < 3; ++l) {
    const auto& ls = tree.links(static_cast<topo::FatTree::Layer>(l));
    all_links.insert(all_links.end(), ls.begin(), ls.end());
    layer_ranges[l] = {off, off + ls.size()};
    off += ls.size();
  }

  if (cfg.checkpoint.enabled()) fingerprint_ = ckpt::config_fingerprint(cfg);
}

World::~World() = default;

// The gauge samples into the category distributions directly; the probe
// machinery just provides the periodic tick.
double World::sample_rtts() {
  for (const workload::FlowManager* fm : {&flows_a, flows_b.get()}) {
    if (fm == nullptr) continue;
    fm->for_each_active_large_sender(
        [this](const workload::FlowRecord& rec, const transport::TcpSender& s) {
          if (!s.has_rtt_sample()) return;
          const auto cat = tree.category(rec.src_host, rec.dst_host);
          res.rtt_by_category[static_cast<int>(cat)].add(s.srtt().ms());
        });
  }
  return 0.0;
}

// Generators are constructed on both the fresh and the restore path (the
// rng.split() draws happen here, identically); start() is deferred so a
// restore can rebuild their state instead.
void World::build_workload() {
  // Permutation round ends are control events. Every other generator has
  // no per-pod port yet and runs on shard 0, the only shard its run has.
  assert(cfg.pattern == Pattern::Permutation || fabric.n_shards() == 1);
  sim::Scheduler& gen = cfg.pattern == Pattern::Permutation ? sched : fabric.sched(0);
  workload::RandomTraffic::Config rand_cfg;
  rand_cfg.min_bytes = cfg.rand_min_bytes;
  rand_cfg.max_bytes = cfg.rand_max_bytes;
  switch (cfg.pattern) {
    case Pattern::Permutation: {
      workload::PermutationTraffic::Config pc;
      pc.min_bytes = cfg.perm_min_bytes;
      pc.max_bytes = cfg.perm_max_bytes;
      pc.rounds = cfg.permutation_rounds;
      pc.round_gap = tree.config().core_delay;
      perm = std::make_unique<workload::PermutationTraffic>(gen, tree, flows_a, rng.split(), pc);
      break;
    }
    case Pattern::Random: {
      workload::RandomTraffic::Config rc = rand_cfg;
      if (flows_b) {
        // Coexistence: even hosts use scheme A, odd hosts scheme B.
        workload::RandomTraffic::Config rc_b = rc;
        for (int h = 0; h < tree.n_hosts(); ++h) {
          (h % 2 == 0 ? rc.senders : rc_b.senders).push_back(h);
        }
        rand_b = std::make_unique<workload::RandomTraffic>(gen, tree, *flows_b, rng.split(), rc_b);
      }
      rand_a = std::make_unique<workload::RandomTraffic>(gen, tree, flows_a, rng.split(), rc);
      break;
    }
    case Pattern::Incast: {
      incast =
          std::make_unique<workload::IncastTraffic>(gen, tree, flows_a, rng.split(), cfg.incast);
      workload::RandomTraffic::Config rc = rand_cfg;
      rc.exclude_same_rack = true;  // paper footnote 8
      incast_bg = std::make_unique<workload::RandomTraffic>(gen, tree, flows_a, rng.split(), rc);
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
      emp = std::make_unique<workload::EmpiricalTraffic>(gen, tree, flows_a, rng.split(), ec);
      break;
    }
  }
}

// The hybrid fluid/packet engine (DESIGN.md §14).
void World::build_hybrid() {
  model::hybrid::Engine::Config hc;
  hc.tick = cfg.hybrid.tick;
  hc.promote_bytes = cfg.hybrid.promote_bytes;
  hybrid = std::make_unique<model::hybrid::Engine>(sched, hc);

  const auto n_hosts = static_cast<std::uint64_t>(tree.n_hosts());
  const int half = cfg.fat_tree_k / 2;
  // Endpoint placement is derived by hashing (seed, index) rather than by
  // consuming the workload rng stream, so the fluid population never
  // perturbs the packet-domain draw sequence. Value captures only: this
  // lambda is copied into start_hybrid_fg.
  auto pick_pair = [seed = cfg.seed, n_hosts](std::uint64_t salt, int& src, int& dst) {
    const std::uint64_t h = net::mix64(seed * 0x9e3779b97f4a7c15ULL + salt);
    src = static_cast<int>(h % n_hosts);
    dst = static_cast<int>(net::mix64(h) % (n_hosts - 1));
    if (dst >= src) ++dst;
  };
  // Interning a path registers its links on first sight; every queue in
  // the fabric shares the same ECN threshold K.
  const double mark_k = static_cast<double>(cfg.mark_threshold);
  auto intern_path = [&](int src, int dst, int agg_choice, int core_choice, double& base_rtt_s) {
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
    const std::uint64_t hp =
        net::mix64(cfg.seed ^ 0xb5f0'd27cULL ^ (static_cast<std::uint64_t>(i) << 20));
    for (int r = 0; r < n_sub; ++r) {
      model::hybrid::FluidSubflowState sf;
      // Distinct aggregation-layer choice per subflow (one pinned path
      // each, as in the packet domain); inner-rack pairs collapse to the
      // single rack path and the engine dedups it.
      const int agg_choice = static_cast<int>((hp + static_cast<std::uint64_t>(r)) %
                                              static_cast<std::uint64_t>(half));
      const int core_choice = static_cast<int>((hp >> 24) % static_cast<std::uint64_t>(half));
      sf.path = intern_path(agg.src_host, agg.dst_host, agg_choice, core_choice, sf.base_rtt_s);
      agg.subflows.push_back(sf);
    }
    hybrid->add_aggregate(std::move(agg));
  }
  hybrid->set_on_promote([this](const model::hybrid::PromotionInfo& info) {
    workload::CallbackTag t;
    t.kind = workload::CallbackTag::kHybridPromoted;
    t.a = info.aggregate;
    flows_a.start_large_flow(tree.host(info.src_host), tree.host(info.dst_host), info.src_host,
                             info.dst_host, info.remaining_bytes, nullptr, t,
                             info.cwnd_segments);
  });
  // Foreground flows restart on completion so the packet-accurate lane
  // covers the whole horizon; the slot index makes the restart chain
  // checkpointable (CallbackTag::kHybridFg).
  start_hybrid_fg = [this, pick_pair](int slot) {
    int src = 0;
    int dst = 0;
    pick_pair(0x2000000ULL + static_cast<std::uint64_t>(slot), src, dst);
    workload::CallbackTag t;
    t.kind = workload::CallbackTag::kHybridFg;
    t.a = slot;
    flows_a.start_large_flow(tree.host(src), tree.host(dst), src, dst, cfg.hybrid.fg_bytes,
                             [this, slot] { start_hybrid_fg(slot); }, t);
  };
}

void World::start() {
  if (fault_ctl) fault_ctl->arm();
  if (inv) inv->start();
  if (perm) perm->start();
  if (rand_a) rand_a->start();
  if (rand_b) rand_b->start();
  if (incast) incast->start();
  if (incast_bg) incast_bg->start();
  if (emp) emp->start();
  if (hybrid) {
    for (int slot = 0; slot < cfg.hybrid.fg_flows; ++slot) start_hybrid_fg(slot);
    hybrid->start();
  }
  rtt_tick.start();
  util.open(all_links);
}

std::function<void()> World::bind(const workload::CallbackTag& tag,
                                  workload::RandomTraffic* random) {
  using Tag = workload::CallbackTag;
  switch (tag.kind) {
    case Tag::kPermutation:
      return [g = perm.get()] { g->restored_flow_done(); };
    case Tag::kRandom:
      return [g = random, src = static_cast<int>(tag.a), dst = static_cast<int>(tag.b)] {
        g->restored_flow_done(src, dst);
      };
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
      return [this, slot = static_cast<int>(tag.a)] { start_hybrid_fg(slot); };
    default:
      // Includes kHybridPromoted: a promoted tail has no completion hook
      // (its FlowRecord is the record of completion).
      return nullptr;
  }
}

// Sections in order: SCHD, SHRD, LNKS, SWCH, HOST, RTEM, FLTC, FLWA, WKLD,
// HYBR, PROB, INVC, SHST, OBSV.
bool World::checkpoint(ckpt::Io& io, sim::Time at) {
  const int n_shards = fabric.n_shards();
  io.tag("SCHD");
  clock(io, sched);
  io.tag("SHRD");
  io.count(static_cast<std::uint64_t>(n_shards));
  for (int sh = 0; sh < n_shards && io.ok(); ++sh) clock(io, fabric.sched(sh));
  if (io.loading()) {
    // Snapshots are only taken with every clock aligned at the header's
    // time, inside the horizon.
    for (int sh = 0; sh < n_shards && io.ok(); ++sh) {
      if (fabric.sched(sh).now() != sched.now()) io.fail();
    }
    if (sched.now() != at || sched.now() < sim::Time::zero() || sched.now() > cfg.duration) {
      io.fail();
    }
    if (!io.ok()) return false;
  }
  io.tag("LNKS");
  each(io, netw.links());
  io.tag("SWCH");
  each(io, netw.switches());
  io.tag("HOST");
  each(io, netw.hosts());
  if (!io.ok()) return false;
  io.tag("RTEM");
  routes.checkpoint(io);
  io.tag("FLTC");
  bool has = fault_ctl != nullptr;
  io.b(has);
  if (has && fault_ctl) fault_ctl->checkpoint(io);
  // The fingerprint covers scheme_b, so flows_b and rand_b exist on both
  // sides or on neither.
  io.tag("FLWA");
  const auto host = [this](int h) -> net::Host& { return tree.host(h); };
  flows_a.checkpoint(io, tree.n_hosts(), host, [this](const workload::CallbackTag& tag) {
    return bind(tag, incast_bg ? incast_bg.get() : rand_a.get());
  });
  if (flows_b) {
    flows_b->checkpoint(io, tree.n_hosts(), host, [this](const workload::CallbackTag& tag) {
      return bind(tag, rand_b.get());
    });
  }
  io.tag("WKLD");
  if (perm) perm->checkpoint(io);
  if (rand_a) rand_a->checkpoint(io);
  if (rand_b) rand_b->checkpoint(io);
  if (incast) incast->checkpoint(io);
  if (incast_bg) incast_bg->checkpoint(io);
  if (emp) emp->checkpoint(io);
  // The config fingerprint covers cfg.hybrid, so a non-hybrid snapshot
  // never reaches a hybrid world (and vice versa); the flag only keeps the
  // payload self-describing.
  io.tag("HYBR");
  has = hybrid != nullptr;
  io.b(has);
  if (has && hybrid) hybrid->checkpoint(io);
  io.tag("PROB");
  rtt_tick.checkpoint(io);
  util.checkpoint(io, all_links);
  // The RTT gauge accumulates into the results object, not the probe, so
  // its pre-checkpoint samples must ride along explicitly.
  for (auto& d : res.rtt_by_category) d.checkpoint(io);
  // The fingerprint leaves out --invariants: a presence flag lets a
  // snapshot taken without the checker be restored with it and vice versa.
  io.tag("INVC");
  has = inv != nullptr;
  io.b(has);
  if (has && inv) {
    inv->checkpoint(io);
  } else if (has) {
    faults::InvariantChecker discard{sched};  // consume the section; arms nothing
    discard.checkpoint(io);
  }
  io.tag("SHST");
  io.u64(res.shard.epochs);
  io.u64(res.shard.barriers);
  io.u64(res.shard.handoff_packets);
  io.u32(next_epoch);
  // Observability state rides along so a resumed run's exports match an
  // uninterrupted run's byte for byte. Presence flags let a checkpoint
  // taken without --trace be replayed with it (and vice versa).
  io.tag("OBSV");
  has = tracer != nullptr;
  io.b(has);
  if (has) {
    trace_ring(io, tracer.get());
    std::uint64_t nt = shard_tracers.size();
    io.u64(nt);
    for (std::uint64_t i = 0; i < nt && io.ok(); ++i) {
      trace_ring(io, i < shard_tracers.size() ? shard_tracers[i].get() : nullptr);
    }
  }
  has = registry != nullptr;
  io.b(has);
  if (has && registry) {
    registry->checkpoint(io);
  } else if (has) {
    obs::MetricsRegistry discard;  // consume the section to stay aligned
    discard.checkpoint(io);
  }
  return io.done();
}

void World::publish_ckpt_totals() {
  if (!registry) return;
  registry->counter("harness.ckpt.written").set(ckpt_written_);
  registry->counter("harness.ckpt.bytes").set(ckpt_bytes_);
}

void World::write_checkpoint() {
  ckpt::Io io;
  [[maybe_unused]] const bool saved = checkpoint(io, sched.now());
  assert(saved);
  ckpt::Header h;
  h.fingerprint = fingerprint_;
  h.t_ns = sched.now().ns();
  h.seq = ++ckpt_seq_;
  h.prev_written = ckpt_written_;
  h.prev_bytes = ckpt_bytes_;
  const std::string path = cfg.checkpoint.dir + "/" + ckpt::file_name(h.seq);
  std::string err;
  if (!ckpt::write_file(path, h, io.data(), &err)) {
    std::fprintf(stderr, "xmpsim: checkpoint write failed: %s\n", err.c_str());
    return;  // the run continues; the previous snapshot stays the fallback
  }
  const std::uint64_t file_bytes = ckpt::kHeaderBytes + io.data().size();
  ckpt_written_ += 1;
  ckpt_bytes_ += file_bytes;
  res.ckpt.last_path = path;
  publish_ckpt_totals();
  // Recorded *after* the snapshot was serialized: the event describes this
  // file, so it can only appear in the next one (restores synthesize it).
  if (tracer) tracer->ckpt_write(sched.now(), h.seq, file_bytes);
}

void World::restore() {
  ckpt::Header h;
  std::string payload;
  std::string err;
  if (!ckpt::read_file(cfg.checkpoint.restore_path, ckpt::config_fingerprint(cfg), h, payload,
                       &err)) {
    std::fprintf(stderr, "xmpsim: restore failed: %s\n", err.c_str());
    std::exit(2);
  }
  ckpt::Io io{payload};
  if (!checkpoint(io, sim::Time::nanoseconds(h.t_ns))) {
    std::fprintf(stderr, "xmpsim: restore failed: %s: malformed payload\n",
                 cfg.checkpoint.restore_path.c_str());
    std::exit(2);
  }
  ckpt_seq_ = h.seq;
  ckpt_written_ = h.prev_written + 1;
  ckpt_bytes_ = h.prev_bytes + ckpt::kHeaderBytes + payload.size();
  res.ckpt.restored = true;
  res.ckpt.restored_seq = h.seq;
  res.ckpt.restored_t = sim::Time::nanoseconds(h.t_ns);
  publish_ckpt_totals();
  // The snapshot predates its own ckpt_write event; synthesize it so the
  // resumed trace matches an uninterrupted run's.
  if (tracer) {
    tracer->ckpt_write(sim::Time::nanoseconds(h.t_ns), h.seq, ckpt::kHeaderBytes + payload.size());
  }
  // Arms the restored tick, or a fresh checker's first one when the
  // snapshot was taken without --invariants.
  if (inv) inv->start();
}

sim::Time World::next_checkpoint(sim::Time now) const {
  const sim::Time every = cfg.checkpoint.every;
  if (every <= sim::Time::zero()) return sim::Time::infinity();
  // Absolute multiples of `every`, so a resumed run checkpoints at the same
  // sim times as an uninterrupted one.
  const std::int64_t next = (now.ns() / every.ns() + 1) * every.ns();
  return next < cfg.duration.ns() ? sim::Time::nanoseconds(next) : sim::Time::infinity();
}

void World::collect(sim::Time end_time, std::uint64_t events) {
  // close() returns an empty vector when no sim time elapsed (e.g. a run
  // interrupted at t=0): no window, no samples.
  const auto utils = util.close();
  for (int l = 0; l < 3; ++l) {
    for (std::size_t i = layer_ranges[l].first; i < layer_ranges[l].second; ++i) {
      if (!utils.empty()) res.utilization_by_layer[l].add(utils[i]);
      res.queue_occupancy_by_layer[l].add(all_links[i]->queue().mean_occupancy(sched.now()));
    }
  }

  auto add_goodput = [this](const workload::FlowRecord& rec, int scheme_index, double mbps) {
    (scheme_index == 0 ? res.goodput : res.goodput_b).add(mbps);
    if (scheme_index == 0) {
      res.goodput_by_category[static_cast<int>(tree.category(rec.src_host, rec.dst_host))].add(
          mbps);
    }
  };
  auto collect_flows = [&](const workload::FlowManager& fm, int scheme_index) {
    for (const auto& rec : fm.records()) {
      res.flows.push_back(rec);
      res.flow_category.push_back(tree.category(rec.src_host, rec.dst_host));
      res.flow_scheme.push_back(scheme_index);
      if (rec.large && rec.completed) add_goodput(rec, scheme_index, rec.goodput_bps() / 1e6);
    }
  };
  // Fixed-horizon runs cut slow flows off mid-transfer; dropping them would
  // bias mean goodput toward fast schemes (survivorship). Count a partial
  // flow at its average rate so far, provided it ran long enough for the
  // estimate to be meaningful.
  auto collect_partials = [&](const workload::FlowManager& fm, int scheme_index) {
    fm.for_each_partial_large([&](const workload::FlowRecord& rec, std::int64_t bytes) {
      const sim::Time ran = sched.now() - rec.start;
      if (ran < sim::Time::milliseconds(20) || bytes < 128 * net::kMssBytes) return;
      add_goodput(rec, scheme_index, static_cast<double>(bytes) * 8.0 / ran.sec() / 1e6);
    });
  };
  collect_flows(flows_a, 0);
  if (flows_b) collect_flows(*flows_b, 1);
  collect_partials(flows_a, 0);
  if (flows_b) collect_partials(*flows_b, 1);

  if (emp) {
    // FCT slowdown vs the unloaded fabric: one-way propagation by locality
    // category plus serialization at line rate. Aborted and still-in-flight
    // flows are censored (counted, never averaged in).
    const topo::FatTree::Config& tc = tree.config();
    const double rate_bps = static_cast<double>(tc.link_rate_bps);
    auto ideal_sec = [&](const workload::FlowRecord& rec) {
      const auto cat = tree.category(rec.src_host, rec.dst_host);
      double prop = 2.0 * tc.rack_delay.sec();
      if (cat != topo::FatTree::Category::InnerRack) prop += 2.0 * tc.agg_delay.sec();
      if (cat == topo::FatTree::Category::InterPod) prop += 2.0 * tc.core_delay.sec();
      return prop + static_cast<double>(rec.bytes) * 8.0 / rate_bps;
    };
    res.fct.offered_load = cfg.offered_load > 0.0 ? cfg.offered_load : cfg.workload->default_load;
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
    res.hybrid.mean_mark_p = hs.ticks > 0 ? hs.mark_p_accum / static_cast<double>(hs.ticks) : 0.0;
  }
  res.sim_duration = end_time;
  res.events_dispatched = events;
  res.ckpt.written = ckpt_written_;
  res.ckpt.bytes = ckpt_bytes_;

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
}

void World::export_obs() {
  const ObsConfig& o = cfg.obs;
  const auto note = [this](const char* flag, const std::string& path, bool written) {
    if (!written) res.unwritten.push_back(std::string{"--"} + flag + "=" + path);
  };
  if (tracer) {
    // The control stream first (it wins equal-timestamp ties), then the
    // shard streams in shard order.
    std::vector<const obs::TimelineTracer*> streams{tracer.get()};
    for (const auto& t : shard_tracers) streams.push_back(t.get());
    const auto all = obs::TimelineTracer::merged(streams);
    if (!o.trace_json.empty()) note("trace", o.trace_json, all->export_chrome_json(o.trace_json));
    if (!o.trace_csv.empty()) note("trace-csv", o.trace_csv, all->export_csv(o.trace_csv));
  }
  if (registry && !o.metrics_json.empty()) {
    note("metrics", o.metrics_json, registry->dump_to_file(o.metrics_json));
  }
  if (!o.fct_csv.empty()) note("fct-csv", o.fct_csv, export_fct_csv(res, o.fct_csv));
}

}  // namespace xmp::core
