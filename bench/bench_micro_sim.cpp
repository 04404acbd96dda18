// Micro-benchmarks of the simulator substrate (google-benchmark): event
// scheduling, queue disciplines, link forwarding, end-to-end transport and
// Fat-Tree construction. These are regression guards for the hot paths
// that determine how large an evaluation fits in a given wall-clock budget.

#include <benchmark/benchmark.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/world.hpp"
#include "core/xmp.hpp"

using namespace xmp;

namespace {

void BM_SchedulerScheduleDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i) {
      sched.schedule_at(sim::Time::nanoseconds(i), [] {});
    }
    sched.run();
    benchmark::DoNotOptimize(sched.dispatched());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SchedulerScheduleDispatch)->Arg(1000)->Arg(100000);

void BM_SchedulerTimerChurn(benchmark::State& state) {
  // Schedule + cancel pattern (the RTO-timer workload).
  for (auto _ : state) {
    sim::Scheduler sched;
    sim::EventId pending = sim::kInvalidEventId;
    for (int i = 0; i < 10000; ++i) {
      sched.cancel(pending);
      pending = sched.schedule_at(sim::Time::nanoseconds(1000000 + i), [] {});
    }
    sched.run();
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SchedulerTimerChurn);

/// A shard's event queue as perm_k8 drives it, in the classic "hold" model:
/// every dispatched event schedules one successor, so the pending count
/// stays at the argument. The delay mix is that of a recorded perm_k8 op
/// stream: 54% of schedules land 8-16 us ahead (serialization plus
/// propagation), 18% 256-512 ns ahead, 5.5% at zero delay, and the other
/// 22.5% spread log-uniformly over 0.5-8 us. One event in 29 (3.4%) also
/// cancels a ~1 ms retransmission timer and re-arms it; an eighth of the
/// pending events are such timers. Reports the cost of one event.
class HoldModel {
 public:
  explicit HoldModel(int pending) {
    sim::Rng rng{160};
    for (std::int64_t& d : delays_) {
      const double u = rng.uniform01();
      if (u < 0.54) {
        d = rng.uniform_int(8'000, 16'000);
      } else if (u < 0.72) {
        d = rng.uniform_int(256, 512);
      } else if (u < 0.775) {
        d = 0;
      } else {
        d = static_cast<std::int64_t>(512.0 * std::pow(8'000.0 / 512.0, rng.uniform01()));
      }
    }
    timers_.resize(static_cast<std::size_t>(pending / 8));
    for (std::size_t i = 0; i < timers_.size(); ++i) rearm(i);
    for (int i = static_cast<int>(timers_.size()); i < pending; ++i) hold();
  }

  sim::Scheduler sched;

 private:
  static constexpr std::size_t kOps = 4096;

  void hold() {
    const std::int64_t d = delays_[op_ % kOps];
    sched.schedule_in(sim::Time::nanoseconds(d), [this] { hold(); });
    if (++op_ % 29 == 0 && !timers_.empty()) rearm(next_timer_++ % timers_.size());
  }
  void rearm(std::size_t i) {
    sched.cancel(timers_[i]);
    const auto rto = sim::Time::nanoseconds(1'000'000 + static_cast<std::int64_t>(i % 64) * 977);
    timers_[i] = sched.schedule_in(rto, [this, i] { rearm(i); });
  }

  std::array<std::int64_t, kOps> delays_{};
  std::vector<sim::EventId> timers_;
  std::size_t op_ = 0;
  std::size_t next_timer_ = 0;
};

void BM_SchedulerHold(benchmark::State& state) {
  HoldModel m{static_cast<int>(state.range(0))};
  for (auto _ : state) m.sched.step_one();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerHold)->Arg(160);

void BM_EcnQueueEnqueueDequeue(benchmark::State& state) {
  net::EcnThresholdQueue q{100, 10};
  net::Packet p;
  p.ecn = net::Ecn::Ect;
  for (auto _ : state) {
    net::Packet in = p;
    benchmark::DoNotOptimize(q.enqueue(std::move(in), sim::Time::zero()));
    net::Packet out;
    benchmark::DoNotOptimize(q.dequeue(out, sim::Time::zero()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EcnQueueEnqueueDequeue);

void BM_RedQueueEnqueueDequeue(benchmark::State& state) {
  net::RedQueue q{100, {}};
  net::Packet p;
  p.ecn = net::Ecn::Ect;
  for (auto _ : state) {
    net::Packet in = p;
    benchmark::DoNotOptimize(q.enqueue(std::move(in), sim::Time::zero()));
    net::Packet out;
    benchmark::DoNotOptimize(q.dequeue(out, sim::Time::zero()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RedQueueEnqueueDequeue);

void BM_EndToEndTransfer(benchmark::State& state) {
  // Full transport stack: one 10 MB BOS flow over a 10 Gbps pipe.
  for (auto _ : state) {
    sim::Scheduler sched;
    net::Network network{sched};
    net::QueueConfig q;
    q.kind = net::QueueConfig::Kind::EcnThreshold;
    q.capacity_packets = 100;
    q.mark_threshold = 60;
    net::Host& a = network.add_host();
    net::Host& b = network.add_host();
    net::Link& ab = network.add_link(b, 10'000'000'000, sim::Time::microseconds(10), q);
    net::Link& ba = network.add_link(a, 10'000'000'000, sim::Time::microseconds(10), q);
    a.attach_uplink(ab);
    b.attach_uplink(ba);
    transport::Flow::Config fc;
    fc.id = 1;
    fc.size_bytes = 10'000'000;
    fc.cc.kind = transport::CcConfig::Kind::Bos;
    transport::Flow f{sched, a, b, fc};
    f.start();
    sched.run_until(sim::Time::seconds(1.0));
    benchmark::DoNotOptimize(f.complete());
    state.counters["events/s"] = benchmark::Counter(
        static_cast<double>(sched.dispatched()), benchmark::Counter::kIsIterationInvariantRate);
  }
  state.SetBytesProcessed(state.iterations() * 10'000'000);
}
BENCHMARK(BM_EndToEndTransfer)->Unit(benchmark::kMillisecond);

/// Terminal sink for BM_LinkForwarding: counts, never replies.
class CountingSink final : public net::PacketSink {
 public:
  void receive(net::Packet /*p*/) override { ++received; }
  std::uint64_t received = 0;
};

/// Self-rescheduling source: one burst of `burst` packets per `gap`.
struct BurstInjector {
  sim::Scheduler* sched;
  net::Link* first;
  int* left;
  int burst;
  sim::Time gap;
  void operator()() const {
    for (int i = 0; i < burst && *left > 0; ++i, --*left) {
      net::Packet p;
      p.dst = 100;
      p.size_bytes = net::kDataPacketBytes;
      p.ecn = net::Ecn::Ect;
      first->send(p);
    }
    if (*left > 0) sched->schedule_in(gap, *this);
  }
};

void BM_LinkForwarding(benchmark::State& state) {
  // The link + switch layer alone: packets cross three 1 Gbps links and two
  // switches (source -> s1 -> s2 -> sink) at a fixed offered load (percent
  // of line rate, arg 0), injected in bursts of four so that queues build
  // and drain. No transport: every event is a link delivery, a transmit
  // completion, or the injector.
  constexpr int kPackets = 20000;
  constexpr int kBurst = 4;
  constexpr int kHops = 3;
  const double load = static_cast<double>(state.range(0)) / 100.0;
  const sim::Time tx = sim::transmission_time(net::kDataPacketBytes, 1'000'000'000);
  const sim::Time gap = sim::Time::nanoseconds(static_cast<std::int64_t>(
      static_cast<double>(tx.ns()) * kBurst / load));
  double events_per_hop = 0.0;
  for (auto _ : state) {
    sim::Scheduler sched;
    CountingSink sink;
    net::Switch s1{1};
    net::Switch s2{2};
    const net::QueueConfig q;  // ECN threshold, 100 packets, K = 10
    const sim::Time prop = sim::Time::microseconds(1);
    net::Link out{sched, 2, 1'000'000'000, prop, net::make_queue(q), sink};
    net::Link mid{sched, 1, 1'000'000'000, prop, net::make_queue(q), s2};
    net::Link in{sched, 0, 1'000'000'000, prop, net::make_queue(q), s1};
    s1.set_host_route(100, s1.add_port(mid));
    s2.set_host_route(100, s2.add_port(out));
    int left = kPackets;
    sched.schedule_at(sim::Time::zero(), BurstInjector{&sched, &in, &left, kBurst, gap});
    sched.run();
    benchmark::DoNotOptimize(sink.received);
    const std::uint64_t injections = (kPackets + kBurst - 1) / kBurst;
    events_per_hop = static_cast<double>(sched.dispatched() - injections) /
                     (static_cast<double>(sink.received) * kHops);
  }
  state.SetItemsProcessed(state.iterations() * kPackets * kHops);  // packet-hops
  state.counters["events/hop"] = events_per_hop;
}
BENCHMARK(BM_LinkForwarding)->Arg(90);

void BM_SwitchReceive(benchmark::State& state) {
  // One forwarding decision, laid out like a k=32 Fat-Tree (8192 hosts
  // with ids from 1280, 32 ports). up=0: a core switch's downward route
  // hit, every host routed 256 to a port. up=1: an aggregation switch
  // that routes its own pod (256 hosts) down ports 0-15 and hashes every
  // other destination over up ports 16-31. The out links are down, so
  // send() only counts an admin-down drop and the lookup dominates.
  const bool up = state.range(0) == 1;
  constexpr net::NodeId kFirstHost = 1280;
  constexpr net::NodeId kHosts = 8192;
  constexpr net::NodeId kPodHosts = 256;
  sim::Scheduler sched;
  CountingSink sink;
  net::Switch sw{0};
  const net::QueueConfig q;
  std::vector<std::unique_ptr<net::Link>> links;
  for (net::LinkId i = 0; i < 32; ++i) {
    links.push_back(std::make_unique<net::Link>(sched, i, 1'000'000'000,
                                                sim::Time::microseconds(1), net::make_queue(q),
                                                sink));
    links.back()->set_down(true);
    sw.add_port(*links.back());
  }
  const net::NodeId routed = up ? kPodHosts : kHosts;
  for (net::NodeId h = 0; h < routed; ++h) {
    sw.set_host_route(kFirstHost + h, up ? h / 16 : h / kPodHosts);  // per edge / per pod
  }
  if (up) {
    for (std::size_t port = 16; port < 32; ++port) sw.add_up_port(port);
  }
  // Walk the destinations with a stride so consecutive lookups do not
  // share a cache line; up=1 draws only destinations outside the pod.
  const net::NodeId first = kFirstHost + (up ? kPodHosts : 0);
  const net::NodeId span = kHosts - (up ? kPodHosts : 0);
  net::NodeId i = 0;
  for (auto _ : state) {
    net::Packet p;
    p.dst = first + i;
    p.path_tag = static_cast<std::uint16_t>(i & 3);
    sw.receive(std::move(p));
    i += 97;
    if (i >= span) i -= span;
  }
  benchmark::DoNotOptimize(sw.forwarded());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SwitchReceive)->ArgName("up")->Arg(0)->Arg(1);

void BM_FatTreeConstruction(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Scheduler sched;
    net::Network network{sched};
    topo::FatTree::Config tc;
    tc.k = k;
    topo::FatTree tree{network, tc};
    benchmark::DoNotOptimize(tree.n_hosts());
  }
}
BENCHMARK(BM_FatTreeConstruction)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_WorldBuild(benchmark::State& state) {
  // The world a sharded run builds before its first event (perfbench's
  // setup_s minus process start and collection): the k-pod Fat-Tree on a
  // shard fabric, routing tables, the permutation workload and probes,
  // then the fresh start that schedules the first round. range(0) =
  // fat_tree_k; the teardown is timed too.
  core::ExperimentConfig cfg;
  cfg.fat_tree_k = static_cast<int>(state.range(0));
  cfg.scheme.kind = workload::SchemeSpec::Kind::Xmp;
  cfg.scheme.subflows = 2;
  cfg.pattern = core::Pattern::Permutation;
  cfg.seed = 42;
  for (auto _ : state) {
    sim::Scheduler control;
    net::ShardFabric fabric{cfg.fat_tree_k};
    core::World world{cfg, control, fabric};
    world.start();
    benchmark::DoNotOptimize(world.all_links.size());
  }
}
BENCHMARK(BM_WorldBuild)->Arg(8)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_FatTreePermutationRound(benchmark::State& state) {
  // One permutation round of small XMP-2 flows on a k=4 tree: the
  // composite "whole system" cost.
  for (auto _ : state) {
    core::ExperimentConfig cfg;
    cfg.fat_tree_k = 4;
    cfg.scheme.kind = workload::SchemeSpec::Kind::Xmp;
    cfg.scheme.subflows = 2;
    cfg.pattern = core::Pattern::Permutation;
    cfg.permutation_rounds = 1;
    cfg.perm_min_bytes = 250'000;
    cfg.perm_max_bytes = 500'000;
    cfg.duration = sim::Time::seconds(2.0);
    const auto res = core::run_experiment(cfg);
    benchmark::DoNotOptimize(res.goodput.count());
    state.counters["events/s"] = benchmark::Counter(
        static_cast<double>(res.events_dispatched),
        benchmark::Counter::kIsIterationInvariantRate);
  }
}
BENCHMARK(BM_FatTreePermutationRound)->Unit(benchmark::kMillisecond);

void BM_ShardedEpoch(benchmark::State& state) {
  // The sharded conservative-sync engine: a horizon-bounded permutation
  // slice on a k-pod Fat-Tree where no flow completes inside the window,
  // so every iteration runs epochs with no round end — the steady-state
  // regime that dominates 1000-host runs.
  // range(0) = fat_tree_k, range(1) = worker threads (--shards). Results
  // are bit-identical across the worker axis; only events/s may move.
  // Three workers split the k pods unevenly (3/3/2 at k=8), as perm_k8 in
  // perfbench does. On a host with fewer cores than workers the threads
  // time-slice and the worker axis is flat.
  const int k = static_cast<int>(state.range(0));
  const int workers = static_cast<int>(state.range(1));
  std::uint64_t events = 0;
  for (auto _ : state) {
    core::ExperimentConfig cfg;
    cfg.fat_tree_k = k;
    cfg.scheme.kind = workload::SchemeSpec::Kind::Xmp;
    cfg.scheme.subflows = 2;
    cfg.pattern = core::Pattern::Permutation;
    cfg.permutation_rounds = 1;
    cfg.duration = sim::Time::milliseconds(2);  // << flow completion time
    cfg.seed = 42;
    cfg.shards = workers;
    const auto res = core::run_experiment(cfg);
    events = res.events_dispatched;
    benchmark::DoNotOptimize(events);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsIterationInvariantRate);
}
// UseRealTime: with worker threads the main thread's CPU time is a fraction
// of wall-clock, and counter rates divide by the measured time — only real
// time makes events/s comparable across the worker axis.
BENCHMARK(BM_ShardedEpoch)
    ->Args({8, 1})
    ->Args({8, 2})
    ->Args({8, 3})
    ->Args({8, 4})
    ->Args({16, 1})
    ->Args({16, 2})
    ->Args({16, 3})
    ->Args({16, 4})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_CheckpointWrite(benchmark::State& state) {
  // The checkpoint write hot path (DESIGN.md §12): serialize a payload of
  // range(0) KB through a saving ckpt::Io, CRC it and publish atomically
  // (temp file + rename). 64 KB matches a real k=4 snapshot; 1 MB bounds
  // larger topologies. The payload mix mirrors World::checkpoint: mostly
  // u64/i64 counters with a sprinkling of f64 samples.
  const std::size_t kb = static_cast<std::size_t>(state.range(0));
  const std::string path =
      (std::filesystem::temp_directory_path() / "bm_ckpt.bin").string();
  std::uint64_t seq = 0;
  for (auto _ : state) {
    core::ckpt::Io s;
    const std::size_t words = kb * 1024 / 8;
    for (std::size_t i = 0; i < words; ++i) {
      if (i % 8 == 7) {
        double x = static_cast<double>(i) * 1e-3;
        s.f64(x);
      } else {
        std::uint64_t v = i * 0x9E3779B97F4A7C15ull;
        s.u64(v);
      }
    }
    core::ckpt::Header h;
    h.fingerprint = 0xBADC0FFEE;
    h.t_ns = 1'000'000;
    h.seq = ++seq;
    const bool ok = core::ckpt::write_file(path, h, s.data(), nullptr);
    benchmark::DoNotOptimize(ok);
  }
  std::remove(path.c_str());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * kb * 1024));
}
BENCHMARK(BM_CheckpointWrite)->Arg(64)->Arg(1024);

void BM_CheckpointRestore(benchmark::State& state) {
  // The matching read path: open, header + CRC verification, payload into
  // memory. This is the per-retry cost the orchestrator pays to resume a
  // job from its newest snapshot.
  const std::size_t kb = static_cast<std::size_t>(state.range(0));
  const std::string path =
      (std::filesystem::temp_directory_path() / "bm_ckpt_r.bin").string();
  core::ckpt::Io s;
  for (std::size_t i = 0; i < kb * 1024 / 8; ++i) {
    std::uint64_t v = i * 0x9E3779B97F4A7C15ull;
    s.u64(v);
  }
  core::ckpt::Header h;
  h.fingerprint = 0xBADC0FFEE;
  h.t_ns = 1'000'000;
  h.seq = 1;
  core::ckpt::write_file(path, h, s.data(), nullptr);
  for (auto _ : state) {
    core::ckpt::Header rh;
    std::string payload;
    const bool ok = core::ckpt::read_file(path, 0xBADC0FFEE, rh, payload, nullptr);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(payload.data());
  }
  std::remove(path.c_str());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * kb * 1024));
}
BENCHMARK(BM_CheckpointRestore)->Arg(64)->Arg(1024);

void BM_HybridSteadyState(benchmark::State& state) {
  // The hybrid fluid/packet engine (DESIGN.md §14) at steady state: range(0)
  // fluid background aggregates + 2 packet-accurate foreground flows on a
  // k=4 Fat-Tree for 50 ms of sim time. The per-tick cost is
  // O(subflows + paths x hops), so wall-clock should grow sublinearly in the
  // flow count until the subflow term dominates — this is the scaling claim
  // behind the 10^5-flow recipe in EXPERIMENTS.md.
  core::ExperimentConfig cfg;
  cfg.fat_tree_k = 4;
  cfg.scheme.kind = workload::SchemeSpec::Kind::Xmp;
  cfg.scheme.subflows = 2;
  cfg.duration = sim::Time::seconds(0.05);
  cfg.seed = 11;
  cfg.hybrid.enabled = true;
  cfg.hybrid.bg_flows = static_cast<int>(state.range(0));
  cfg.hybrid.fg_flows = 2;
  for (auto _ : state) {
    const auto res = core::run_experiment(cfg);
    benchmark::DoNotOptimize(res.hybrid.fluid_bytes);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HybridSteadyState)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
