// Quickstart: the library in ~80 lines.
//
// Builds a two-path testbed (two 1 Gbps bottlenecks), runs one XMP
// connection with a subflow on each path plus a competing DCTCP flow on
// path 0, and shows XMP shifting traffic to the uncongested path while BOS
// keeps the bottleneck queues near the marking threshold K.
//
//   $ ./quickstart

#include <cstdio>

#include "core/cli.hpp"
#include "core/xmp.hpp"

int main(int argc, char** argv) {
  using namespace xmp;
  if (!cli::Args{argc, argv}.finish()) return 2;  // takes no flags

  sim::Scheduler sched;
  net::Network network{sched};

  // --- topology: two pinned 1 Gbps bottlenecks, ECN marking at K = 10 ---
  topo::PinnedPaths::Config tc;
  tc.bottlenecks = {{1'000'000'000, sim::Time::microseconds(50)},
                    {1'000'000'000, sim::Time::microseconds(50)}};
  tc.bottleneck_queue.kind = net::QueueConfig::Kind::EcnThreshold;
  tc.bottleneck_queue.capacity_packets = 100;
  tc.bottleneck_queue.mark_threshold = 10;
  topo::PinnedPaths testbed{network, tc};  // access links are over-provisioned

  // --- an XMP flow with one subflow per path ---
  auto mp_pair = testbed.add_pair({0, 1});
  mptcp::MptcpConnection::Config mc;
  mc.id = 1;
  mc.size_bytes = 60'000'000;
  mc.n_subflows = 2;
  mc.coupling = mptcp::Coupling::Xmp;
  mc.bos.beta = 4;
  mc.path_tag_fn = [](int subflow) { return static_cast<std::uint16_t>(subflow); };
  mptcp::MptcpConnection xmp_flow{sched, *mp_pair.src, *mp_pair.dst, mc};

  // --- a DCTCP competitor pinned to path 0, starting at t = 100 ms ---
  auto bg_pair = testbed.add_pair({0});
  transport::Flow::Config fc;
  fc.id = 2;
  fc.size_bytes = 25'000'000;
  fc.cc.kind = transport::CcConfig::Kind::Dctcp;
  fc.path_tag = 0;
  fc.path_tag_explicit = true;
  transport::Flow dctcp_flow{sched, *bg_pair.src, *bg_pair.dst, fc};

  // --- probes: per-subflow rate (50 ms bins) and queue occupancy ---
  stats::RateProbe rate0{sched, sim::Time::milliseconds(50), [&] {
    return static_cast<double>(xmp_flow.subflow_sender(0).delivered_segments());
  }};
  stats::RateProbe rate1{sched, sim::Time::milliseconds(50), [&] {
    return static_cast<double>(xmp_flow.subflow_sender(1).delivered_segments());
  }};
  stats::GaugeProbe queue0{sched, sim::Time::milliseconds(1), [&] {
    return static_cast<double>(testbed.bottleneck(0).queued());
  }};

  xmp_flow.start();
  sched.schedule_at(sim::Time::milliseconds(100), [&] { dctcp_flow.start(); });
  rate0.start();
  rate1.start();
  queue0.start();

  sched.run_until(sim::Time::milliseconds(500));

  std::printf("time(ms)  subflow0(Mbps)  subflow1(Mbps)\n");
  for (std::size_t i = 0; i < rate0.rates().size(); ++i) {
    std::printf("%7.0f %15.1f %15.1f\n", rate0.timestamps()[i].ms(),
                rate0.rates()[i] * net::kMssBytes * 8 / 1e6,
                rate1.rates()[i] * net::kMssBytes * 8 / 1e6);
  }

  stats::Distribution q;
  for (double v : queue0.samples()) q.add(v);
  std::printf("\nbottleneck-0 queue occupancy: mean %.1f pkts, p95 %.0f (K = 10, cap 100)\n",
              q.mean(), q.percentile(95));
  std::printf("XMP delivered %.1f MB in %.0f ms%s\n",
              xmp_flow.complete() ? xmp_flow.size_bytes() / 1e6 : 0.0,
              xmp_flow.complete() ? (xmp_flow.finish_time() - xmp_flow.start_time()).ms() : 0.0,
              xmp_flow.complete() ? "" : " (still running at cutoff)");
  return 0;
}
