// Produce a gnuplot/matplotlib-ready CSV trace of the Figure 4 scenario:
// per-subflow rates and bottleneck queue occupancy of an XMP connection
// while background load moves from one path to the other.
//
//   $ ./subflow_trace > trace.csv
//   $ gnuplot -e "set datafile separator ','; \
//       plot 'trace.csv' using 1:2 with lines title 'subflow 0', \
//            '' using 1:3 with lines title 'subflow 1'"

#include <cstdio>

#include "core/cli.hpp"
#include "core/xmp.hpp"

int main(int argc, char** argv) {
  using namespace xmp;
  if (!cli::Args{argc, argv}.finish()) return 2;  // takes no flags

  sim::Scheduler sched;
  net::Network network{sched};

  topo::PinnedPaths::Config tc;
  tc.bottlenecks = {{300'000'000, sim::Time::microseconds(500)},
                    {300'000'000, sim::Time::microseconds(500)}};
  tc.bottleneck_queue.kind = net::QueueConfig::Kind::EcnThreshold;
  tc.bottleneck_queue.capacity_packets = 100;
  tc.bottleneck_queue.mark_threshold = 15;
  tc.access_delay = sim::Time::microseconds(100);
  tc.inner_delay = sim::Time::microseconds(100);
  topo::PinnedPaths testbed{network, tc};

  auto pair = testbed.add_pair({0, 1});
  mptcp::MptcpConnection::Config mc;
  mc.id = 1;
  mc.size_bytes = 1'000'000'000'000LL;
  mc.n_subflows = 2;
  mc.coupling = mptcp::Coupling::Xmp;
  mc.bos.beta = 4;
  mc.path_tag_fn = [](int i) { return static_cast<std::uint16_t>(i); };
  mptcp::MptcpConnection conn{sched, *pair.src, *pair.dst, mc};

  // Background BOS flow hopping between paths every second.
  auto bg0 = testbed.add_pair({0});
  auto bg1 = testbed.add_pair({1});
  auto make_bg = [&](net::FlowId id, topo::PinnedPaths::Pair& p) {
    transport::Flow::Config fc;
    fc.id = id;
    fc.size_bytes = 1'000'000'000'000LL;
    fc.cc.kind = transport::CcConfig::Kind::Bos;
    fc.path_tag = 0;
    fc.path_tag_explicit = true;
    return std::make_unique<transport::Flow>(sched, *p.src, *p.dst, fc);
  };
  auto bg_on_0 = make_bg(2, bg0);
  auto bg_on_1 = make_bg(3, bg1);

  conn.start();
  sched.schedule_at(sim::Time::seconds(1.0), [&] { bg_on_0->start(); });
  sched.schedule_at(sim::Time::seconds(2.0), [&] { bg0.src->uplink()->set_down(true); });
  sched.schedule_at(sim::Time::seconds(2.0), [&] { bg_on_1->start(); });
  sched.schedule_at(sim::Time::seconds(3.0), [&] { bg1.src->uplink()->set_down(true); });

  // CSV sampling at 20 ms.
  std::printf("t_s,subflow0_mbps,subflow1_mbps,queue0_pkts,queue1_pkts,cwnd0,cwnd1\n");
  std::int64_t last0 = 0;
  std::int64_t last1 = 0;
  const sim::Time dt = sim::Time::milliseconds(20);
  std::function<void()> sample = [&] {
    const auto d0 = conn.subflow_sender(0).delivered_segments();
    const auto d1 = conn.subflow_sender(1).delivered_segments();
    std::printf("%.3f,%.1f,%.1f,%zu,%zu,%.1f,%.1f\n", sched.now().sec(),
                static_cast<double>(d0 - last0) * net::kMssBytes * 8 / dt.sec() / 1e6,
                static_cast<double>(d1 - last1) * net::kMssBytes * 8 / dt.sec() / 1e6,
                testbed.bottleneck(0).queued(),
                testbed.bottleneck(1).queued(), conn.subflow_sender(0).cwnd(),
                conn.subflow_sender(1).cwnd());
    last0 = d0;
    last1 = d1;
    sched.schedule_in(dt, sample);
  };
  sched.schedule_in(dt, sample);

  sched.run_until(sim::Time::seconds(4.0));
  return 0;
}
