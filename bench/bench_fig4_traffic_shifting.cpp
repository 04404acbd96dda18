// Figure 4: traffic shifting on the two-path testbed (paper Fig. 3a).
//
// Flow 1 (single path via DN1), Flow 2 (two subflows via DN1/DN2) and
// Flow 3 (single path via DN2) start together. Two background flows run
// on DN1 during [t1, t2) and on DN2 during [t2, t3). XMP must shift
// Flow 2's traffic from the congested path to the other one, and back;
// beta = 6 shifts more sluggishly than beta = 4 (paper's observation).
//
// Testbed parameters follow §4: 300 Mbps bottlenecks, RTT ~1.8 ms
// (BDP ~45 packets), K = 15, queue 100.
//
// Usage: bench_fig4_traffic_shifting [--phase=4] [--bin=0.5] [--series]

#include <memory>

#include "common.hpp"

using namespace xmp;

namespace {

constexpr std::int64_t kBottleneck = 300'000'000;

struct PhaseAverages {
  // Average normalized rate of Flow 2's subflows per phase:
  // phase 0 = no background, 1 = background on DN1, 2 = background on DN2.
  double sf1[3] = {0, 0, 0};
  double sf2[3] = {0, 0, 0};
  std::vector<bench::RateSeries> rates;  ///< Flow 2's subflows over the whole run
};

PhaseAverages run_case(int beta, double phase_s, double bin_s) {
  sim::Scheduler sched;
  net::Network network{sched};

  topo::PinnedPaths::Config tc;
  tc.bottlenecks = {{kBottleneck, sim::Time::microseconds(500)},
                    {kBottleneck, sim::Time::microseconds(500)}};
  tc.bottleneck_queue.kind = net::QueueConfig::Kind::EcnThreshold;
  tc.bottleneck_queue.capacity_packets = 100;
  tc.bottleneck_queue.mark_threshold = 15;
  tc.access_delay = sim::Time::microseconds(100);
  tc.inner_delay = sim::Time::microseconds(100);  // base RTT = 1.8 ms
  topo::PinnedPaths testbed{network, tc};

  const std::int64_t kUnbounded = 1'000'000'000'000LL;

  // Flow 1: single path via bottleneck 0.
  auto p1 = testbed.add_pair({0});
  transport::Flow::Config f1c;
  f1c.id = 1;
  f1c.size_bytes = kUnbounded;
  f1c.cc.kind = transport::CcConfig::Kind::Bos;
  f1c.cc.bos.beta = beta;
  f1c.path_tag = 0;
  f1c.path_tag_explicit = true;
  transport::Flow flow1{sched, *p1.src, *p1.dst, f1c};

  // Flow 2: XMP with one subflow per bottleneck.
  auto p2 = testbed.add_pair({0, 1});
  mptcp::MptcpConnection::Config f2c;
  f2c.id = 2;
  f2c.size_bytes = kUnbounded;
  f2c.n_subflows = 2;
  f2c.coupling = mptcp::Coupling::Xmp;
  f2c.bos.beta = beta;
  f2c.path_tag_fn = [](int i) { return static_cast<std::uint16_t>(i); };
  mptcp::MptcpConnection flow2{sched, *p2.src, *p2.dst, f2c};

  // Flow 3: single path via bottleneck 1.
  auto p3 = testbed.add_pair({1});
  transport::Flow::Config f3c = f1c;
  f3c.id = 3;
  transport::Flow flow3{sched, *p3.src, *p3.dst, f3c};

  // Background flows (single-path BOS, same beta).
  auto bg1_pair = testbed.add_pair({0});
  auto bg2_pair = testbed.add_pair({1});
  transport::Flow::Config b1c = f1c;
  b1c.id = 11;
  transport::Flow bg1{sched, *bg1_pair.src, *bg1_pair.dst, b1c};
  transport::Flow::Config b2c = f1c;
  b2c.id = 12;
  b2c.path_tag = 0;  // pair bg2 has a single up-port (bottleneck 1)
  transport::Flow bg2{sched, *bg2_pair.src, *bg2_pair.dst, b2c};

  const auto T = sim::Time::seconds(phase_s);
  flow1.start();
  flow2.start();
  flow3.start();
  sched.schedule_at(T, [&] { bg1.start(); });
  sched.schedule_at(T * 2, [&] { network.host(6).uplink()->set_down(true); });  // stop bg1
  sched.schedule_at(T * 2, [&] { bg2.start(); });
  sched.schedule_at(T * 3, [&] { network.host(8).uplink()->set_down(true); });  // stop bg2

  auto r1 = bench::rate_probe(sched, sim::Time::seconds(bin_s), flow2.subflow_sender(0));
  auto r2 = bench::rate_probe(sched, sim::Time::seconds(bin_s), flow2.subflow_sender(1));
  r1->start();
  r2->start();

  PhaseAverages avg;
  std::int64_t marks1[4] = {0, 0, 0, 0};
  std::int64_t marks2[4] = {0, 0, 0, 0};
  for (int i = 0; i <= 3; ++i) {
    sched.schedule_at(T * i, [&, i] {
      marks1[i] = flow2.subflow_sender(0).delivered_segments();
      marks2[i] = flow2.subflow_sender(1).delivered_segments();
    });
  }
  sched.run_until(T * 4);

  for (int ph = 0; ph < 3; ++ph) {
    const double span = T.sec();
    avg.sf1[ph] = static_cast<double>(marks1[ph + 1] - marks1[ph]) * net::kMssBytes * 8 / span /
                  kBottleneck;
    avg.sf2[ph] = static_cast<double>(marks2[ph + 1] - marks2[ph]) * net::kMssBytes * 8 / span /
                  kBottleneck;
  }

  avg.rates = {bench::series_of("Flow2-1", *r1), bench::series_of("Flow2-2", *r2)};
  return avg;
}

}  // namespace

int main(int argc, char** argv) {
  const cli::Args args{argc, argv};
  bool ok = true;
  const double phase = cli::flag_d(args, "phase", 4.0, 0.01, 3600, ok);
  const double bin = cli::flag_d(args, "bin", 0.5, 0.001, 3600, ok);
  const bool series = args.has("series");
  if (!ok || !args.finish()) return 2;

  bench::print_banner("bench_fig4_traffic_shifting",
                      "Figure 4 (XMP shifting Flow 2 between DN1/DN2 under background load)");
  std::printf("phase length: %.1fs (paper: 10s); 300 Mbps bottlenecks, K=15, RTT~1.8ms\n\n",
              phase);

  const int betas[] = {4, 6};
  std::vector<PhaseAverages> results;
  for (int beta : betas) results.push_back(run_case(beta, phase, bin));

  for (std::size_t i = 0; i < results.size(); ++i) {
    const int beta = betas[i];
    const PhaseAverages& avg = results[i];
    std::printf("beta=%d  normalized avg rate of Flow 2's subflows per phase:\n", beta);
    std::printf("  %-28s %10s %10s\n", "phase", "Flow2-1", "Flow2-2");
    std::printf("  %-28s %10.3f %10.3f\n", "no background", avg.sf1[0], avg.sf2[0]);
    std::printf("  %-28s %10.3f %10.3f\n", "background on DN1", avg.sf1[1], avg.sf2[1]);
    std::printf("  %-28s %10.3f %10.3f\n", "background on DN2", avg.sf1[2], avg.sf2[2]);
    const double shift1 = avg.sf1[0] - avg.sf1[1];  // subflow 1 sheds under bg on DN1
    const double comp1 = avg.sf2[1] - avg.sf2[0];   // subflow 2 compensates
    std::printf("  shed on congested path: %.3f, compensation on sibling: %.3f\n\n", shift1,
                comp1);
  }
  std::printf("paper shape: subflow on the congested path sheds rate, the sibling\n"
              "compensates; beta=6 shifts less effectively than beta=4 (Fig. 4b).\n");

  // The figure itself (numeric table behind --series).
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::printf("\n--- beta=%d subflow rates over time ---\n", betas[i]);
    if (series) bench::print_rate_series(results[i].rates, kBottleneck);
    bench::print_rate_chart(results[i].rates, kBottleneck);
  }
  return 0;
}
