// Figure 1: four flows competing for a 1 Gbps bottleneck (RTT ~225 us, no
// queuing), flows started/stopped at fixed intervals. Compares DCTCP's
// proportional reduction against a constant-factor ("halving", beta = 2)
// reduction at marking thresholds K = 10 and K = 20.
//
// Paper's observations to reproduce:
//  (a,b) DCTCP can converge to an UNFAIR allocation after flow churn
//        (global synchronization before convergence completes);
//  (c,d) constant-factor halving with K chosen per Eq. 1 stays fair and
//        still achieves (near-)full utilization.
//
// Usage: bench_fig1_convergence [--interval=2] [--bin=0.5] [--series]

#include <array>
#include <memory>

#include "common.hpp"

using namespace xmp;

namespace {

struct Result {
  double jain = 0.0;
  double utilization = 0.0;
  std::vector<bench::RateSeries> rates;  ///< per flow, over the whole run
};

Result run_case(bool dctcp, int mark_threshold, double interval_s, double bin_s) {
  sim::Scheduler sched;
  net::Network network{sched};

  topo::PinnedPaths::Config tc;
  tc.bottlenecks = {{1'000'000'000, sim::Time::microseconds(72)}};
  tc.bottleneck_queue.kind = net::QueueConfig::Kind::EcnThreshold;
  tc.bottleneck_queue.capacity_packets = 100;
  tc.bottleneck_queue.mark_threshold = static_cast<std::size_t>(mark_threshold);
  tc.access_delay = sim::Time::microseconds(10);
  tc.inner_delay = sim::Time::microseconds(10);
  topo::PinnedPaths testbed{network, tc};

  // Four long-running flows on the same bottleneck.
  std::vector<std::unique_ptr<transport::Flow>> flows;
  for (int i = 0; i < 4; ++i) {
    auto pair = testbed.add_pair({0});
    transport::Flow::Config fc;
    fc.id = static_cast<net::FlowId>(i + 1);
    fc.size_bytes = 1'000'000'000'000LL;  // effectively unbounded
    fc.cc.kind = dctcp ? transport::CcConfig::Kind::Dctcp : transport::CcConfig::Kind::Bos;
    fc.cc.bos.beta = 2;  // "halving cwnd"
    fc.path_tag = 0;
    fc.path_tag_explicit = true;
    flows.push_back(std::make_unique<transport::Flow>(sched, *pair.src, *pair.dst, fc));
  }

  // Start flows 1..4 at 0, T, 2T, 3T; stop 4, 3, 2 at 4T, 5T, 6T. The
  // stop is modelled by closing the flow's access link (the paper stops
  // the sending application).
  const auto T = sim::Time::seconds(interval_s);
  for (int i = 0; i < 4; ++i) {
    sched.schedule_at(T * i, [&flows, i] { flows[static_cast<std::size_t>(i)]->start(); });
  }
  // Access uplink of each source host: PinnedPaths creates hosts in
  // (src, dst) order per pair, so sources sit at even indices.
  std::vector<net::Link*> src_uplinks;
  for (std::size_t h = 0; h < network.host_count(); h += 2) {
    src_uplinks.push_back(network.host(h).uplink());
  }
  sched.schedule_at(T * 4, [&] { src_uplinks[3]->set_down(true); });
  sched.schedule_at(T * 5, [&] { src_uplinks[2]->set_down(true); });
  sched.schedule_at(T * 6, [&] { src_uplinks[1]->set_down(true); });

  // Rate probes.
  std::vector<std::unique_ptr<stats::RateProbe>> probes;
  for (auto& f : flows) {
    probes.push_back(bench::rate_probe(sched, sim::Time::seconds(bin_s), f->sender()));
  }
  for (auto& p : probes) p->start();

  // Utilization + fairness measured in the all-four-active window [3T, 4T].
  stats::UtilizationWindow util{sched};
  std::array<std::int64_t, 4> delivered_at_3t{};
  sched.schedule_at(T * 3, [&] {
    util.open({&testbed.bottleneck(0)});
    for (int i = 0; i < 4; ++i) {
      delivered_at_3t[static_cast<std::size_t>(i)] =
          flows[static_cast<std::size_t>(i)]->sender().delivered_segments();
    }
  });
  Result res;
  sched.schedule_at(T * 4, [&] {
    res.utilization = util.close().at(0);
    std::vector<double> shares;
    for (int i = 0; i < 4; ++i) {
      shares.push_back(static_cast<double>(
          flows[static_cast<std::size_t>(i)]->sender().delivered_segments() -
          delivered_at_3t[static_cast<std::size_t>(i)]));
    }
    res.jain = stats::jain_index(shares);
  });

  sched.run_until(T * 7);

  for (std::size_t i = 0; i < probes.size(); ++i) {
    res.rates.push_back(bench::series_of("Flow" + std::to_string(i + 1), *probes[i]));
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const cli::Args args{argc, argv};
  bool ok = true;
  const double interval = cli::flag_d(args, "interval", 2.0, 0.01, 3600, ok);
  const double bin = cli::flag_d(args, "bin", 0.5, 0.001, 3600, ok);
  const bool series = args.has("series");
  if (!ok || !args.finish()) return 2;

  bench::print_banner("bench_fig1_convergence",
                      "Figure 1 (fairness/convergence of DCTCP vs constant-factor halving)");
  std::printf("interval between flow churn events: %.1fs (paper: 5s)\n\n", interval);

  struct Case {
    const char* name;
    bool dctcp;
    int k;
  };
  const Case cases[] = {
      {"(a) DCTCP,        K=10", true, 10},
      {"(b) DCTCP,        K=20", true, 20},
      {"(c) Halving cwnd, K=10", false, 10},
      {"(d) Halving cwnd, K=20", false, 20},
  };

  std::vector<Result> results;
  for (const auto& c : cases) results.push_back(run_case(c.dctcp, c.k, interval, bin));

  std::printf("%-26s %18s %18s\n", "case", "Jain(4 flows)", "bottleneck util");
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::printf("%-26s %18.3f %18.3f\n", cases[i].name, results[i].jain, results[i].utilization);
  }
  std::printf("\npaper shape: halving stays fair (Jain ~1) at both K; DCTCP may\n"
              "converge unfairly after churn; utilization stays high for K=10,20\n"
              "since K >= BDP/(beta-1) (Eq. 1; BDP ~ 19 pkts).\n");

  // The figure itself: per-flow normalized rate over time. The numeric
  // table version is behind --series.
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::printf("\n--- %s ---\n", cases[i].name);
    if (series) bench::print_rate_series(results[i].rates, 1e9);
    bench::print_rate_chart(results[i].rates, 1e9);
  }
  return 0;
}
