// Figure 6: fairness on one shared 300 Mbps bottleneck (paper Fig. 3b).
//
// Flow 1 is XMP with three subflows established at 0, t1, t2; Flow 2 is
// XMP with two subflows (both at t3); Flows 3 and 4 are single-subflow,
// started at 0 and t2/2 and stopped at t4. All subflows share the SAME
// bottleneck, so coupling is what keeps per-FLOW shares equal regardless
// of subflow count: with beta=4 all four flows share fairly; beta=6
// degrades fairness (paper Fig. 6b).
//
// Usage: bench_fig6_fairness [--unit=2] [--bin=0.5] [--series]

#include <memory>

#include "common.hpp"

using namespace xmp;

namespace {

constexpr std::int64_t kBottleneck = 300'000'000;
constexpr std::int64_t kUnbounded = 1'000'000'000'000LL;

struct CaseResult {
  double share[4] = {0, 0, 0, 0};  // normalized per-flow rate, steady window
  double jain = 0.0;
  std::vector<bench::RateSeries> rates;  ///< per subflow, only when probed
};

/// `probe`: also record every subflow's rate series (the probes only read,
/// so the shares and Jain index do not depend on it).
CaseResult run_case(int beta, double unit_s, double bin_s, bool probe) {
  sim::Scheduler sched;
  net::Network network{sched};

  topo::PinnedPaths::Config tc;
  tc.bottlenecks = {{kBottleneck, sim::Time::microseconds(500)}};
  tc.bottleneck_queue.kind = net::QueueConfig::Kind::EcnThreshold;
  tc.bottleneck_queue.capacity_packets = 100;
  tc.bottleneck_queue.mark_threshold = 15;
  tc.access_delay = sim::Time::microseconds(100);
  tc.inner_delay = sim::Time::microseconds(100);
  topo::PinnedPaths testbed{network, tc};

  const auto U = sim::Time::seconds(unit_s);

  // Flow 1: 3 subflows at 0, 1U, 3U (paper: 0, 5, 15 s).
  auto p1 = testbed.add_pair({0, 0, 0});
  mptcp::MptcpConnection::Config c1;
  c1.id = 1;
  c1.size_bytes = kUnbounded;
  c1.n_subflows = 3;
  c1.coupling = mptcp::Coupling::Xmp;
  c1.bos.beta = beta;
  c1.subflow_start_offsets = {sim::Time::zero(), U, U * 3};
  c1.path_tag_fn = [](int i) { return static_cast<std::uint16_t>(i); };
  mptcp::MptcpConnection flow1{sched, *p1.src, *p1.dst, c1};

  // Flow 2: 2 subflows, both at 4U (paper: 20 s).
  auto p2 = testbed.add_pair({0, 0});
  mptcp::MptcpConnection::Config c2 = c1;
  c2.id = 2;
  c2.n_subflows = 2;
  c2.subflow_start_offsets.clear();
  mptcp::MptcpConnection flow2{sched, *p2.src, *p2.dst, c2};

  // Flows 3 and 4: single subflow, start 0 and 2U, stop at 5U.
  auto p3 = testbed.add_pair({0});
  mptcp::MptcpConnection::Config c3 = c1;
  c3.id = 3;
  c3.n_subflows = 1;
  c3.subflow_start_offsets.clear();
  mptcp::MptcpConnection flow3{sched, *p3.src, *p3.dst, c3};
  auto p4 = testbed.add_pair({0});
  mptcp::MptcpConnection::Config c4 = c3;
  c4.id = 4;
  mptcp::MptcpConnection flow4{sched, *p4.src, *p4.dst, c4};

  flow1.start();
  flow3.start();
  sched.schedule_at(U * 2, [&] { flow4.start(); });
  sched.schedule_at(U * 4, [&] { flow2.start(); });
  // Stop flows 3 and 4 at 5U (paper: 25 s) by closing their access links.
  sched.schedule_at(U * 5, [&] {
    network.host(4).uplink()->set_down(true);
    network.host(6).uplink()->set_down(true);
  });

  // Measurement window: [4.2U, 5U) — all four flows active.
  std::int64_t base[4] = {0, 0, 0, 0};
  auto delivered = [&](int f) -> std::int64_t {
    switch (f) {
      case 0: {
        std::int64_t s = 0;
        for (int i = 0; i < 3; ++i) s += flow1.subflow_sender(i).delivered_segments();
        return s;
      }
      case 1: {
        std::int64_t s = 0;
        for (int i = 0; i < 2; ++i) s += flow2.subflow_sender(i).delivered_segments();
        return s;
      }
      case 2:
        return flow3.subflow_sender(0).delivered_segments();
      default:
        return flow4.subflow_sender(0).delivered_segments();
    }
  };
  const sim::Time wstart = U * 42 / 10;
  const sim::Time wend = U * 5;
  sched.schedule_at(wstart, [&] {
    for (int f = 0; f < 4; ++f) base[f] = delivered(f);
  });

  CaseResult res;
  sched.schedule_at(wend, [&] {
    const double span = (wend - wstart).sec();
    std::vector<double> shares;
    for (int f = 0; f < 4; ++f) {
      res.share[f] =
          static_cast<double>(delivered(f) - base[f]) * net::kMssBytes * 8 / span / kBottleneck;
      shares.push_back(res.share[f]);
    }
    res.jain = stats::jain_index(shares);
  });

  std::vector<std::unique_ptr<stats::RateProbe>> probes;
  std::vector<std::string> names;
  if (probe) {
    for (int i = 0; i < 3; ++i) {
      probes.push_back(bench::rate_probe(sched, sim::Time::seconds(bin_s),
                                         flow1.subflow_sender(i)));
      names.push_back("Flow1-" + std::to_string(i + 1));
    }
    for (int i = 0; i < 2; ++i) {
      probes.push_back(bench::rate_probe(sched, sim::Time::seconds(bin_s),
                                         flow2.subflow_sender(i)));
      names.push_back("Flow2-" + std::to_string(i + 1));
    }
    probes.push_back(bench::rate_probe(sched, sim::Time::seconds(bin_s),
                                       flow3.subflow_sender(0)));
    names.push_back("Flow3");
    probes.push_back(bench::rate_probe(sched, sim::Time::seconds(bin_s),
                                       flow4.subflow_sender(0)));
    names.push_back("Flow4");
    for (auto& p : probes) p->start();
  }

  sched.run_until(U * 6);

  for (std::size_t i = 0; i < probes.size(); ++i) {
    res.rates.push_back(bench::series_of(names[i], *probes[i]));
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const cli::Args args{argc, argv};
  bool ok = true;
  const double unit = cli::flag_d(args, "unit", 2.0, 0.01, 3600, ok);
  const double bin = cli::flag_d(args, "bin", 0.5, 0.001, 3600, ok);
  const bool series = args.has("series");
  if (!ok || !args.finish()) return 2;

  bench::print_banner("bench_fig6_fairness",
                      "Figure 6 (per-flow fairness irrespective of subflow count)");
  std::printf("time unit: %.1fs (paper: 5s); 300 Mbps bottleneck, K=15, RTT~1.8ms\n\n", unit);
  std::printf("%-8s %10s %10s %10s %10s %10s\n", "case", "Flow1(3sf)", "Flow2(2sf)", "Flow3",
              "Flow4", "Jain");
  const int betas[] = {4, 6};
  std::vector<CaseResult> results;
  for (int beta : betas) results.push_back(run_case(beta, unit, bin, series));
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CaseResult& r = results[i];
    std::printf("beta=%-3d %10.3f %10.3f %10.3f %10.3f %10.3f\n", betas[i], r.share[0],
                r.share[1], r.share[2], r.share[3], r.jain);
  }
  std::printf("\npaper shape: with beta=4 all flows get ~1/4 of the link regardless of\n"
              "subflow count; fairness declines with beta=6 (Fig. 6b).\n");

  if (series) {
    for (std::size_t i = 0; i < results.size(); ++i) {
      std::printf("\n--- beta=%d per-subflow rate series ---\n", betas[i]);
      bench::print_rate_series(results[i].rates, kBottleneck);
    }
  }
  return 0;
}
