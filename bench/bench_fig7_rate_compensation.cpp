// Figure 7: rate compensation in the ring of five bottlenecks (paper
// Fig. 5). Bottleneck capacities 0.8/1.2/2/1.5/0.5 Gbps; flows 1..5 each
// run two subflows on consecutive bottlenecks (flow i on L_i and
// L_{i+1 mod 5}), started one by one. Four background flows are then added
// to L3 one by one, making it increasingly congested, then removed; at the
// end L3 is closed entirely.
//
// Expected shape (paper §5.1): Flow 2-2 and Flow 3-1 (on L3) shed rate as
// background load grows; their siblings Flow 2-1 / Flow 3-2 compensate,
// which in turn depresses Flow 1-2 and Flow 4-2 — the "attenuated
// dominos". Flow 1-1 / Flow 5-* stay nearly unchanged. When L3 closes,
// the L3 subflows collapse to zero and the siblings jump.
//
// Usage: bench_fig7_rate_compensation [--unit=0.5]

#include <memory>

#include "common.hpp"

using namespace xmp;

namespace {

constexpr std::int64_t kCaps[5] = {800'000'000, 1'200'000'000, 2'000'000'000, 1'500'000'000,
                                   500'000'000};
constexpr std::int64_t kUnbounded = 1'000'000'000'000LL;

struct Sample {
  double rate[5][2];  // flow i, subflow j, normalized to its bottleneck cap
};

std::vector<Sample> run_case(int beta, int mark_k, double unit_s,
                             std::vector<double>* bg_series) {
  sim::Scheduler sched;
  net::Network network{sched};

  topo::PinnedPaths::Config tc;
  for (auto cap : kCaps) tc.bottlenecks.push_back({cap, sim::Time::microseconds(80)});
  tc.bottleneck_queue.kind = net::QueueConfig::Kind::EcnThreshold;
  tc.bottleneck_queue.capacity_packets = 100;
  tc.bottleneck_queue.mark_threshold = static_cast<std::size_t>(mark_k);
  tc.access_delay = sim::Time::microseconds(20);
  tc.inner_delay = sim::Time::microseconds(15);  // base RTT ~ 350 us
  tc.access_rate_bps = 20'000'000'000;
  tc.inner_rate_bps = 20'000'000'000;
  topo::PinnedPaths ring{network, tc};

  // Flows 1..5: subflows on L_i and L_{(i+1) % 5}.
  std::vector<std::unique_ptr<mptcp::MptcpConnection>> flows;
  const auto U = sim::Time::seconds(unit_s);
  for (int i = 0; i < 5; ++i) {
    auto pair = ring.add_pair({i, (i + 1) % 5});
    mptcp::MptcpConnection::Config mc;
    mc.id = static_cast<net::FlowId>(i + 1);
    mc.size_bytes = kUnbounded;
    mc.n_subflows = 2;
    mc.coupling = mptcp::Coupling::Xmp;
    mc.bos.beta = beta;
    mc.path_tag_fn = [](int j) { return static_cast<std::uint16_t>(j); };
    flows.push_back(std::make_unique<mptcp::MptcpConnection>(sched, *pair.src, *pair.dst, mc));
    sched.schedule_at(U * i, [&flows, i] { flows[static_cast<std::size_t>(i)]->start(); });
  }

  // Four background flows on L3 (index 2), added at 5U..8U, removed at
  // 9U..12U (paper: added at 25..40 s, removed after 45 s). L3 closes at 13U.
  std::vector<std::unique_ptr<transport::Flow>> bg;
  std::vector<net::Link*> bg_uplinks;
  for (int b = 0; b < 4; ++b) {
    auto pair = ring.add_pair({2});
    transport::Flow::Config fc;
    fc.id = static_cast<net::FlowId>(100 + b);
    fc.size_bytes = kUnbounded;
    fc.cc.kind = transport::CcConfig::Kind::Bos;
    fc.cc.bos.beta = beta;
    fc.path_tag = 0;
    fc.path_tag_explicit = true;
    bg.push_back(std::make_unique<transport::Flow>(sched, *pair.src, *pair.dst, fc));
    bg_uplinks.push_back(pair.src->uplink());
    sched.schedule_at(U * (5 + b), [&bg, b] { bg[static_cast<std::size_t>(b)]->start(); });
    sched.schedule_at(U * (9 + b), [&bg_uplinks, b] {
      bg_uplinks[static_cast<std::size_t>(b)]->set_down(true);
    });
  }
  sched.schedule_at(U * 13, [&] { ring.bottleneck(2).set_down(true); });

  // Sample per-unit average subflow rates, normalized to the subflow's own
  // bottleneck capacity (as in the paper's normalized plots).
  std::vector<Sample> samples;
  std::int64_t last[5][2] = {};
  std::vector<double> bg_last(4, 0.0);
  std::function<void()> tick = [&] {
    Sample s{};
    for (int i = 0; i < 5; ++i) {
      for (int j = 0; j < 2; ++j) {
        const auto d = flows[static_cast<std::size_t>(i)]->subflow_sender(j).delivered_segments();
        const int bneck = (i + j) % 5;
        s.rate[i][j] = static_cast<double>(d - last[i][j]) * net::kMssBytes * 8 / U.sec() /
                       static_cast<double>(kCaps[bneck]);
        last[i][j] = d;
      }
    }
    samples.push_back(s);
    if (bg_series != nullptr) {
      double total = 0.0;
      for (int b = 0; b < 4; ++b) {
        const auto d =
            static_cast<double>(bg[static_cast<std::size_t>(b)]->sender().delivered_segments());
        total += d - bg_last[static_cast<std::size_t>(b)];
        bg_last[static_cast<std::size_t>(b)] = d;
      }
      bg_series->push_back(total * net::kMssBytes * 8 / U.sec() / static_cast<double>(kCaps[2]));
    }
    sched.schedule_in(U, tick);
  };
  sched.schedule_in(U, tick);

  sched.run_until(U * 15);
  return samples;
}

}  // namespace

int main(int argc, char** argv) {
  const cli::Args args{argc, argv};
  bool ok = true;
  const double unit = cli::flag_d(args, "unit", 0.5, 0.01, 3600, ok);
  if (!ok || !args.finish()) return 2;

  bench::print_banner(
      "bench_fig7_rate_compensation",
      "Figure 7 (attenuated-dominos rate compensation in the 5-bottleneck ring)");
  std::printf("time unit: %.1fs (paper: 5s); caps 0.8/1.2/2/1.5/0.5 Gbps; L3 congested\n"
              "by 4 background flows then closed at 13 units.\n\n",
              unit);

  const struct {
    int beta;
    int k;
  } cases[] = {{4, 20}, {5, 15}, {6, 10}};

  for (const auto& c : cases) {
    const auto samples = run_case(c.beta, c.k, unit, nullptr);
    std::printf("--- beta=%d, K=%d: normalized avg subflow rates per unit ---\n", c.beta, c.k);
    std::printf("%5s", "t");
    for (int i = 1; i <= 5; ++i) {
      std::printf("  F%d-1  F%d-2", i, i);
    }
    std::printf("\n");
    for (std::size_t t = 0; t < samples.size(); ++t) {
      std::printf("%5zu", t + 1);
      for (int i = 0; i < 5; ++i) {
        std::printf(" %5.2f %5.2f", samples[t].rate[i][0], samples[t].rate[i][1]);
      }
      std::printf("\n");
    }

    // Shape checks: compare the quiet phase (t=5U, all flows up, no bg)
    // with the fully-loaded phase (t=9U, 4 bg flows) and after closure.
    const Sample& quiet = samples[4];
    const Sample& loaded = samples[8];
    const Sample& closed = samples.back();
    std::printf("shape: F2-2 %5.2f -> %5.2f (loaded) -> %5.2f (L3 closed)\n",
                quiet.rate[1][1], loaded.rate[1][1], closed.rate[1][1]);
    std::printf("       F3-1 %5.2f -> %5.2f           -> %5.2f\n", quiet.rate[2][0],
                loaded.rate[2][0], closed.rate[2][0]);
    std::printf("       F2-1 %5.2f -> %5.2f (compensates) F3-2 %5.2f -> %5.2f\n\n",
                quiet.rate[1][0], loaded.rate[1][0], quiet.rate[2][1], loaded.rate[2][1]);
  }
  std::printf("paper shape: rates on L3 fall with load and hit 0 at closure; siblings\n"
              "rise (concave/convex mirror pairs); F1-1 and F5-x barely move.\n");
  return 0;
}
