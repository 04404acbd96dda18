// Extension ablation: D²TCP (related work [30]) vs DCTCP on deadline
// adherence. Eight senders repeatedly fan 500 KB responses into one
// 1 Gbps bottleneck; half the transfers carry a TIGHT deadline, half a
// LOOSE one. DCTCP shares fairly and lets the tight half miss; D²TCP's
// gamma-correction (penalty = alpha^d) lets near-deadline flows back off
// less, trading the loose flows' slack for tight-deadline adherence.
//
// Usage: bench_ablation_d2tcp [--senders=8] [--tight-ms=31 --alpha0=0.4] [--loose-ms=90]
//        [--rounds=40]

#include <memory>

#include "common.hpp"
#include "transport/cc/d2tcp.hpp"

using namespace xmp;

namespace {

struct Outcome {
  int total = 0;
  int missed_tight = 0;
  int missed_loose = 0;
  double mean_fct_ms = 0.0;
};

Outcome run_case(bool deadline_aware, int n_senders, double tight_ms, double loose_ms,
                 int rounds, double alpha0) {
  sim::Scheduler sched;
  net::Network network{sched};
  topo::PinnedPaths::Config tc;
  tc.bottlenecks = {{1'000'000'000, sim::Time::microseconds(100)}};
  tc.bottleneck_queue.kind = net::QueueConfig::Kind::EcnThreshold;
  tc.bottleneck_queue.capacity_packets = 100;
  tc.bottleneck_queue.mark_threshold = 10;
  topo::PinnedPaths tb{network, tc};

  struct Sender {
    std::unique_ptr<transport::FixedSource> source;
    std::unique_ptr<transport::TcpReceiver> receiver;
    std::unique_ptr<transport::TcpSender> sender;
  };
  std::vector<topo::PinnedPaths::Pair> pairs;
  for (int i = 0; i < n_senders; ++i) pairs.push_back(tb.add_pair({0}));

  Outcome out;
  double fct_sum = 0.0;
  constexpr std::int64_t kBytes = 500'000;
  const std::int64_t segs = net::segments_for_bytes(kBytes);

  int round = 0;
  std::vector<Sender> current(static_cast<std::size_t>(n_senders));
  int outstanding = 0;
  std::function<void()> start_round = [&] {
    if (round >= rounds) {
      sched.stop();
      return;
    }
    ++round;
    outstanding = n_senders;
    for (int i = 0; i < n_senders; ++i) {
      auto& slot = current[static_cast<std::size_t>(i)];
      const auto flow_id = static_cast<net::FlowId>(round * 1000 + i);
      const sim::Time started = sched.now();
      const bool tight = i % 2 == 0;
      const sim::Time deadline =
          sched.now() + sim::Time::seconds((tight ? tight_ms : loose_ms) / 1000.0);
      slot.source = std::make_unique<transport::FixedSource>(segs, [&, started, deadline,
                                                                    tight] {
        ++out.total;
        const double fct = (sched.now() - started).ms();
        fct_sum += fct;
        if (sched.now() > deadline) ++(tight ? out.missed_tight : out.missed_loose);
        if (--outstanding == 0) {
          // Defer: start_round() replaces the sender objects, and we are
          // currently inside one of their call stacks.
          sched.schedule_in(sim::Time::nanoseconds(1), start_round);
        }
      });
      transport::SenderConfig sc;
      sc.ecn_capable = true;
      transport::ReceiverConfig rc;
      rc.codec = transport::EcnCodec::Dctcp;
      slot.receiver = std::make_unique<transport::TcpReceiver>(
          sched, *pairs[static_cast<std::size_t>(i)].dst,
          pairs[static_cast<std::size_t>(i)].src->id(), flow_id, 0, 0, rc);
      // Warm-started alpha for BOTH schemes: these are short flows, and the
      // gamma correction only has leverage once alpha < 1.
      transport::DctcpCc::Params dparams;
      dparams.initial_alpha = alpha0;
      std::unique_ptr<transport::CongestionControl> cc;
      if (deadline_aware) {
        transport::D2tcpCc::DeadlineParams dp;
        dp.deadline = deadline;
        dp.total_segments = segs;
        cc = std::make_unique<transport::D2tcpCc>(dparams, dp);
      } else {
        cc = std::make_unique<transport::DctcpCc>(dparams);
      }
      slot.sender = std::make_unique<transport::TcpSender>(
          sched, *pairs[static_cast<std::size_t>(i)].src,
          pairs[static_cast<std::size_t>(i)].dst->id(), flow_id, 0, 0, *slot.source,
          std::move(cc), sc);
      slot.sender->start();
    }
  };
  start_round();
  sched.run_until(sim::Time::seconds(60.0));
  if (out.total > 0) out.mean_fct_ms = fct_sum / out.total;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const cli::Args args{argc, argv};
  bool ok = true;
  const int senders = static_cast<int>(cli::flag_i(args, "senders", 8, 2, 1000, ok));
  const double tight_ms = cli::flag_d(args, "tight-ms", 31.0, 0.1, 1e6, ok);
  const double loose_ms = cli::flag_d(args, "loose-ms", 90.0, 0.1, 1e6, ok);
  const int rounds = static_cast<int>(cli::flag_i(args, "rounds", 40, 1, 100000, ok));
  const double alpha0 = cli::flag_d(args, "alpha0", 0.4, 0, 1, ok);
  if (!ok || !args.finish()) return 2;

  bench::print_banner("bench_ablation_d2tcp",
                      "extension: deadline adherence of D2TCP vs DCTCP (related work [30])");
  std::printf("%d senders x 500 KB into one 1 Gbps bottleneck; deadlines: half %.0f ms\n"
              "(tight), half %.0f ms (loose); %d rounds\n\n",
              senders, tight_ms, loose_ms, rounds);
  std::printf("%-8s %8s %14s %14s %14s\n", "scheme", "flows", "tight missed", "loose missed",
              "mean FCT (ms)");
  for (const bool aware : {false, true}) {
    const Outcome o = run_case(aware, senders, tight_ms, loose_ms, rounds, alpha0);
    const int per_class = o.total / 2;
    std::printf("%-8s %8d %13.1f%% %13.1f%% %14.1f\n", aware ? "D2TCP" : "DCTCP", o.total,
                per_class ? 100.0 * o.missed_tight / per_class : 0.0,
                per_class ? 100.0 * o.missed_loose / per_class : 0.0, o.mean_fct_ms);
  }
  std::printf("\nexpected: DCTCP shares fairly and lets the tight class miss; D2TCP\n"
              "reallocates the loose class's slack so tight deadlines are met, at\n"
              "essentially unchanged mean completion time (the D2TCP paper's claim).\n");
  return 0;
}
