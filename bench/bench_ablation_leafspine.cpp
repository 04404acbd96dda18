// Ablation beyond the paper: do XMP's conclusions transfer from the
// Fat-Tree to an oversubscribed leaf-spine fabric (the other multi-rooted
// family in §6's survey)? 8 leaves x 8 hosts at 1 Gbps, 4 spines at
// 2 Gbps -> 1:1 within the leaf, 2:1 oversubscribed northbound.
//
// Usage: bench_ablation_leafspine [--rounds=1] [--seed=1]

#include <memory>

#include "common.hpp"
#include "topo/leafspine.hpp"
#include "workload/permutation.hpp"

using namespace xmp;

namespace {

struct Outcome {
  double goodput_mbps;
  double fabric_util_mean;
  double fabric_util_spread;
};

Outcome run_scheme(const workload::SchemeSpec& spec, int rounds, std::uint64_t seed) {
  sim::Scheduler sched;
  net::Network network{sched};
  topo::LeafSpine::Config lc;
  lc.n_leaves = 8;
  lc.n_spines = 4;
  lc.hosts_per_leaf = 8;
  lc.host_rate_bps = 1'000'000'000;
  lc.fabric_rate_bps = 2'000'000'000;
  lc.queue.kind = net::QueueConfig::Kind::EcnThreshold;
  lc.queue.capacity_packets = 100;
  lc.queue.mark_threshold = 10;
  topo::LeafSpine fabric{network, lc};

  workload::FlowManager flows{sched, spec};
  workload::PermutationTraffic::Config pc;
  pc.min_bytes = 2'000'000;
  pc.max_bytes = 16'000'000;
  pc.rounds = rounds;
  workload::PermutationTraffic perm{sched, fabric, flows, sim::Rng{seed}, pc};
  perm.set_on_done([&sched] { sched.stop(); });

  stats::UtilizationWindow util{sched};
  util.open(fabric.fabric_links());
  perm.start();
  sched.run_until(sim::Time::seconds(30.0));

  Outcome out{};
  stats::Distribution gp;
  for (const auto& rec : flows.records()) {
    if (rec.completed) gp.add(rec.goodput_bps() / 1e6);
  }
  out.goodput_mbps = gp.mean();
  stats::Distribution ud;
  for (double u : util.close()) ud.add(u);
  out.fabric_util_mean = ud.mean();
  out.fabric_util_spread = ud.max() - ud.min();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const cli::Args args{argc, argv};
  bool ok = true;
  const int rounds = static_cast<int>(cli::flag_i(args, "rounds", 1, 1, 1000, ok));
  const auto seed = static_cast<std::uint64_t>(cli::flag_i(args, "seed", 1, 0, INT64_MAX, ok));
  if (!ok || !args.finish()) return 2;

  bench::print_banner("bench_ablation_leafspine",
                      "topology-transfer ablation: schemes on an oversubscribed leaf-spine");
  std::printf("8 leaves x 8 hosts (1 Gbps), 4 spines (2 Gbps): 2:1 oversubscription\n\n");
  std::printf("%-8s %16s %18s %18s\n", "scheme", "goodput (Mbps)", "fabric util mean",
              "fabric util spread");

  const struct {
    const char* name;
    workload::SchemeSpec::Kind kind;
    int subflows;
  } rows[] = {
      {"DCTCP", workload::SchemeSpec::Kind::Dctcp, 1},
      {"LIA-2", workload::SchemeSpec::Kind::Lia, 2},
      {"XMP-2", workload::SchemeSpec::Kind::Xmp, 2},
      {"XMP-4", workload::SchemeSpec::Kind::Xmp, 4},
  };
  for (const auto& r : rows) {
    workload::SchemeSpec spec;
    spec.kind = r.kind;
    spec.subflows = r.subflows;
    const Outcome o = run_scheme(spec, rounds, seed);
    std::printf("%-8s %16.1f %18.3f %18.3f\n", r.name, o.goodput_mbps, o.fabric_util_mean,
                o.fabric_util_spread);
  }
  std::printf("\nexpected: the Fat-Tree conclusions transfer — XMP beats DCTCP on\n"
              "goodput and balances the fabric links better (smaller spread).\n");
  return 0;
}
