// Hybrid fluid/packet engine (DESIGN.md §14).
//
// The contract under test, in three layers:
//   1. Fluid-only equilibrium reproduces the paper's §2 closed form on a
//      single bottleneck (the same testbed as tests/model/fluid_test.cpp).
//   2. The coupling is faithful both ways: a packet flow sharing a queue
//      with fluid traffic gets a real share of the link, capacity is
//      conserved, and TraSh shifts fluid multipath traffic away from
//      congestion exactly as the offline solver predicts.
//   3. The engine composes with the harness: promotion hands finite flows
//      to the packet domain, runs are deterministic per seed, and
//      checkpoint/restore resumes bit-identically.

#include "model/hybrid/engine.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/experiment.hpp"
#include "model/fluid.hpp"
#include "net/types.hpp"
#include "stats/probes.hpp"
#include "topo/pinned.hpp"
#include "transport/flow.hpp"
#include "util/fixtures.hpp"

namespace xmp::model::hybrid {
namespace {

constexpr double kGbpsInSegments = 1e9 / (net::kDataPacketBytes * 8.0);  // ~83.3k sps
constexpr double kBaseRtt = 450e-6;  // PinnedPaths zero-load RTT incl. serialization
constexpr double kMarkK = 10.0;

/// Single-bottleneck testbed: `n_fluid` fluid aggregates (one subflow each)
/// on bottleneck 0, built on the same PinnedPaths topology the fluid-model
/// validation tests use.
struct FluidBed {
  sim::Scheduler sched;
  net::Network network{sched};
  std::unique_ptr<topo::PinnedPaths> tb;
  std::unique_ptr<Engine> eng;

  explicit FluidBed(int n_fluid, int n_bottlenecks = 1, Engine::Config cfg = {}) {
    topo::PinnedPaths::Config tc;
    for (int b = 0; b < n_bottlenecks; ++b) {
      tc.bottlenecks.push_back({1'000'000'000, sim::Time::microseconds(100)});
    }
    tc.bottleneck_queue = testutil::ecn_queue(100, static_cast<std::size_t>(kMarkK));
    tb = std::make_unique<topo::PinnedPaths>(network, tc);
    eng = std::make_unique<Engine>(sched, cfg);
    for (int b = 0; b < n_bottlenecks; ++b) {
      const int li = eng->add_link(&tb->bottleneck(b), kMarkK);
      EXPECT_EQ(li, b);
      EXPECT_EQ(eng->add_path({li}), b);  // path b = {bottleneck b}
    }
    for (int i = 0; i < n_fluid; ++i) {
      FluidAggregate agg;
      FluidSubflowState sf;
      sf.path = 0;
      sf.base_rtt_s = kBaseRtt;
      agg.subflows.push_back(sf);
      eng->add_aggregate(std::move(agg));
    }
  }
};

/// §2 closed form evaluated self-consistently with the engine's queueing
/// delay: at equilibrium the fluid queue sits at K + span·p*, which adds
/// (K + span·p*)/C to every flow's effective RTT.
double closed_form_p(int n_flows, double span) {
  double rtt = kBaseRtt;
  SingleBottleneckResult res;
  for (int it = 0; it < 50; ++it) {
    const std::vector<FluidFlow> flows(static_cast<std::size_t>(n_flows),
                                       FluidFlow{1.0, 4.0, rtt});
    res = solve_single_bottleneck(flows, kGbpsInSegments);
    rtt = kBaseRtt + (kMarkK + span * res.p) / kGbpsInSegments;
  }
  return res.p;
}

TEST(HybridFluid, SingleBottleneckEquilibriumMatchesClosedForm) {
  FluidBed bed{4};
  bed.eng->start();
  bed.sched.run_until(sim::Time::seconds(0.5));

  const double predicted = closed_form_p(4, Engine::Config{}.mark_span_packets);
  EXPECT_NEAR(bed.eng->link_mark_p(0), predicted, predicted * 0.10)
      << "emergent marking probability drifted from the §2 closed form";
  // The aggregate fluid rate fills the bottleneck.
  EXPECT_NEAR(bed.eng->link_fluid_rate_sps(0), kGbpsInSegments, kGbpsInSegments * 0.05);
  // Equal flows share equally: every window within 10% of the mean.
  double wsum = 0.0;
  for (int i = 0; i < 4; ++i) wsum += bed.eng->aggregate(i).subflows[0].w;
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(bed.eng->aggregate(i).subflows[0].w, wsum / 4.0, wsum / 4.0 * 0.10);
  }
}

TEST(HybridFluid, MoreFlowsMoreMarking) {
  // p = S/(C+S) grows with the flow count; the emergent equilibrium must
  // preserve that ordering.
  FluidBed few{2};
  FluidBed many{16};
  few.eng->start();
  many.eng->start();
  few.sched.run_until(sim::Time::seconds(0.3));
  many.sched.run_until(sim::Time::seconds(0.3));
  EXPECT_GT(many.eng->link_mark_p(0), few.eng->link_mark_p(0) * 1.5);
}

TEST(HybridCoupling, PacketFlowGetsRealShareAndCapacityIsConserved) {
  // 3 fluid flows + 1 packet-accurate BOS flow on one bottleneck. The two
  // worlds must split the link: conservation within 10%, and the packet
  // flow held between an eighth and a half of the capacity (fair share
  // would be a quarter; the fluid share cap and marking keep it honest).
  FluidBed bed{3};
  auto pair = bed.tb->add_pair({0});
  transport::Flow::Config fc;
  fc.id = 1;
  fc.size_bytes = 1'000'000'000'000LL;
  fc.cc.kind = transport::CcConfig::Kind::Bos;
  fc.path_tag = 0;
  fc.path_tag_explicit = true;
  transport::Flow pkt{bed.sched, *pair.src, *pair.dst, fc};
  pkt.start();
  bed.eng->start();

  const double horizon = 1.0;
  bed.sched.run_until(sim::Time::seconds(horizon));

  const double pkt_sps = static_cast<double>(pkt.sender().delivered_segments()) / horizon;
  const double fluid_sps = bed.eng->link_fluid_rate_sps(0);
  EXPECT_NEAR(pkt_sps + fluid_sps, kGbpsInSegments, kGbpsInSegments * 0.10)
      << "fluid + packet throughput must conserve the bottleneck capacity";
  EXPECT_GT(pkt_sps, kGbpsInSegments / 8.0)
      << "fluid traffic starved the packet-accurate flow";
  EXPECT_LT(pkt_sps, kGbpsInSegments / 2.0)
      << "packet flow ignored the fluid traffic's queue";
  EXPECT_GT(fluid_sps, kGbpsInSegments / 2.0);
}

// Utilization counts the fluid load: one aggregate whose window is pinned
// at 10 segments, on the path {bottleneck 0, bottleneck 1} with no queue,
// runs at 10 / base RTT segments per second; the links it crosses report
// that rate over their capacity, and the link it does not cross stays idle.
TEST(HybridCoupling, FluidLoadCountsInLinkUtilization) {
  Engine::Config cfg;
  cfg.min_window = 10.0;
  cfg.max_window = 10.0;
  FluidBed bed{0, 3, cfg};
  FluidAggregate agg;
  FluidSubflowState sf;
  sf.path = bed.eng->add_path({0, 1});
  sf.base_rtt_s = kBaseRtt;
  agg.subflows.push_back(sf);
  bed.eng->add_aggregate(std::move(agg));

  stats::UtilizationWindow util{bed.sched};
  util.open({&bed.tb->bottleneck(0), &bed.tb->bottleneck(1), &bed.tb->bottleneck(2)});
  bed.eng->start();
  bed.sched.run_until(sim::Time::seconds(0.1));

  const double rate_sps = 10.0 / kBaseRtt;
  ASSERT_NEAR(bed.eng->link_fluid_rate_sps(0), rate_sps, 1e-6 * rate_sps);
  const std::vector<double> u = util.close();
  ASSERT_EQ(u.size(), 3u);
  EXPECT_NEAR(u[0], rate_sps / kGbpsInSegments, 1e-6);
  EXPECT_NEAR(u[1], rate_sps / kGbpsInSegments, 1e-6);
  EXPECT_EQ(u[2], 0.0);
}

// Fluid and packet busy time share one transmitter: an aggregate pinned at
// 100 segments over 450 us (~2.7x the link rate) next to four packet flows
// must not push the link's utilization past 1. The fluid credit per tick is
// capped by what the tick's measured packet drain left free, not by the
// smoothed drain, which lags the packet flows' bursts (1.0013 without it).
TEST(HybridCoupling, OverloadedLinkUtilizationStaysAtMostOne) {
  Engine::Config cfg;
  cfg.min_window = 100.0;
  cfg.max_window = 100.0;
  FluidBed bed{0, 1, cfg};
  FluidAggregate agg;
  FluidSubflowState sf;
  sf.path = 0;
  sf.base_rtt_s = kBaseRtt;
  agg.subflows.push_back(sf);
  bed.eng->add_aggregate(std::move(agg));
  std::vector<std::unique_ptr<transport::Flow>> pkts;
  for (int i = 0; i < 4; ++i) {
    auto pair = bed.tb->add_pair({0});
    transport::Flow::Config fc;
    fc.id = static_cast<net::FlowId>(1 + i);
    fc.size_bytes = 1'000'000'000'000LL;
    fc.cc.kind = transport::CcConfig::Kind::Bos;
    fc.path_tag = 0;
    fc.path_tag_explicit = true;
    pkts.push_back(std::make_unique<transport::Flow>(bed.sched, *pair.src, *pair.dst, fc));
  }

  stats::UtilizationWindow util{bed.sched};
  util.open({&bed.tb->bottleneck(0)});
  for (auto& f : pkts) f->start();
  bed.eng->start();
  bed.sched.run_until(sim::Time::seconds(0.05));

  for (const auto& f : pkts) ASSERT_GT(f->sender().delivered_segments(), 0u);
  const std::vector<double> u = util.close();
  ASSERT_EQ(u.size(), 1u);
  EXPECT_GT(u[0], 0.99);
  EXPECT_LE(u[0], 1.0);
}

TEST(HybridCoupling, TrashShiftsMultipathAggregateOffCongestedLink) {
  // One 2-subflow aggregate over private-ish links {0, 1}, with 3
  // single-path aggregates crowding link 0 — the engine's per-tick TraSh
  // must reproduce the offline solver's direction: gain and window migrate
  // to the clean link, and link 0 marks more than link 1.
  FluidBed bed{0, 2};
  FluidAggregate mp;
  for (int r = 0; r < 2; ++r) {
    FluidSubflowState sf;
    sf.path = r;
    sf.base_rtt_s = kBaseRtt;
    mp.subflows.push_back(sf);
  }
  bed.eng->add_aggregate(std::move(mp));
  for (int i = 0; i < 3; ++i) {
    FluidAggregate bg;
    FluidSubflowState sf;
    sf.path = 0;
    sf.base_rtt_s = kBaseRtt;
    bg.subflows.push_back(sf);
    bed.eng->add_aggregate(std::move(bg));
  }
  bed.eng->start();
  bed.sched.run_until(sim::Time::seconds(0.5));

  const FluidAggregate& agg = bed.eng->aggregate(0);
  EXPECT_GT(bed.eng->link_mark_p(0), bed.eng->link_mark_p(1));
  EXPECT_GT(agg.subflows[1].delta, agg.subflows[0].delta)
      << "TraSh gain did not migrate to the cleaner path";
  EXPECT_GT(agg.subflows[1].w, 2.0 * agg.subflows[0].w)
      << "window did not follow the gain off the congested link";

  // Offline solver agreement on the equilibrium share direction.
  std::vector<FluidMptcpFlow> mflows;
  FluidMptcpFlow a;
  a.subflows = {{0, kBaseRtt}, {1, kBaseRtt}};
  mflows.push_back(a);
  for (int i = 0; i < 3; ++i) {
    FluidMptcpFlow s;
    s.subflows = {{0, kBaseRtt}};
    mflows.push_back(s);
  }
  const auto predicted = solve_multipath({kGbpsInSegments, kGbpsInSegments}, mflows);
  ASSERT_TRUE(predicted.converged);
  EXPECT_GT(predicted.rates[0][1], predicted.rates[0][0]);  // same direction
}

// ------------------------- harness composition --------------------------

core::ExperimentConfig hybrid_cfg() {
  core::ExperimentConfig cfg;
  cfg.fat_tree_k = 4;
  cfg.scheme.kind = workload::SchemeSpec::Kind::Xmp;
  cfg.scheme.subflows = 2;
  cfg.duration = sim::Time::seconds(0.1);
  cfg.seed = 11;
  cfg.hybrid.enabled = true;
  cfg.hybrid.bg_flows = 16;
  cfg.hybrid.fg_flows = 2;
  cfg.hybrid.fg_bytes = 100'000;
  return cfg;
}

TEST(HybridRun, PromotionHandsTailToPacketDomain) {
  auto cfg = hybrid_cfg();
  // The promote threshold must exceed any single tick's delivery, so every
  // finite flow lands in the (0, promote_bytes] window instead of jumping
  // straight to Done.
  cfg.hybrid.bg_bytes = 2'000'000;
  cfg.hybrid.promote_bytes = 1'000'000;
  const auto res = core::run_experiment(cfg);

  EXPECT_EQ(res.hybrid.promotions, 16u)
      << "every finite fluid flow must cross the promotion threshold";
  EXPECT_EQ(res.hybrid.fluid_completions, 0u);
  EXPECT_EQ(res.hybrid.active_fluid, 0);
  // Each promoted tail becomes a real packet transfer and completes (the
  // goodput distribution counts completed large flows).
  EXPECT_GE(res.goodput.count(), 16u);
}

TEST(HybridRun, FiniteFlowsCanFinishEntirelyAsFluid) {
  auto cfg = hybrid_cfg();
  cfg.hybrid.bg_bytes = 100'000;
  cfg.hybrid.promote_bytes = 0;  // never promote
  const auto res = core::run_experiment(cfg);
  EXPECT_EQ(res.hybrid.promotions, 0u);
  EXPECT_EQ(res.hybrid.fluid_completions, 16u);
  EXPECT_EQ(res.hybrid.active_fluid, 0);
}

TEST(HybridRun, DeterministicPerSeed) {
  const auto a = core::run_experiment(hybrid_cfg());
  const auto b = core::run_experiment(hybrid_cfg());
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.goodput.count(), b.goodput.count());
  EXPECT_EQ(a.goodput.mean(), b.goodput.mean());
  EXPECT_EQ(a.hybrid.ticks, b.hybrid.ticks);
  EXPECT_EQ(a.hybrid.fluid_bytes, b.hybrid.fluid_bytes);
  EXPECT_EQ(a.hybrid.mean_mark_p, b.hybrid.mean_mark_p);
}

TEST(HybridRun, BackgroundTrafficDepressesForegroundGoodput) {
  // The fluid population must be visible to the packet domain: the same
  // foreground flows with 100x the background see materially less goodput.
  auto light = hybrid_cfg();
  light.hybrid.bg_flows = 2;
  auto heavy = hybrid_cfg();
  heavy.hybrid.bg_flows = 200;
  const auto res_light = core::run_experiment(light);
  const auto res_heavy = core::run_experiment(heavy);
  ASSERT_GT(res_light.goodput.count(), 0u);
  ASSERT_GT(res_heavy.goodput.count(), 0u);
  EXPECT_LT(res_heavy.goodput.mean(), res_light.goodput.mean() * 0.7);
}

std::string fresh_dir(const std::string& name) {
  const std::string d = ::testing::TempDir() + "xmp_hybrid_" + name;
  std::filesystem::remove_all(d);
  std::filesystem::create_directories(d);
  return d;
}

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

TEST(HybridCkpt, ResumeMatchesUninterrupted) {
  const std::string dir_a = fresh_dir("a");
  const std::string dir_b = fresh_dir("b");

  auto cfg = hybrid_cfg();
  // Sized so fluid flows are mid-flight at the restore point and promotions
  // land on both sides of the cut.
  cfg.hybrid.bg_bytes = 20'000'000;
  cfg.hybrid.promote_bytes = 2'000'000;
  cfg.checkpoint.every = sim::Time::seconds(0.02);
  cfg.checkpoint.dir = dir_a;
  const auto full = core::run_experiment(cfg);
  ASSERT_GE(full.ckpt.written, 2u);

  auto cfg2 = cfg;
  cfg2.checkpoint.dir = dir_b;
  cfg2.checkpoint.restore_path = dir_a + "/" + core::ckpt::file_name(1);
  const auto resumed = core::run_experiment(cfg2);

  EXPECT_TRUE(resumed.ckpt.restored);
  EXPECT_EQ(full.events_dispatched, resumed.events_dispatched);
  EXPECT_EQ(full.hybrid.ticks, resumed.hybrid.ticks);
  EXPECT_EQ(full.hybrid.promotions, resumed.hybrid.promotions);
  EXPECT_EQ(full.hybrid.fluid_completions, resumed.hybrid.fluid_completions);
  EXPECT_EQ(full.hybrid.fluid_bytes, resumed.hybrid.fluid_bytes);
  EXPECT_EQ(full.hybrid.mean_mark_p, resumed.hybrid.mean_mark_p);
  EXPECT_EQ(full.goodput.count(), resumed.goodput.count());
  EXPECT_EQ(full.goodput.mean(), resumed.goodput.mean());
  // The resumed run re-writes every later snapshot with identical bytes.
  for (std::uint64_t s = 2; s <= full.ckpt.written; ++s) {
    const std::string a = slurp(dir_a + "/" + core::ckpt::file_name(s));
    const std::string b = slurp(dir_b + "/" + core::ckpt::file_name(s));
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "checkpoint " << s << " diverged after restore";
  }
}

TEST(HybridCkpt, FingerprintSeparatesHybridFromPlainRuns) {
  // A snapshot from a non-hybrid run must never restore into a hybrid
  // world (or vice versa, or across hybrid populations): the config
  // fingerprint differs, so read_file/probe_file reject at the header.
  auto plain = hybrid_cfg();
  plain.hybrid = core::HybridConfig{};
  auto hybrid = hybrid_cfg();
  auto hybrid_bigger = hybrid_cfg();
  hybrid_bigger.hybrid.bg_flows += 1;
  const auto fp_plain = core::ckpt::config_fingerprint(plain);
  const auto fp_hybrid = core::ckpt::config_fingerprint(hybrid);
  const auto fp_bigger = core::ckpt::config_fingerprint(hybrid_bigger);
  EXPECT_NE(fp_plain, fp_hybrid);
  EXPECT_NE(fp_hybrid, fp_bigger);
}

}  // namespace
}  // namespace xmp::model::hybrid
