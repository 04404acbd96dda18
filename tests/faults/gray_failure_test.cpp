// Gray-failure fault model (DESIGN.md §15): the DSL's gray verbs, the
// per-effect RNG substreams of GrayProcess, link-level impairment
// semantics (degrade / delay / reorder / duplicate / overmark) under real
// transport, deterministic per-cause drop attribution, and the
// checkpoint round-trips of the stochastic processes.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/experiment.hpp"
#include "faults/fault_controller.hpp"
#include "faults/fault_plan.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "transport/flow.hpp"
#include "util/fixtures.hpp"

namespace xmp::faults {
namespace {

using testutil::TwoHosts;

constexpr std::int64_t kGbps = 1'000'000'000;

// ---------------------------------------------------------------------------
// FaultPlan: gray verbs
// ---------------------------------------------------------------------------

TEST(GrayPlan, BuildersEmitStartStopPairs) {
  FaultPlan p;
  p.degrade(2, 0.3, sim::Time::seconds(0.1), sim::Time::seconds(0.4));
  p.delay(3, sim::Time::microseconds(100), sim::Time::microseconds(50), sim::Time::seconds(0.2));
  p.reorder(4, 0.05, sim::Time::microseconds(200), sim::Time::zero(), sim::Time::seconds(0.5));
  p.duplicate(5, 0.01, sim::Time::zero());
  p.overmark(6, 0.2, sim::Time::seconds(0.3), sim::Time::seconds(0.6));
  // degrade(2) + delay(1, no until) + reorder(2) + duplicate(1) + overmark(2)
  ASSERT_EQ(p.size(), 8u);

  EXPECT_EQ(p.events[0].kind, FaultEvent::Kind::DegradeStart);
  EXPECT_DOUBLE_EQ(p.events[0].gray.factor, 0.3);
  EXPECT_EQ(p.events[1].kind, FaultEvent::Kind::DegradeStop);
  EXPECT_DOUBLE_EQ(p.events[1].at.sec(), 0.4);

  EXPECT_EQ(p.events[2].kind, FaultEvent::Kind::DelayStart);
  EXPECT_EQ(p.events[2].gray.delay, sim::Time::microseconds(100));
  EXPECT_EQ(p.events[2].gray.jitter, sim::Time::microseconds(50));

  EXPECT_EQ(p.events[3].kind, FaultEvent::Kind::ReorderStart);
  EXPECT_DOUBLE_EQ(p.events[3].gray.p, 0.05);
  EXPECT_EQ(p.events[3].gray.hold, sim::Time::microseconds(200));
  EXPECT_EQ(p.events[4].kind, FaultEvent::Kind::ReorderStop);

  EXPECT_EQ(p.events[5].kind, FaultEvent::Kind::DuplicateStart);
  EXPECT_EQ(p.events[6].kind, FaultEvent::Kind::EcnOvermarkStart);
  EXPECT_EQ(p.events[7].kind, FaultEvent::Kind::EcnOvermarkStop);
}

TEST(GrayPlan, ParsesEveryGrayVerb) {
  FaultPlan p;
  std::string err;
  const std::string text =
      "degrade,link=2,at=0.1,factor=0.3,until=0.4;"
      "delay,link=3,at=0.2,dt=1e-4,jitter=5e-5;"
      "reorder,link=4,at=0,p=0.05,dt=2e-4,until=0.5;"
      "duplicate,link=5,at=0,p=0.01;"
      "overmark,link=6,at=0.3,p=0.2,until=0.6";
  ASSERT_TRUE(FaultPlan::parse(text, p, &err)) << err;
  ASSERT_EQ(p.size(), 8u);
  EXPECT_EQ(p.events[0].kind, FaultEvent::Kind::DegradeStart);
  EXPECT_DOUBLE_EQ(p.events[0].gray.factor, 0.3);
  EXPECT_EQ(p.events[2].kind, FaultEvent::Kind::DelayStart);
  EXPECT_EQ(p.events[2].gray.delay, sim::Time::seconds(1e-4));
  EXPECT_EQ(p.events[2].gray.jitter, sim::Time::seconds(5e-5));
  EXPECT_EQ(p.events[3].kind, FaultEvent::Kind::ReorderStart);
  EXPECT_EQ(p.events[3].gray.hold, sim::Time::seconds(2e-4));
  EXPECT_EQ(p.events[5].kind, FaultEvent::Kind::DuplicateStart);
  EXPECT_DOUBLE_EQ(p.events[5].gray.p, 0.01);
  EXPECT_EQ(p.events[6].kind, FaultEvent::Kind::EcnOvermarkStart);
  EXPECT_EQ(p.events[7].kind, FaultEvent::Kind::EcnOvermarkStop);
  EXPECT_DOUBLE_EQ(p.events[7].at.sec(), 0.6);
}

TEST(GrayPlan, GrayVerbsRoundTripThroughToString) {
  FaultPlan p;
  p.degrade(2, 0.3, sim::Time::seconds(0.1));
  p.delay(3, sim::Time::microseconds(100), sim::Time::microseconds(50), sim::Time::seconds(0.2));
  p.reorder(4, 0.05, sim::Time::microseconds(200), sim::Time::zero());
  p.duplicate(5, 0.01, sim::Time::zero());
  p.overmark(6, 0.2, sim::Time::seconds(0.3));

  FaultPlan q;
  std::string err;
  ASSERT_TRUE(FaultPlan::parse(p.to_string(), q, &err)) << err;
  ASSERT_EQ(q.size(), p.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ(q.events[i].kind, p.events[i].kind) << i;
    EXPECT_EQ(q.events[i].target, p.events[i].target) << i;
    EXPECT_DOUBLE_EQ(q.events[i].gray.factor, p.events[i].gray.factor) << i;
    EXPECT_EQ(q.events[i].gray.delay, p.events[i].gray.delay) << i;
    EXPECT_EQ(q.events[i].gray.jitter, p.events[i].gray.jitter) << i;
    EXPECT_DOUBLE_EQ(q.events[i].gray.p, p.events[i].gray.p) << i;
    EXPECT_EQ(q.events[i].gray.hold, p.events[i].gray.hold) << i;
  }
}

TEST(GrayPlan, ParseRejectsMalformedGray) {
  FaultPlan p;
  std::string err;
  EXPECT_FALSE(FaultPlan::parse("degrade,link=1,at=0.1", p, &err));  // no factor
  EXPECT_FALSE(FaultPlan::parse("degrade,link=1,at=0.1,factor=1.0", p, &err));  // not < 1
  EXPECT_FALSE(FaultPlan::parse("degrade,link=1,at=0.1,factor=0", p, &err));
  EXPECT_FALSE(FaultPlan::parse("delay,link=1,at=0.1", p, &err));          // no dt
  EXPECT_FALSE(FaultPlan::parse("delay,link=1,at=0,dt=1e-4,jitter=-1", p, &err));
  EXPECT_FALSE(FaultPlan::parse("reorder,link=1,at=0,p=0.05", p, &err));   // no dt
  EXPECT_FALSE(FaultPlan::parse("reorder,link=1,at=0,dt=1e-4", p, &err));  // no p
  EXPECT_FALSE(FaultPlan::parse("duplicate,link=1,at=0,p=1.5", p, &err));
  EXPECT_FALSE(FaultPlan::parse("overmark,at=0,p=0.5", p, &err));          // no link
  // Errors must not leave partial plans behind.
  EXPECT_TRUE(p.empty());
}

// ---------------------------------------------------------------------------
// GrayProcess: per-effect substreams
// ---------------------------------------------------------------------------

GrayModel delay_model(sim::Time dt, sim::Time jitter) {
  GrayModel m;
  m.delay = dt;
  m.jitter = jitter;
  return m;
}

GrayModel p_model(double p, sim::Time hold = sim::Time::zero()) {
  GrayModel m;
  m.p = p;
  m.hold = hold;
  return m;
}

std::vector<net::Link::FaultVerdict> draw_gray(GrayProcess& g, int n) {
  std::vector<net::Link::FaultVerdict> out;
  for (int i = 0; i < n; ++i) {
    net::Link::FaultVerdict v;
    g.impair(v);
    out.push_back(v);
  }
  return out;
}

void start_all(GrayProcess& g) {
  g.start(GrayProcess::Effect::Delay,
          delay_model(sim::Time::microseconds(100), sim::Time::microseconds(50)));
  g.start(GrayProcess::Effect::Reorder, p_model(0.3, sim::Time::microseconds(200)));
  g.start(GrayProcess::Effect::Duplicate, p_model(0.4));
  g.start(GrayProcess::Effect::Overmark, p_model(0.4));
}

TEST(GrayProcessRng, SameSeedSameLinkIsIdentical) {
  GrayProcess a{42, 3};
  GrayProcess b{42, 3};
  start_all(a);
  start_all(b);
  EXPECT_EQ(draw_gray(a, 300), draw_gray(b, 300));

  GrayProcess c{43, 3};
  GrayProcess d{42, 4};
  start_all(c);
  start_all(d);
  GrayProcess e{42, 3};
  start_all(e);
  const auto ref = draw_gray(e, 300);
  EXPECT_NE(ref, draw_gray(c, 300));
  EXPECT_NE(ref, draw_gray(d, 300));
}

TEST(GrayProcessRng, EffectSubstreamsAreIndependent) {
  // Toggling one effect must not shift another's draws: the duplicate
  // decisions with every effect active equal the duplicate decisions with
  // only the duplicate effect active.
  GrayProcess all{7, 9};
  start_all(all);
  GrayProcess dup_only{7, 9};
  dup_only.start(GrayProcess::Effect::Duplicate, p_model(0.4));

  const auto va = draw_gray(all, 500);
  const auto vb = draw_gray(dup_only, 500);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(va[static_cast<std::size_t>(i)].duplicate,
              vb[static_cast<std::size_t>(i)].duplicate)
        << "draw " << i;
  }
}

TEST(GrayProcessRng, JitterIsBoundedByTheModel) {
  const sim::Time base = sim::Time::microseconds(100);
  const sim::Time jitter = sim::Time::microseconds(50);
  GrayProcess g{11, 2};
  g.start(GrayProcess::Effect::Delay, delay_model(base, jitter));
  bool saw_jitter = false;
  for (const auto& v : draw_gray(g, 500)) {
    EXPECT_GE(v.delay, base);
    EXPECT_LT(v.delay, base + jitter);
    saw_jitter = saw_jitter || v.delay > base;
  }
  EXPECT_TRUE(saw_jitter);

  // jitter = 0: every hold is exactly the base inflation.
  GrayProcess h{11, 2};
  h.start(GrayProcess::Effect::Delay, delay_model(base, sim::Time::zero()));
  for (const auto& v : draw_gray(h, 50)) EXPECT_EQ(v.delay, base);
}

TEST(GrayProcessRng, SaveRestoreRoundTripsMidStream) {
  GrayProcess a{21, 5};
  start_all(a);
  draw_gray(a, 137);  // advance to an arbitrary mid-stream point

  core::ckpt::Io s;
  a.checkpoint(s);
  const auto reference = draw_gray(a, 300);

  GrayProcess b{21, 5};  // fresh process, state comes from the snapshot
  core::ckpt::Io l{s.data()};
  b.checkpoint(l);
  ASSERT_TRUE(l.done());
  EXPECT_EQ(draw_gray(b, 300), reference);
}

// ---------------------------------------------------------------------------
// Satellite: Gilbert–Elliott loss mid-burst checkpoint byte-identity
// ---------------------------------------------------------------------------

TEST(LossProcessCkpt, GilbertElliottRoundTripsMidBurst) {
  // Sticky bad state (p_bad_good = 0.05) so that after 80 draws the chain
  // is very likely mid-burst; the snapshot must capture the channel state
  // bit, not just the RNG words.
  const LossModel m = LossModel::gilbert(0.5, 0.05, 1.0);
  LossProcess a{m, 9, 4};
  net::Packet pkt;
  for (int i = 0; i < 80; ++i) (void)a.on_send(pkt);

  core::ckpt::Io s1;
  a.checkpoint(s1);

  std::vector<net::Link::FaultVerdict> reference;
  for (int i = 0; i < 300; ++i) reference.push_back(a.on_send(pkt));

  LossProcess b{m, 9, 4};
  core::ckpt::Io l{s1.data()};
  b.checkpoint(l);
  ASSERT_TRUE(l.done());

  // Re-saving the restored process must reproduce the snapshot bytes...
  core::ckpt::Io s2;
  b.checkpoint(s2);
  EXPECT_EQ(s1.data(), s2.data());
  // ...and its future verdicts must equal the original's.
  for (int i = 0; i < 300; ++i) {
    ASSERT_EQ(b.on_send(pkt), reference[static_cast<std::size_t>(i)]) << "draw " << i;
  }
}

// ---------------------------------------------------------------------------
// Link-level gray semantics under real transport
// ---------------------------------------------------------------------------

struct GrayFlowBed {
  TwoHosts t;
  std::unique_ptr<transport::Flow> flow;

  explicit GrayFlowBed(std::int64_t bytes,
                       const net::QueueConfig& q = testutil::droptail_queue(256),
                       transport::CcConfig::Kind cc = transport::CcConfig::Kind::Reno)
      : t{kGbps, sim::Time::microseconds(50), q} {
    transport::Flow::Config fc;
    fc.id = 1;
    fc.size_bytes = bytes;
    fc.cc.kind = cc;
    flow = std::make_unique<transport::Flow>(t.sched, *t.a, *t.b, fc);
  }

  void run(const FaultPlan& plan, std::uint64_t seed, sim::Time horizon) {
    FaultController::Config fcc;
    fcc.seed = seed;
    FaultController ctl{t.sched, t.net, plan, fcc};
    ctl.arm();
    flow->start();
    t.sched.run_until(horizon);
  }

  /// offered + duplicated == delivered + drops + queued + in-flight + held.
  void expect_conservation(const net::Link& l) {
    EXPECT_EQ(l.offered() + l.duplicated(),
              l.delivered() + l.drops().total() + l.queue().len_packets() +
                  l.live_in_flight() + l.held());
  }
};

TEST(GrayLink, DegradeSlowsTheDrainAndRecovers) {
  const std::int64_t bytes = 4'000'000;
  double finish_clean = 0.0;
  {
    GrayFlowBed bed{bytes};
    bed.run(FaultPlan{}, 1, sim::Time::seconds(30));
    ASSERT_TRUE(bed.flow->complete());
    finish_clean = bed.flow->finish_time().sec();
  }
  GrayFlowBed bed{bytes};
  FaultPlan plan;
  plan.degrade(0, 0.25, sim::Time::zero());  // link 0 == a->b at quarter rate
  bed.run(plan, 1, sim::Time::seconds(30));
  ASSERT_TRUE(bed.flow->complete());
  EXPECT_GT(bed.flow->finish_time().sec(), finish_clean * 2.0);
  EXPECT_DOUBLE_EQ(bed.t.ab->degrade(), 0.25);
  bed.expect_conservation(*bed.t.ab);

  // DegradeStop restores the full configured rate.
  bed.t.ab->set_degrade(1.0);
  EXPECT_DOUBLE_EQ(bed.t.ab->degrade(), 1.0);
}

TEST(GrayLink, DelayHoldsPacketsAndStillCompletes) {
  GrayFlowBed bed{1'000'000};
  FaultPlan plan;
  plan.delay(0, sim::Time::microseconds(200), sim::Time::microseconds(100), sim::Time::zero());
  bed.run(plan, 3, sim::Time::seconds(30));

  ASSERT_TRUE(bed.flow->complete());
  const net::Link& ab = *bed.t.ab;
  EXPECT_GT(ab.delayed(), 0u);
  EXPECT_EQ(ab.held(), 0u);  // every hold released by quiescence
  EXPECT_EQ(ab.drops().fault, 0u);  // delay impairs, never drops
  bed.expect_conservation(ab);
}

TEST(GrayLink, ReorderDeliversEverythingExactlyOnce) {
  GrayFlowBed bed{1'000'000};
  FaultPlan plan;
  plan.reorder(0, 0.3, sim::Time::microseconds(300), sim::Time::zero());
  bed.run(plan, 5, sim::Time::seconds(30));

  ASSERT_TRUE(bed.flow->complete());
  const net::Link& ab = *bed.t.ab;
  EXPECT_GT(ab.delayed(), 0u);  // reorder holds count as delayed packets
  EXPECT_EQ(ab.held(), 0u);
  EXPECT_EQ(ab.duplicated(), 0u);  // reorder never clones
  EXPECT_EQ(ab.drops().fault, 0u);  // ...and never drops
  bed.expect_conservation(ab);
}

TEST(GrayLink, DuplicateClonesAndTheReceiverDeduplicates) {
  GrayFlowBed bed{1'000'000};
  FaultPlan plan;
  plan.duplicate(0, 0.5, sim::Time::zero());
  bed.run(plan, 7, sim::Time::seconds(30));

  // Clones inflate the wire traffic but never the application bytes: the
  // flow still finishes with exactly size_bytes delivered to the app.
  ASSERT_TRUE(bed.flow->complete());
  const net::Link& ab = *bed.t.ab;
  EXPECT_GT(ab.duplicated(), 0u);
  bed.expect_conservation(ab);
}

TEST(GrayLink, OvermarkForcesCeOnEctTraffic) {
  // ECN-threshold queue, overmark p=1: every ECT survivor is forced CE, so
  // the sender sees wall-to-wall congestion but the transfer still finishes.
  double finish_clean = 0.0;
  {
    GrayFlowBed bed{500'000, testutil::ecn_queue(100, 10), transport::CcConfig::Kind::Dctcp};
    bed.run(FaultPlan{}, 9, sim::Time::seconds(30));
    ASSERT_TRUE(bed.flow->complete());
    finish_clean = bed.flow->finish_time().sec();
  }
  GrayFlowBed bed{500'000, testutil::ecn_queue(100, 10), transport::CcConfig::Kind::Dctcp};
  FaultPlan plan;
  plan.overmark(0, 1.0, sim::Time::zero());
  bed.run(plan, 9, sim::Time::seconds(30));

  ASSERT_TRUE(bed.flow->complete());
  const net::Link& ab = *bed.t.ab;
  EXPECT_GT(ab.overmarked(), 0u);
  EXPECT_EQ(ab.drops().fault, 0u);  // overmark impairs, never drops
  // Forced CE throttles the sender: strictly slower than the clean run.
  EXPECT_GT(bed.flow->finish_time().sec(), finish_clean);
  bed.expect_conservation(ab);
}

// ---------------------------------------------------------------------------
// Satellite: deterministic per-cause attribution — a corrupt-flagged packet
// is accounted `corrupt` wherever it dies, even on a link that goes down
// with packets queued, in flight and held.
// ---------------------------------------------------------------------------

TEST(GrayLink, CorruptPacketsDyingOnADownedLinkCountCorrupt) {
  GrayFlowBed bed{4'000'000};
  FaultPlan plan;
  // Every data packet is corrupt-flagged at entry; a delay hold parks the
  // whole initial window in the hold buffer (released at 1.5 ms) when the
  // link slams shut at 1.2 ms, so the flush path must attribute them.
  plan.loss(0, LossModel::bernoulli(0.0, 1.0), sim::Time::zero());
  plan.delay(0, sim::Time::microseconds(500), sim::Time::zero(), sim::Time::zero());
  plan.link_down(0, sim::Time::milliseconds(1) + sim::Time::microseconds(200));
  FaultController::Config fcc;
  fcc.seed = 13;
  FaultController ctl{bed.t.sched, bed.t.net, plan, fcc};
  ctl.arm();
  // The loss + delay processes must be live before the first transmission,
  // so the flow starts only after the t=0 fault events have applied.
  bed.t.sched.run_until(sim::Time::milliseconds(1));
  bed.flow->start();
  // Horizon below RTOmin (200 ms): no retransmission ever reaches the
  // downed link, so *every* packet this link saw carried the corrupt flag.
  bed.t.sched.run_until(sim::Time::milliseconds(50));

  const net::Link& ab = *bed.t.ab;
  ASSERT_GT(ab.offered(), 0u);
  EXPECT_GT(ab.drops().corrupt, 0u);
  EXPECT_EQ(ab.drops().admin_down, 0u);  // never misattributed to the outage
  EXPECT_EQ(ab.drops().fault, 0u);
  EXPECT_EQ(ab.delivered(), 0u);  // corrupt packets fail their checksum
  EXPECT_EQ(ab.held(), 0u);       // the down drained the hold buffer
  EXPECT_EQ(ab.offered(), ab.drops().corrupt);
  bed.expect_conservation(ab);
}

// ---------------------------------------------------------------------------
// Satellite: invariants hold under reorder + duplication on every link
// ---------------------------------------------------------------------------

TEST(GrayFleet, InvariantsHoldUnderReorderAndDuplicateOnEveryLink) {
  core::ExperimentConfig cfg;
  cfg.scheme.kind = workload::SchemeSpec::Kind::Xmp;
  cfg.scheme.subflows = 2;
  cfg.scheme.dead_after_rtos = 3;
  cfg.pattern = core::Pattern::Permutation;
  cfg.fat_tree_k = 4;
  cfg.duration = sim::Time::milliseconds(20);
  cfg.permutation_rounds = 1;
  cfg.seed = 5;
  cfg.fault_seed = 77;
  FaultPlan plan;
  for (int link = 0; link < 24; ++link) {
    plan.reorder(static_cast<net::LinkId>(link), 0.05, sim::Time::microseconds(200),
                 sim::Time::zero());
    plan.duplicate(static_cast<net::LinkId>(link), 0.05, sim::Time::zero());
  }
  cfg.fault_plan = plan;
  cfg.check_invariants = true;

  const auto res = core::run_experiment(cfg);
  ASSERT_GT(res.invariant_checks, 0u);
  ASSERT_TRUE(res.invariant_violations.empty())
      << res.invariant_violations.front() << " (+" << res.invariant_violations.size() - 1
      << " more)";
  // The plan actually bit: clones materialized and holds happened, yet no
  // duplicate ever reached an application twice (delivered bytes are
  // checked per flow by the experiment's completion accounting).
  EXPECT_GT(res.drops.duplicated, 0u);
  EXPECT_GT(res.drops.delayed, 0u);
}

// ---------------------------------------------------------------------------
// Satellite: the whole faulted experiment replays bit-identically with
// gray effects in the plan (serial engine; the sharded and checkpointed
// engines are byte-compared end-to-end by `xmpsim verify`).
// ---------------------------------------------------------------------------

TEST(GrayFleet, GrayFaultedExperimentReplaysBitIdentically) {
  auto run = [] {
    core::ExperimentConfig cfg;
    cfg.scheme.kind = workload::SchemeSpec::Kind::Xmp;
    cfg.scheme.subflows = 2;
    cfg.scheme.dead_after_rtos = 3;
    cfg.pattern = core::Pattern::Permutation;
    cfg.fat_tree_k = 4;
    cfg.duration = sim::Time::milliseconds(40);
    cfg.permutation_rounds = 1;
    cfg.seed = 7;
    cfg.fault_seed = 4321;
    FaultPlan plan;
    plan.degrade(2, 0.4, sim::Time::milliseconds(5), sim::Time::milliseconds(25));
    plan.delay(5, sim::Time::microseconds(100), sim::Time::microseconds(50),
               sim::Time::milliseconds(2));
    plan.reorder(7, 0.05, sim::Time::microseconds(200), sim::Time::milliseconds(5));
    plan.duplicate(9, 0.02, sim::Time::zero());
    plan.overmark(11, 0.3, sim::Time::milliseconds(10));
    cfg.fault_plan = plan;
    cfg.check_invariants = true;
    return core::run_experiment(cfg);
  };
  const auto a = run();
  const auto b = run();
  ASSERT_TRUE(a.invariant_violations.empty())
      << a.invariant_violations.front();
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.drops.duplicated, b.drops.duplicated);
  EXPECT_EQ(a.drops.delayed, b.drops.delayed);
  EXPECT_EQ(a.drops.overmarked, b.drops.overmarked);
  EXPECT_EQ(a.drops.corrupt, b.drops.corrupt);
  EXPECT_EQ(a.drops.offered, b.drops.offered);
  EXPECT_GT(a.drops.duplicated + a.drops.delayed + a.drops.overmarked, 0u);
  EXPECT_EQ(a.goodput.count(), b.goodput.count());
  if (a.goodput.count() > 0) {
    EXPECT_DOUBLE_EQ(a.goodput.mean(), b.goodput.mean());
  }
}

// ---------------------------------------------------------------------------
// Per-link impairment columns (--drops-csv) at one and two workers: the gray plan
// of scripts/gray_diff.sh must show up in every column, and each column
// must sum over links to the fleet-wide total.
// ---------------------------------------------------------------------------

core::ExperimentResults gray_diff_run(int shards) {
  core::ExperimentConfig cfg;
  cfg.scheme.kind = workload::SchemeSpec::Kind::Xmp;
  cfg.scheme.subflows = 2;
  cfg.scheme.dead_after_rtos = 3;
  cfg.pattern = core::Pattern::Permutation;
  cfg.fat_tree_k = 4;
  cfg.duration = sim::Time::milliseconds(50);
  cfg.permutation_rounds = 1;
  cfg.seed = 11;
  cfg.fault_seed = 1;
  cfg.shards = shards;
  std::string err;
  EXPECT_TRUE(FaultPlan::parse("degrade,link=2,at=0.01,factor=0.4,until=0.03;"
                               "delay,link=5,at=0.005,dt=1e-4,jitter=5e-5,until=0.04;"
                               "reorder,link=7,at=0.01,p=0.05,dt=2e-4;"
                               "duplicate,link=9,at=0,p=0.02;"
                               "overmark,link=11,at=0.02,p=0.3",
                               cfg.fault_plan, &err))
      << err;
  return core::run_experiment(cfg);
}

void expect_impairment_columns_add_up(const core::ExperimentResults& r) {
  std::uint64_t duplicated = 0;
  std::uint64_t delayed = 0;
  std::uint64_t overmarked = 0;
  for (const auto& row : r.link_drops) {
    duplicated += row.duplicated;
    delayed += row.delayed;
    overmarked += row.overmarked;
  }
  EXPECT_EQ(duplicated, r.drops.duplicated);
  EXPECT_EQ(delayed, r.drops.delayed);
  EXPECT_EQ(overmarked, r.drops.overmarked);
  EXPECT_GT(duplicated, 0u);
  EXPECT_GT(delayed, 0u);
  EXPECT_GT(overmarked, 0u);
}

TEST(GrayFleet, PerLinkImpairmentColumnsMatchTotalsSerial) {
  const auto r = gray_diff_run(0);
  EXPECT_EQ(r.shard.logical_shards, 4);  // one per pod, on one inline worker
  expect_impairment_columns_add_up(r);
}

TEST(GrayFleet, PerLinkImpairmentColumnsMatchTotalsSharded) {
  const auto r = gray_diff_run(2);
  EXPECT_EQ(r.shard.logical_shards, 4);
  expect_impairment_columns_add_up(r);
}

}  // namespace
}  // namespace xmp::faults
