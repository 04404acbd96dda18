#include "transport/sender.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "transport/segment_source.hpp"
#include "util/fixtures.hpp"

namespace xmp::transport {
namespace {

using testutil::TwoHosts;

/// Records hook invocations without changing the window.
class StubCc final : public CongestionControl {
 public:
  void on_ack(TcpSender&, const AckEvent& ev) override {
    ++acks;
    last_event = ev;
  }
  void on_round_end(TcpSender&) override { ++rounds; }
  void on_congestion_signal(TcpSender&, const AckEvent&) override { ++signals; }
  void on_loss(TcpSender&, bool timeout) override { timeout ? ++rto_losses : ++fast_losses; }
  const char* name() const override { return "stub"; }

  int acks = 0;
  int rounds = 0;
  int signals = 0;
  int fast_losses = 0;
  int rto_losses = 0;
  AckEvent last_event;
};

class DataCapture final : public net::Host::Endpoint {
 public:
  void handle(net::Packet p) override { packets.push_back(std::move(p)); }
  std::vector<net::Packet> packets;
};

struct SenderHarness {
  TwoHosts t{10'000'000'000, sim::Time::microseconds(1), testutil::droptail_queue(10'000)};
  DataCapture data;
  FixedSource source;
  StubCc* cc = nullptr;  // owned by the sender
  std::unique_ptr<TcpSender> sender;

  explicit SenderHarness(std::int64_t segments = 1'000'000, SenderConfig cfg = {})
      : source{segments} {
    t.b->register_endpoint(1, 0, net::PacketType::Data, data);
    auto stub = std::make_unique<StubCc>();
    cc = stub.get();
    sender = std::make_unique<TcpSender>(t.sched, *t.a, t.b->id(), 1, 0, 0, source,
                                         std::move(stub), cfg);
  }

  /// Deliver a crafted ack straight to the sender.
  void ack(std::int64_t ackno, bool ece = false, std::uint8_t ce = 0,
           sim::Time ts = sim::Time::zero()) {
    net::Packet p;
    p.flow = 1;
    p.type = net::PacketType::Ack;
    p.ack = ackno;
    p.ece = ece;
    p.ce_echo = ce;
    p.ts = ts;
    sender->handle(std::move(p));
  }

  void drain() { t.sched.run_until(t.sched.now() + sim::Time::milliseconds(1)); }
};

TEST(Sender, SendsInitialWindowOnStart) {
  SenderHarness h;
  h.sender->start();
  h.drain();
  EXPECT_EQ(h.data.packets.size(), 10u);  // IW10
  EXPECT_EQ(h.sender->inflight(), 10);
  for (std::int64_t i = 0; i < 10; ++i) EXPECT_EQ(h.data.packets[i].seq, i);
}

TEST(Sender, StopsAtSourceExhaustion) {
  SenderHarness h{3};
  h.sender->start();
  h.drain();
  EXPECT_EQ(h.data.packets.size(), 3u);
}

TEST(Sender, NewAckAdvancesAndPumps) {
  SenderHarness h;
  h.sender->start();
  h.drain();
  h.ack(4);
  h.drain();
  EXPECT_EQ(h.sender->snd_una(), 4);
  EXPECT_EQ(h.sender->inflight(), 10);       // window refilled
  EXPECT_EQ(h.data.packets.size(), 14u);     // 4 more sent
  EXPECT_EQ(h.cc->acks, 1);
  EXPECT_EQ(h.cc->last_event.newly_acked, 4);
}

TEST(Sender, RoundEndsWhenAckPassesBegSeq) {
  SenderHarness h;
  h.sender->start();
  h.drain();
  // beg_seq starts at 0; the first ack > 0 ends round 1 and re-arms
  // beg_seq at snd_nxt (10).
  h.ack(5);
  EXPECT_EQ(h.cc->rounds, 1);
  h.ack(10);  // still <= new beg_seq? 10 > beg_seq(10) is false -> no round
  EXPECT_EQ(h.cc->rounds, 1);
  h.drain();
  h.ack(11);  // passes beg_seq = 10 -> round 2
  EXPECT_EQ(h.cc->rounds, 2);
}

TEST(Sender, ThreeDupacksTriggerFastRetransmit) {
  SenderHarness h;
  h.sender->start();
  h.drain();
  h.ack(2);  // new ack
  h.drain();
  const std::size_t before = h.data.packets.size();
  h.ack(2);
  h.ack(2);
  EXPECT_EQ(h.cc->fast_losses, 0);  // only 2 dupacks so far
  h.ack(2);
  h.drain();
  EXPECT_EQ(h.cc->fast_losses, 1);
  EXPECT_EQ(h.sender->fast_retransmits(), 1u);
  // The retransmission resends snd_una = 2.
  bool saw_rtx = false;
  for (std::size_t i = before; i < h.data.packets.size(); ++i) {
    if (h.data.packets[i].retransmit) {
      EXPECT_EQ(h.data.packets[i].seq, 2);
      EXPECT_EQ(h.data.packets[i].ts, sim::Time::zero());  // Karn's rule
      saw_rtx = true;
    }
  }
  EXPECT_TRUE(saw_rtx);
}

TEST(Sender, DupacksBeforeRecoveryDoNotRetransmitTwice) {
  SenderHarness h;
  h.sender->start();
  h.drain();
  h.ack(2);
  for (int i = 0; i < 6; ++i) h.ack(2);  // extra dupacks during recovery
  h.drain();
  EXPECT_EQ(h.sender->fast_retransmits(), 1u);
}

TEST(Sender, PartialAckRetransmitsNextHole) {
  SenderHarness h;
  h.sender->start();
  h.drain();
  h.ack(2);
  h.ack(2);
  h.ack(2);
  h.ack(2);  // enter recovery, recover_ = snd_nxt
  h.drain();
  const std::size_t before = h.data.packets.size();
  h.ack(5);  // partial: below recover point -> retransmit 5, stay in recovery
  h.drain();
  bool rtx5 = false;
  for (std::size_t i = before; i < h.data.packets.size(); ++i) {
    if (h.data.packets[i].retransmit && h.data.packets[i].seq == 5) rtx5 = true;
  }
  EXPECT_TRUE(rtx5);
  EXPECT_EQ(h.sender->fast_retransmits(), 1u);  // no second fast rtx
}

TEST(Sender, RtoFiresAfterRtoMin) {
  SenderConfig cfg;
  cfg.rto_min = sim::Time::milliseconds(200);
  SenderHarness h{1'000'000, cfg};
  h.sender->start();
  h.t.sched.run_until(sim::Time::milliseconds(199));
  EXPECT_EQ(h.sender->timeouts(), 0u);
  h.t.sched.run_until(sim::Time::milliseconds(210));
  EXPECT_EQ(h.sender->timeouts(), 1u);
  EXPECT_EQ(h.cc->rto_losses, 1);
  // Go-back-N: the outstanding window is retransmitted starting from the
  // head, as far as the (stub-held) window allows.
  ASSERT_GE(h.data.packets.size(), 11u);
  for (std::int64_t i = 0; i < 10; ++i) {
    const auto& p = h.data.packets[static_cast<std::size_t>(10 + i)];
    EXPECT_TRUE(p.retransmit);
    EXPECT_EQ(p.seq, i);
  }
}

TEST(Sender, RtoBacksOffExponentially) {
  SenderConfig cfg;
  cfg.rto_min = sim::Time::milliseconds(200);
  SenderHarness h{1'000'000, cfg};
  h.sender->start();
  // No acks at all: timeouts at ~200, 600 (200+400), 1400 (600+800), ...
  h.t.sched.run_until(sim::Time::milliseconds(250));
  EXPECT_EQ(h.sender->timeouts(), 1u);
  h.t.sched.run_until(sim::Time::milliseconds(550));
  EXPECT_EQ(h.sender->timeouts(), 1u);  // backoff doubled: not yet
  h.t.sched.run_until(sim::Time::milliseconds(650));
  EXPECT_EQ(h.sender->timeouts(), 2u);
}

TEST(Sender, ForwardProgressDefersRto) {
  SenderConfig cfg;
  cfg.rto_min = sim::Time::milliseconds(200);
  SenderHarness h{1'000'000, cfg};
  h.sender->start();
  h.t.sched.run_until(sim::Time::milliseconds(150));
  h.ack(1);  // forward progress at t=150ms pushes deadline to ~350ms
  h.t.sched.run_until(sim::Time::milliseconds(300));
  EXPECT_EQ(h.sender->timeouts(), 0u);
  h.t.sched.run_until(sim::Time::milliseconds(400));
  EXPECT_EQ(h.sender->timeouts(), 1u);
}

TEST(Sender, EcnEchoRaisesCongestionSignal) {
  SenderHarness h;
  h.sender->start();
  h.drain();
  h.ack(1, /*ece=*/false, /*ce=*/0);
  EXPECT_EQ(h.cc->signals, 0);
  h.ack(2, /*ece=*/true);
  EXPECT_EQ(h.cc->signals, 1);
  h.ack(3, /*ece=*/false, /*ce=*/2);
  EXPECT_EQ(h.cc->signals, 2);
  EXPECT_EQ(h.sender->ce_echoes(), 2u);
}

TEST(Sender, RttSampleFromTimestampEcho) {
  SenderHarness h;
  h.sender->start();
  h.t.sched.run_until(sim::Time::microseconds(500));
  h.ack(1, false, 0, sim::Time::microseconds(100));  // echoed send time
  ASSERT_TRUE(h.sender->has_rtt_sample());
  EXPECT_EQ(h.sender->srtt(), sim::Time::microseconds(400));
}

TEST(Sender, InstantRateIsCwndOverSrtt) {
  SenderHarness h;
  h.sender->start();
  h.t.sched.run_until(sim::Time::microseconds(1200));
  h.ack(1, false, 0, sim::Time::microseconds(200));
  // srtt = 1 ms; cwnd = 10 -> 10'000 segments/s.
  ASSERT_TRUE(h.sender->has_rtt_sample());
  EXPECT_NEAR(h.sender->instant_rate(), h.sender->cwnd() / 1e-3, 1e-6);
}

TEST(Sender, MinCwndFloorIsRespected) {
  SenderConfig cfg;
  cfg.min_cwnd = 2.0;
  SenderHarness h{1'000'000, cfg};
  h.sender->set_cwnd(0.5);
  EXPECT_DOUBLE_EQ(h.sender->cwnd(), 2.0);
}

TEST(Sender, IdleAfterEverythingAcked) {
  SenderHarness h{5};
  h.sender->start();
  h.drain();
  h.ack(5);
  EXPECT_TRUE(h.sender->idle());
  // No further RTO must fire.
  h.t.sched.run_until(sim::Time::seconds(1.0));
  EXPECT_EQ(h.sender->timeouts(), 0u);
}

// The RTO timer's checkpointed key restores only onto a clock that can
// still dispatch it: behind the restored clock, or on a sequence the
// restored scheduler never handed out, it fails the pass (the world's
// "malformed payload" exit 2) instead of arming a timer in the past.
TEST(Sender, RestoreValidatesTheRtoKey) {
  SenderHarness a;
  a.sender->start();
  a.t.sched.run_until(sim::Time::microseconds(5));  // data out, no acks: RTO armed
  core::ckpt::Io s;
  a.sender->checkpoint(s);

  struct Clock {
    sim::Time now;
    std::uint64_t next_seq;
    bool ok;
  };
  for (const Clock c : {Clock{a.t.sched.now(), a.t.sched.next_seq(), true},
                        Clock{sim::Time::seconds(10), a.t.sched.next_seq(), false},
                        Clock{a.t.sched.now(), 1, false}}) {
    SenderHarness b;
    b.t.sched.restore_clock(c.now, c.next_seq, 0);
    core::ckpt::Io l{s.data()};
    b.sender->checkpoint(l);
    EXPECT_EQ(l.done(), c.ok) << "clock " << c.now.ns() << " ns, next_seq " << c.next_seq;
    EXPECT_EQ(b.t.sched.pending(), c.ok ? 1u : 0u);
  }
}

}  // namespace
}  // namespace xmp::transport
