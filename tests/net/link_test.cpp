#include "net/link.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/scheduler.hpp"

namespace xmp::net {
namespace {

/// Records every delivered packet with its arrival time.
class CaptureSink final : public PacketSink {
 public:
  explicit CaptureSink(sim::Scheduler& s) : sched_{s} {}
  void receive(Packet p) override {
    arrivals.emplace_back(sched_.now(), std::move(p));
  }
  std::vector<std::pair<sim::Time, Packet>> arrivals;

 private:
  sim::Scheduler& sched_;
};

QueueConfig droptail(std::size_t cap) {
  QueueConfig q;
  q.kind = QueueConfig::Kind::DropTail;
  q.capacity_packets = cap;
  return q;
}

Packet data_packet(std::uint64_t uid, std::uint32_t bytes = kDataPacketBytes) {
  Packet p;
  p.uid = uid;
  p.size_bytes = bytes;
  return p;
}

TEST(Link, DeliversAfterSerializationPlusPropagation) {
  sim::Scheduler sched;
  CaptureSink sink{sched};
  Link link{sched, 0, 1'000'000'000, sim::Time::microseconds(100), make_queue(droptail(10)),
            sink};
  link.send(data_packet(1));
  sched.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  // 1500 B at 1 Gbps = 12 us serialization + 100 us propagation.
  EXPECT_EQ(sink.arrivals[0].first, sim::Time::microseconds(112));
}

TEST(Link, BackToBackPacketsSpacedBySerialization) {
  sim::Scheduler sched;
  CaptureSink sink{sched};
  Link link{sched, 0, 1'000'000'000, sim::Time::microseconds(100), make_queue(droptail(10)),
            sink};
  link.send(data_packet(1));
  link.send(data_packet(2));
  link.send(data_packet(3));
  sched.run();
  ASSERT_EQ(sink.arrivals.size(), 3u);
  EXPECT_EQ(sink.arrivals[0].first.us(), 112);
  EXPECT_EQ(sink.arrivals[1].first.us(), 124);
  EXPECT_EQ(sink.arrivals[2].first.us(), 136);
  EXPECT_EQ(sink.arrivals[0].second.uid, 1u);
  EXPECT_EQ(sink.arrivals[2].second.uid, 3u);
}

TEST(Link, RateDeterminesThroughput) {
  sim::Scheduler sched;
  CaptureSink sink{sched};
  Link link{sched, 0, 300'000'000, sim::Time::zero(), make_queue(droptail(1000)), sink};
  for (std::uint64_t i = 0; i < 100; ++i) link.send(data_packet(i));
  sched.run();
  ASSERT_EQ(sink.arrivals.size(), 100u);
  // 100 * 1500 B at 300 Mbps = 4 ms.
  EXPECT_EQ(sink.arrivals.back().first, sim::Time::microseconds(4000));
}

TEST(Link, CountsBusyTimeAndBytes) {
  sim::Scheduler sched;
  CaptureSink sink{sched};
  Link link{sched, 0, 1'000'000'000, sim::Time::microseconds(5), make_queue(droptail(10)), sink};
  link.send(data_packet(1));
  link.send(data_packet(2, 60));
  sched.run();
  EXPECT_EQ(link.bytes_sent(), 1560u);
  EXPECT_EQ(link.busy_time().ns(), 12'000 + 480);
}

TEST(Link, OverflowDropsAreCounted) {
  sim::Scheduler sched;
  CaptureSink sink{sched};
  Link link{sched, 0, 1'000'000'000, sim::Time::zero(), make_queue(droptail(2)), sink};
  // First packet starts transmitting immediately (leaves the queue); two
  // more fill the queue; the rest drop.
  for (std::uint64_t i = 0; i < 6; ++i) link.send(data_packet(i));
  sched.run();
  EXPECT_EQ(sink.arrivals.size(), 3u);
  EXPECT_EQ(link.queue().counters().dropped, 3u);
}

TEST(Link, SetDownDropsQueueAndInFlight) {
  sim::Scheduler sched;
  CaptureSink sink{sched};
  Link link{sched, 0, 1'000'000'000, sim::Time::milliseconds(1), make_queue(droptail(10)), sink};
  link.send(data_packet(1));
  link.send(data_packet(2));
  // Close the link while packet 1 is still propagating.
  sched.schedule_at(sim::Time::microseconds(500), [&] { link.set_down(true); });
  sched.run();
  EXPECT_TRUE(sink.arrivals.empty());
  EXPECT_TRUE(link.is_down());
}

TEST(Link, SendWhileDownIsDropped) {
  sim::Scheduler sched;
  CaptureSink sink{sched};
  Link link{sched, 0, 1'000'000'000, sim::Time::zero(), make_queue(droptail(10)), sink};
  link.set_down(true);
  link.send(data_packet(1));
  sched.run();
  EXPECT_TRUE(sink.arrivals.empty());
}

TEST(Link, ReopeningRestoresService) {
  sim::Scheduler sched;
  CaptureSink sink{sched};
  Link link{sched, 0, 1'000'000'000, sim::Time::zero(), make_queue(droptail(10)), sink};
  link.send(data_packet(1));
  sched.schedule_at(sim::Time::microseconds(1), [&] { link.set_down(true); });
  sched.schedule_at(sim::Time::microseconds(2), [&] {
    link.set_down(false);
    link.send(data_packet(2));
  });
  sched.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  EXPECT_EQ(sink.arrivals[0].second.uid, 2u);
}

// --- event economy: one event per packet hop, transmissions start lazily

TEST(Link, PendingEventsStayBoundedWithManyPacketsInFlight) {
  sim::Scheduler sched;
  CaptureSink sink{sched};
  // 1 ms of propagation holds ~83 full packets at 1 Gbps: all 40 below
  // end up on the wire at once.
  Link link{sched, 0, 1'000'000'000, sim::Time::milliseconds(1), make_queue(droptail(100)),
            sink};
  constexpr std::size_t kPackets = 40;
  for (std::uint64_t i = 0; i < kPackets; ++i) link.send(data_packet(i));
  // The last one starts at 468 us, long before the first arrives at 1 ms.
  sched.run_until(sim::Time::microseconds(500));
  EXPECT_EQ(link.live_in_flight(), kPackets);
  EXPECT_EQ(link.queued(), 0u);
  do {
    EXPECT_LE(sched.pending(), 1u);  // the head delivery only
  } while (sched.step_one());
  ASSERT_EQ(sink.arrivals.size(), kPackets);
  for (std::size_t i = 0; i < kPackets; ++i) EXPECT_EQ(sink.arrivals[i].second.uid, i);
}

TEST(Link, BurstIntoABusyLinkDispatchesOneEventPerPacket) {
  sim::Scheduler sched;
  CaptureSink sink{sched};
  Link link{sched, 0, 1'000'000'000, sim::Time::microseconds(100), make_queue(droptail(20)),
            sink};
  link.send(data_packet(1));
  sched.run();
  EXPECT_EQ(sched.dispatched(), 1u);  // the delivery only
  // A burst of ten, then five more while the link is still busy with it:
  // one delivery each, and nothing else.
  for (std::uint64_t i = 2; i <= 11; ++i) link.send(data_packet(i));
  sched.schedule_in(sim::Time::microseconds(30), [&] {
    for (std::uint64_t i = 12; i <= 16; ++i) link.send(data_packet(i));
  });
  sched.run();
  EXPECT_EQ(sched.dispatched(), 1u + 15u + 1u);  // + the event that sent five
  ASSERT_EQ(sink.arrivals.size(), 16u);
  for (std::size_t i = 1; i < sink.arrivals.size(); ++i) {
    EXPECT_EQ(sink.arrivals[i].second.uid, i + 1);
    // Back to back: the second burst queued behind the first.
    EXPECT_EQ(sink.arrivals[i].first.us(), 112 + 112 + 12 * static_cast<std::int64_t>(i - 1));
  }
}

TEST(Link, EcnMarksAndTailDropsFollowTheWaitingCount) {
  sim::Scheduler sched;
  CaptureSink sink{sched};
  QueueConfig q;
  q.kind = QueueConfig::Kind::EcnThreshold;
  q.capacity_packets = 4;
  q.mark_threshold = 2;  // mark when more than two wait
  Link link{sched, 0, 1'000'000'000, sim::Time::microseconds(1), make_queue(q), sink};
  auto ect = [](std::uint64_t uid) {
    Packet p = data_packet(uid);
    p.ecn = Ecn::Ect;
    return p;
  };
  // #1 starts at once; #2..#5 wait (#5 sees three waiting: marked); #6
  // finds four waiting and is marked and dropped.
  for (std::uint64_t i = 1; i <= 6; ++i) link.send(ect(i));
  EXPECT_EQ(link.queued(), 4u);
  sched.schedule_at(sim::Time::microseconds(12), [&] {
    // #1 ends now and #2 is due: nothing has started it yet (#1 arrives
    // at 13 us), but the view already counts it on the wire.
    EXPECT_EQ(link.queue().len_packets(), 4u);
    EXPECT_EQ(link.queued(), 3u);
    EXPECT_EQ(link.live_in_flight(), 2u);
    // A departure at now leaves before an arrival at now: #7 sees three
    // waiting, not four, so it is marked and accepted.
    link.send(ect(7));
    EXPECT_EQ(link.queue().len_packets(), 4u);
    EXPECT_EQ(link.queued(), 4u);
  });
  sched.run();
  EXPECT_EQ(link.queue().counters().marked, 3u);
  EXPECT_EQ(link.queue().counters().dropped, 1u);
  EXPECT_EQ(link.drops().queue, 1u);
  ASSERT_EQ(sink.arrivals.size(), 6u);
  std::vector<std::uint64_t> ce;
  for (const auto& [t, p] : sink.arrivals) {
    if (p.ecn == Ecn::Ce) ce.push_back(p.uid);
  }
  EXPECT_EQ(ce, (std::vector<std::uint64_t>{5, 7}));
}

/// Corrupts the packets whose uid it names; passes every other one.
class CorruptUids final : public Link::FaultHook {
 public:
  explicit CorruptUids(std::vector<std::uint64_t> uids) : uids_{std::move(uids)} {}
  Link::FaultVerdict on_send(const Packet& p) override {
    for (const std::uint64_t u : uids_) {
      if (u == p.uid) return Link::FaultAction::Corrupt;
    }
    return Link::FaultAction::Pass;
  }

 private:
  std::vector<std::uint64_t> uids_;
};

TEST(Link, SetDownCountsWaitingAndPropagatingPackets) {
  sim::Scheduler sched;
  CaptureSink sink{sched};
  Link link{sched, 0, 1'000'000'000, sim::Time::microseconds(100), make_queue(droptail(10)),
            sink};
  CorruptUids corrupt{{1, 3}};
  link.set_fault_hook(&corrupt);
  // Starts at 0, 12, 24 and 36 us; #0's delivery at 112 us is the first
  // event that would start #1.
  for (std::uint64_t i = 0; i < 4; ++i) link.send(data_packet(i));
  EXPECT_EQ(sched.pending(), 1u);  // #0's delivery
  auto conserved = [&] {
    return link.offered() + link.duplicated() ==
           link.delivered() + link.drops().total() + link.queued() + link.live_in_flight() +
               link.held();
  };
  sched.schedule_at(sim::Time::microseconds(30), [&] {
    EXPECT_TRUE(conserved());
    EXPECT_EQ(link.queued(), 1u);  // #3; #0..#2 are on the wire
    link.set_down(true);
    EXPECT_EQ(sched.pending(), 0u);  // the head delivery is cancelled
    EXPECT_TRUE(conserved());
  });
  sched.run();
  EXPECT_EQ(sched.dispatched(), 1u);  // only the set_down event itself
  EXPECT_TRUE(sink.arrivals.empty());
  // #0 and #2 propagating: admin_down; #1 propagating and #3 waiting were
  // corrupted at entry and die as corrupt wherever they are.
  EXPECT_EQ(link.drops().admin_down, 2u);
  EXPECT_EQ(link.drops().corrupt, 2u);
  EXPECT_EQ(link.bytes_sent(), 3u * kDataPacketBytes);  // #0..#2 had started
  EXPECT_TRUE(conserved());

  // The transmitter is idle at once after reopening.
  link.set_fault_hook(nullptr);
  sched.schedule_at(sim::Time::microseconds(40), [&] {
    link.set_down(false);
    link.send(data_packet(9));
  });
  sched.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  EXPECT_EQ(sink.arrivals[0].second.uid, 9u);
  EXPECT_EQ(sink.arrivals[0].first.us(), 40 + 12 + 100);
  EXPECT_TRUE(conserved());
}

TEST(Link, RateChangeRetimesOnlyUnstartedPackets) {
  // Four packets at t=0 start at 0, 12, 24 and 36 us at 1 Gbps. Halving
  // the rate at 30 us settles the link first: #1 and #2 (due before 30)
  // keep their timing, #3 (due at 36) serializes in 24 us.
  for (const bool fluid : {false, true}) {
    SCOPED_TRACE(fluid ? "fluid share" : "degrade");
    sim::Scheduler sched;
    CaptureSink sink{sched};
    Link link{sched, 0, 1'000'000'000, sim::Time::microseconds(100), make_queue(droptail(10)),
              sink};
    for (std::uint64_t i = 0; i < 4; ++i) link.send(data_packet(i));
    sched.schedule_at(sim::Time::microseconds(30), [&] {
      if (fluid) {
        link.set_fluid_share(0.5);
      } else {
        link.set_degrade(0.5);
      }
    });
    sched.run();
    ASSERT_EQ(sink.arrivals.size(), 4u);
    EXPECT_EQ(sink.arrivals[0].first.us(), 112);
    EXPECT_EQ(sink.arrivals[1].first.us(), 124);
    EXPECT_EQ(sink.arrivals[2].first.us(), 136);
    EXPECT_EQ(sink.arrivals[3].first.us(), 36 + 24 + 100);
    // A fluid share's stretch is the fluid load's time, not the packet's.
    EXPECT_EQ(link.busy_time().us(), fluid ? 3 * 12 + 12 : 3 * 12 + 24);
  }
}

TEST(Link, ZeroDelayLinkDeliversEveryPacket) {
  sim::Scheduler sched;
  CaptureSink sink{sched};
  // Each delivery coincides with its successor's start, so the delivery
  // itself must start it.
  Link link{sched, 0, 1'000'000'000, sim::Time::zero(), make_queue(droptail(100)), sink};
  for (std::uint64_t i = 0; i < 20; ++i) link.send(data_packet(i));
  sched.schedule_at(sim::Time::microseconds(100), [&] {
    for (std::uint64_t i = 20; i < 40; ++i) link.send(data_packet(i));
  });
  sched.run();
  ASSERT_EQ(sink.arrivals.size(), 40u);
  for (std::size_t i = 0; i < sink.arrivals.size(); ++i) {
    EXPECT_EQ(sink.arrivals[i].second.uid, i);
    EXPECT_EQ(sink.arrivals[i].first.us(), 12 * static_cast<std::int64_t>(i + 1));
  }
  EXPECT_EQ(sched.dispatched(), 40u + 1u);
  EXPECT_EQ(link.queued(), 0u);
  EXPECT_EQ(link.live_in_flight(), 0u);
}

}  // namespace
}  // namespace xmp::net
