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

// --- event economy: one armed delivery, completions only when a packet waits

TEST(Link, PendingEventsStayBoundedWithManyPacketsInFlight) {
  sim::Scheduler sched;
  CaptureSink sink{sched};
  // 1 ms of propagation holds ~83 full packets at 1 Gbps: all 40 below
  // end up on the wire at once.
  Link link{sched, 0, 1'000'000'000, sim::Time::milliseconds(1), make_queue(droptail(100)),
            sink};
  constexpr std::size_t kPackets = 40;
  for (std::uint64_t i = 0; i < kPackets; ++i) link.send(data_packet(i));
  std::size_t max_in_flight = 0;
  do {
    EXPECT_LE(sched.pending(), 2u);  // head delivery + transmit completion
    if (link.live_in_flight() > max_in_flight) max_in_flight = link.live_in_flight();
  } while (sched.step_one());
  EXPECT_EQ(max_in_flight, kPackets);
  ASSERT_EQ(sink.arrivals.size(), kPackets);
  for (std::size_t i = 0; i < kPackets; ++i) EXPECT_EQ(sink.arrivals[i].second.uid, i);
}

TEST(Link, IdleCompletionIsNeverDispatched) {
  sim::Scheduler sched;
  CaptureSink sink{sched};
  Link link{sched, 0, 1'000'000'000, sim::Time::microseconds(100), make_queue(droptail(10)),
            sink};
  link.send(data_packet(1));
  sched.run();
  EXPECT_EQ(sched.dispatched(), 1u);  // the delivery only
  // Three back to back: three deliveries plus the two completions that had
  // a packet waiting behind them.
  for (std::uint64_t i = 2; i <= 4; ++i) link.send(data_packet(i));
  sched.run();
  EXPECT_EQ(sched.dispatched(), 1u + 3u + 2u);
  EXPECT_EQ(sink.arrivals.size(), 4u);
  EXPECT_EQ(sink.arrivals.back().first.us(), 112 + 112 + 24);
}

TEST(Link, SetDownCancelsArmedCompletionAndConserves) {
  sim::Scheduler sched;
  CaptureSink sink{sched};
  Link link{sched, 0, 1'000'000'000, sim::Time::microseconds(100), make_queue(droptail(10)),
            sink};
  for (std::uint64_t i = 0; i < 4; ++i) link.send(data_packet(i));
  EXPECT_EQ(sched.pending(), 2u);  // delivery of #0 + completion (3 waiting)
  auto conserved = [&] {
    return link.offered() + link.duplicated() ==
           link.delivered() + link.drops().total() + link.queue().len_packets() +
               link.live_in_flight() + link.held();
  };
  sched.schedule_at(sim::Time::microseconds(6), [&] {
    link.set_down(true);
    EXPECT_EQ(sched.pending(), 0u);  // both link events cancelled
    EXPECT_TRUE(conserved());
  });
  sched.run();
  EXPECT_EQ(sched.dispatched(), 1u);  // only the set_down event itself
  EXPECT_TRUE(sink.arrivals.empty());
  EXPECT_EQ(link.drops().admin_down, 4u);
  EXPECT_TRUE(conserved());

  // The transmitter is idle at once after reopening.
  link.set_down(false);
  link.send(data_packet(9));
  sched.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  EXPECT_EQ(sink.arrivals[0].second.uid, 9u);
  EXPECT_TRUE(conserved());
}

}  // namespace
}  // namespace xmp::net
