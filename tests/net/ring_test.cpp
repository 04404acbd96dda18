// The pooled packet FIFOs (net::Fifo over a per-shard net::FifoPool) that
// hold every queue's packets and every link's in-flight entries.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "net/fifo.hpp"
#include "net/link.hpp"
#include "net/queue.hpp"
#include "sim/scheduler.hpp"

namespace xmp::net {
namespace {

Packet packet(std::uint64_t uid) {
  Packet p;
  p.uid = uid;
  p.ecn = Ecn::Ect;
  p.seq = static_cast<std::int64_t>(uid) * 3;
  return p;
}

std::vector<int> drain(Fifo<int>& f) {
  std::vector<int> out;
  while (!f.empty()) {
    out.push_back(f.front());
    f.pop_front();
  }
  return out;
}

TEST(Ring, AllocatesNothingBeforeFirstPush) {
  FifoPool pool;
  Fifo<int> f{pool};
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(pool.high_water(), 0u);
  f.push_back(1);
  EXPECT_EQ(pool.high_water(), 1u);

  // An idle queue carves nothing from its pool either.
  FifoPool qpool;
  EcnThresholdQueue q{100, 10, &qpool};
  EXPECT_EQ(qpool.high_water(), 0u);
  ASSERT_TRUE(q.enqueue(packet(1), sim::Time::zero()));
  EXPECT_EQ(qpool.high_water(), 1u);
}

TEST(Ring, FifoOrderAcrossNodeReuseAndClear) {
  FifoPool pool;
  Fifo<int> f{pool};
  int next_in = 0;
  int next_out = 0;
  // Interleave pushes and pops so later entries sit on recycled nodes, in
  // the reverse of the order they were freed.
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 7; ++i) f.push_back(int{next_in++});
    for (int i = 0; i < 5; ++i, ++next_out) {
      ASSERT_EQ(f.front(), next_out);
      f.pop_front();
    }
  }
  ASSERT_EQ(f.size(), static_cast<std::size_t>(next_in - next_out));
  int expect = next_out;
  for (int v : f) EXPECT_EQ(v, expect++);
  EXPECT_EQ(f.back(), next_in - 1);
  EXPECT_EQ(pool.high_water(), 15u) << "the peak of live entries: 8 left over, 7 pushed";

  f.clear();
  EXPECT_TRUE(f.empty());
  EXPECT_FALSE(f.begin() != f.end());
  for (int i = 100; i < 110; ++i) f.push_back(int{i});
  std::vector<int> want;
  for (int i = 100; i < 110; ++i) want.push_back(i);
  EXPECT_EQ(drain(f), want);
  EXPECT_EQ(pool.high_water(), 15u) << "refilled from the cleared nodes";
}

TEST(Ring, QueueRingIsCappedAtCapacityAndStillDropsThe101st) {
  FifoPool pool;
  DropTailQueue q{100, &pool};
  for (std::uint64_t i = 0; i < 100; ++i) ASSERT_TRUE(q.enqueue(packet(i), sim::Time::zero()));
  EXPECT_FALSE(q.enqueue(packet(100), sim::Time::zero()));
  EXPECT_EQ(q.counters().dropped, 1u);
  EXPECT_EQ(q.len_packets(), 100u);
  EXPECT_EQ(pool.high_water(), 100u) << "the dropped packet took no node";
  Packet out;
  for (std::uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(q.dequeue(out, sim::Time::zero()));
    EXPECT_EQ(out.uid, i);
  }
  EXPECT_FALSE(q.dequeue(out, sim::Time::zero()));

  // A tiny queue drops past its cap too.
  DropTailQueue tiny{3, &pool};
  for (std::uint64_t i = 0; i < 3; ++i) ASSERT_TRUE(tiny.enqueue(packet(i), sim::Time::zero()));
  EXPECT_FALSE(tiny.enqueue(packet(3), sim::Time::zero()));
  EXPECT_EQ(pool.high_water(), 100u) << "the tiny queue reused the big one's nodes";
}

TEST(Ring, TwoFifosOnOnePoolReuseEachOthersNodes) {
  // Like an egress queue feeding its link's in-flight FIFO: entries move
  // from one FIFO to the other, so the pool's high-water is the peak of
  // live entries, not the sum of each FIFO's own peak.
  FifoPool pool;
  Fifo<int> queued{pool};
  Fifo<int> flying{pool};
  for (int i = 0; i < 40; ++i) queued.push_back(int{i});  // queue peak: 40
  while (!queued.empty()) {  // dequeue, then put on the wire
    const int v = queued.front();
    queued.pop_front();
    flying.push_back(int{v});
  }
  EXPECT_EQ(flying.size(), 40u);  // in-flight peak: 40
  EXPECT_EQ(pool.high_water(), 40u) << "not 80";
  std::vector<int> want;
  for (int i = 0; i < 40; ++i) want.push_back(i);
  EXPECT_EQ(drain(flying), want);

  // 200 pushes alternating between the two, at most eleven live at once:
  // no new node is ever carved.
  for (int i = 0; i < 200; ++i) {
    Fifo<int>& f = (i % 2 == 0) ? queued : flying;
    f.push_back(int{i});
    if (queued.size() + flying.size() > 10) (i % 2 == 0 ? flying : queued).pop_front();
  }
  EXPECT_EQ(pool.high_water(), 40u);
}

TEST(Ring, ClearThenReuse) {
  FifoPool pool;
  Fifo<int> f{pool};
  for (int i = 0; i < 20; ++i) f.push_back(int{i});
  f.pop_front();
  f.clear();
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(pool.high_water(), 20u);
  for (int i = 100; i < 140; ++i) f.push_back(int{i});
  ASSERT_EQ(f.size(), 40u);
  EXPECT_EQ(pool.high_water(), 40u) << "20 recycled nodes, then 20 new ones";
  for (int i = 100; i < 140; ++i) {
    ASSERT_EQ(f.front(), i);
    f.pop_front();
  }
}

TEST(Ring, RecycledQueueSavesLikeAFreshOne) {
  // The recycled queue's packets land on nodes another FIFO freed, in
  // reverse order; where a node sits must not show in the snapshot.
  FifoPool pool;
  Fifo<int> churn{pool};
  for (int i = 0; i < 50; ++i) churn.push_back(int{i});
  churn.clear();
  Packet out;
  // Packets 25..69 queued, after 70 enqueues and 25 dequeues.
  auto fill = [&out](Queue& q) {
    for (std::uint64_t i = 0; i < 30; ++i) ASSERT_TRUE(q.enqueue(packet(i), sim::Time::zero()));
    for (int i = 0; i < 25; ++i) ASSERT_TRUE(q.dequeue(out, sim::Time::zero()));
    for (std::uint64_t i = 30; i < 70; ++i) ASSERT_TRUE(q.enqueue(packet(i), sim::Time::zero()));
  };
  DropTailQueue recycled{100, &pool};
  fill(recycled);
  DropTailQueue fresh{100};
  fill(fresh);

  core::ckpt::Io a;
  core::ckpt::Io b;
  recycled.checkpoint(a);
  fresh.checkpoint(b);
  EXPECT_EQ(a.data(), b.data());

  // A restore reproduces the same FIFO and saves the same bytes.
  FifoPool other;
  DropTailQueue restored{100, &other};
  core::ckpt::Io l{a.data()};
  restored.checkpoint(l);
  ASSERT_TRUE(l.done());
  core::ckpt::Io again;
  restored.checkpoint(again);
  EXPECT_EQ(again.data(), a.data());
  ASSERT_EQ(restored.len_packets(), 45u);
  for (std::uint64_t i = 25; i < 70; ++i) {
    ASSERT_TRUE(restored.dequeue(out, sim::Time::zero()));
    EXPECT_EQ(out.uid, i);
    EXPECT_EQ(out.seq, static_cast<std::int64_t>(i) * 3);
  }
}

TEST(Ring, RestoreRejectsMoreThanTheCap) {
  DropTailQueue big{10};
  for (std::uint64_t i = 0; i < 10; ++i) ASSERT_TRUE(big.enqueue(packet(i), sim::Time::zero()));
  core::ckpt::Io s;
  big.checkpoint(s);
  DropTailQueue small{4};
  core::ckpt::Io l{s.data()};
  small.checkpoint(l);
  EXPECT_FALSE(l.ok());
  EXPECT_EQ(small.len_packets(), 0u);
}

class Capture final : public PacketSink {
 public:
  explicit Capture(sim::Scheduler& s) : sched_{s} {}
  void receive(Packet p) override { got.emplace_back(sched_.now().ns(), p.uid); }
  std::vector<std::pair<std::int64_t, std::uint64_t>> got;

 private:
  sim::Scheduler& sched_;
};

TEST(Ring, LinkInFlightFifoCheckpointRoundTrip) {
  QueueConfig q;
  q.kind = QueueConfig::Kind::DropTail;
  q.capacity_packets = 16;
  const sim::Time prop = sim::Time::microseconds(50);

  // Eight back-to-back packets, one leaving the queue every 12 us (1500 B
  // at 1 Gbps): after 40 us four are on the wire and four still queued.
  // Nothing has started #2..#4 yet (#1 arrives at 62 us); the snapshot
  // keeps them queued and the views count them on the wire.
  sim::Scheduler sched;
  Capture sink{sched};
  FifoPool pool;
  Link link{sched, 0, 1'000'000'000, prop, make_queue(q, &pool), sink, &pool};
  for (std::uint64_t i = 1; i <= 8; ++i) link.send(packet(i));
  sched.run_until(sim::Time::microseconds(40));
  ASSERT_EQ(link.live_in_flight(), 4u);
  ASSERT_EQ(link.queued(), 4u);
  ASSERT_EQ(link.queue().len_packets(), 7u);
  EXPECT_EQ(pool.high_water(), 8u) << "queue and in-flight entries share nodes";

  core::ckpt::Io s;
  link.checkpoint(s);

  sim::Scheduler sched2;
  sched2.restore_clock(sched.now(), sched.next_seq(), sched.dispatched());
  Capture sink2{sched2};
  FifoPool pool2;
  Link restored{sched2, 0, 1'000'000'000, prop, make_queue(q, &pool2), sink2, &pool2};
  core::ckpt::Io l{s.data()};
  restored.checkpoint(l);
  ASSERT_TRUE(l.done());
  EXPECT_EQ(restored.live_in_flight(), 4u);
  EXPECT_EQ(pool2.high_water(), 8u) << "one in flight plus seven queued";
  core::ckpt::Io again;
  restored.checkpoint(again);
  EXPECT_EQ(again.data(), s.data());

  sched.run();
  sched2.run();
  ASSERT_EQ(sink.got.size(), 8u);
  EXPECT_EQ(sink2.got, sink.got);
}

}  // namespace
}  // namespace xmp::net
