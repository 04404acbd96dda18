#include <gtest/gtest.h>

#include <cstdint>

#include "core/checkpoint.hpp"
#include "net/queue.hpp"

namespace xmp::net {
namespace {

Packet packet(std::uint64_t uid) {
  Packet p;
  p.uid = uid;
  p.ecn = Ecn::Ect;
  p.seq = static_cast<std::int64_t>(uid) * 3;
  return p;
}

TEST(Ring, AllocatesNothingBeforeFirstPush) {
  Ring<int> r;
  EXPECT_EQ(r.capacity(), 0u);
  EXPECT_TRUE(r.empty());
  r.push_back(1);
  EXPECT_EQ(r.capacity(), Ring<int>::kInitialSlots);

  // An idle queue owns no packet storage either.
  EcnThresholdQueue q{100, 10};
  EXPECT_EQ(q.ring_slots(), 0u);
}

TEST(Ring, FifoOrderAcrossWrapAroundAndGrowth) {
  Ring<int> r;
  int next_in = 0;
  int next_out = 0;
  // Fill to 6, then slide the head forward so the contents wrap past the
  // end of the 8-slot buffer before it has to grow.
  for (; next_in < 6; ++next_in) r.push_back(int{next_in});
  for (int i = 0; i < 5; ++i, ++next_out) {
    ASSERT_EQ(r.front(), next_out);
    r.pop_front();
  }
  for (; next_in < 12; ++next_in) r.push_back(int{next_in});  // wraps: 7 in 8 slots
  EXPECT_EQ(r.capacity(), 8u);
  for (; next_in < 40; ++next_in) r.push_back(int{next_in});  // grows from wrapped, to 64
  EXPECT_EQ(r.capacity(), 64u);
  ASSERT_EQ(r.size(), static_cast<std::size_t>(next_in - next_out));
  for (std::size_t i = 0; i < r.size(); ++i) EXPECT_EQ(r[i], next_out + static_cast<int>(i));
  EXPECT_EQ(r.back(), next_in - 1);
  while (!r.empty()) {
    ASSERT_EQ(r.front(), next_out++);
    r.pop_front();
  }
  EXPECT_EQ(next_out, next_in);
}

TEST(Ring, QueueRingIsCappedAtCapacityAndStillDropsThe101st) {
  DropTailQueue q{100};
  for (std::uint64_t i = 0; i < 100; ++i) ASSERT_TRUE(q.enqueue(packet(i), sim::Time::zero()));
  EXPECT_EQ(q.ring_slots(), 100u);  // 8, 16, 32, 64, then the cap, not 128
  EXPECT_FALSE(q.enqueue(packet(100), sim::Time::zero()));
  EXPECT_EQ(q.counters().dropped, 1u);
  EXPECT_EQ(q.len_packets(), 100u);
  EXPECT_EQ(q.ring_slots(), 100u);
  Packet out;
  for (std::uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(q.dequeue(out, sim::Time::zero()));
    EXPECT_EQ(out.uid, i);
  }
}

TEST(Ring, SmallCapacityStartsAtTheCap) {
  PacketRing r{3};
  r.push_back(packet(1));
  EXPECT_EQ(r.capacity(), 3u);
}

TEST(Ring, ClearThenReuse) {
  Ring<int> r;
  for (int i = 0; i < 20; ++i) r.push_back(int{i});
  r.pop_front();
  r.clear();
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.capacity(), 32u);  // storage is kept for reuse
  for (int i = 100; i < 140; ++i) r.push_back(int{i});
  ASSERT_EQ(r.size(), 40u);
  for (int i = 100; i < 140; ++i) {
    ASSERT_EQ(r.front(), i);
    r.pop_front();
  }
}

TEST(Ring, GrownWrappedRingSavesLikeAFreshOne) {
  PacketRing grown{100};
  for (std::uint64_t i = 0; i < 30; ++i) grown.push_back(packet(i));
  for (int i = 0; i < 25; ++i) grown.pop_front();
  for (std::uint64_t i = 30; i < 70; ++i) grown.push_back(packet(i));  // wraps, grows to 64
  ASSERT_EQ(grown.capacity(), 64u);

  PacketRing fresh{100};
  for (std::uint64_t i = 25; i < 70; ++i) fresh.push_back(packet(i));

  core::ckpt::Io a;
  core::ckpt::Io b;
  grown.checkpoint(a);
  fresh.checkpoint(b);
  EXPECT_EQ(a.data(), b.data());

  // And a restore reproduces the same FIFO.
  PacketRing restored{100};
  core::ckpt::Io l{a.data()};
  restored.checkpoint(l);
  ASSERT_TRUE(l.done());
  ASSERT_EQ(restored.size(), 45u);
  for (std::uint64_t i = 25; i < 70; ++i) {
    EXPECT_EQ(restored.front().uid, i);
    restored.pop_front();
  }
}

TEST(Ring, RestoreRejectsMoreThanTheCap) {
  PacketRing big{10};
  for (std::uint64_t i = 0; i < 10; ++i) big.push_back(packet(i));
  core::ckpt::Io s;
  big.checkpoint(s);
  PacketRing small{4};
  core::ckpt::Io l{s.data()};
  small.checkpoint(l);
  EXPECT_FALSE(l.ok());
  EXPECT_TRUE(small.empty());
}

}  // namespace
}  // namespace xmp::net
