#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace xmp::sim {
namespace {

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(Time::microseconds(30), [&] { order.push_back(3); });
  s.schedule_at(Time::microseconds(10), [&] { order.push_back(1); });
  s.schedule_at(Time::microseconds(20), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), Time::microseconds(30));
}

TEST(Scheduler, FifoAmongEqualTimestamps) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(Time::microseconds(5), [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Scheduler, ScheduleInIsRelative) {
  Scheduler s;
  Time fired = Time::zero();
  s.schedule_at(Time::microseconds(100), [&] {
    s.schedule_in(Time::microseconds(50), [&] { fired = s.now(); });
  });
  s.run();
  EXPECT_EQ(fired, Time::microseconds(150));
}

TEST(Scheduler, CancelPreventsDispatch) {
  Scheduler s;
  bool ran = false;
  const EventId id = s.schedule_at(Time::microseconds(10), [&] { ran = true; });
  s.cancel(id);
  s.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(s.dispatched(), 0u);
}

TEST(Scheduler, CancelInvalidIdIsNoop) {
  Scheduler s;
  s.cancel(kInvalidEventId);
  s.cancel(12345);
  bool ran = false;
  s.schedule_at(Time::microseconds(1), [&] { ran = true; });
  s.run();
  EXPECT_TRUE(ran);
}

TEST(Scheduler, StopHaltsRun) {
  Scheduler s;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    s.schedule_at(Time::microseconds(i), [&] {
      if (++count == 3) s.stop();
    });
  }
  s.run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(s.pending(), 7u);
}

TEST(Scheduler, RunUntilAdvancesClockEvenWhenIdle) {
  Scheduler s;
  s.run_until(Time::milliseconds(5));
  EXPECT_EQ(s.now(), Time::milliseconds(5));
}

TEST(Scheduler, RunUntilProcessesOnlyDueEvents) {
  Scheduler s;
  int fired = 0;
  s.schedule_at(Time::microseconds(10), [&] { ++fired; });
  s.schedule_at(Time::microseconds(20), [&] { ++fired; });
  s.schedule_at(Time::microseconds(30), [&] { ++fired; });
  s.run_until(Time::microseconds(20));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), Time::microseconds(20));
  s.run();
  EXPECT_EQ(fired, 3);
}

TEST(Scheduler, EventsCanScheduleMoreEvents) {
  Scheduler s;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) s.schedule_in(Time::nanoseconds(1), chain);
  };
  s.schedule_at(Time::zero(), chain);
  s.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(s.dispatched(), 100u);
}

TEST(Scheduler, PendingCountsLiveEventsOnly) {
  Scheduler s;
  const EventId a = s.schedule_at(Time::microseconds(1), [] {});
  s.schedule_at(Time::microseconds(2), [] {});
  EXPECT_EQ(s.pending(), 2u);
  s.cancel(a);
  EXPECT_EQ(s.pending(), 1u);
}

TEST(Scheduler, CancelThenRescheduleReusesSlotSafely) {
  Scheduler s;
  bool stale_ran = false;
  bool fresh_ran = false;
  const EventId stale = s.schedule_at(Time::microseconds(10), [&] { stale_ran = true; });
  s.cancel(stale);
  // The freed slot is recycled for the next schedule; the stale id must not
  // alias it.
  const EventId fresh = s.schedule_at(Time::microseconds(20), [&] { fresh_ran = true; });
  s.cancel(stale);  // stale id, possibly same slot: must be a no-op
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_FALSE(stale_ran);
  EXPECT_TRUE(fresh_ran);
  EXPECT_NE(stale, fresh);
}

TEST(Scheduler, StaleIdAfterDispatchIsNoop) {
  Scheduler s;
  int fired = 0;
  const EventId a = s.schedule_at(Time::microseconds(1), [&] { ++fired; });
  s.run();
  // `a` was dispatched; its slot may now host a new event.
  bool ran = false;
  s.schedule_at(Time::microseconds(2), [&] { ran = true; });
  s.cancel(a);
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(ran);
}

TEST(Scheduler, StopAtHorizonFreezesClock) {
  Scheduler s;
  s.schedule_at(Time::microseconds(10), [&] { s.stop(); });
  s.schedule_at(Time::microseconds(20), [] {});
  s.run_until(Time::microseconds(50));
  // stop() freezes the clock at the stopping event, not the horizon.
  EXPECT_EQ(s.now(), Time::microseconds(10));
  EXPECT_EQ(s.pending(), 1u);
  // Resuming is allowed and picks up the remaining event.
  s.run_until(Time::microseconds(50));
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(s.now(), Time::microseconds(50));
}

TEST(Scheduler, CancelledHeadDoesNotBlockRunUntil) {
  Scheduler s;
  bool ran = false;
  const EventId a = s.schedule_at(Time::microseconds(1), [&] { ran = true; });
  s.cancel(a);
  s.schedule_at(Time::microseconds(2), [&] { ran = true; });
  s.run_until(Time::microseconds(3));
  EXPECT_TRUE(ran);
}

// --- deferred arming: reserve_seq / arm_at / passed ------------------------

TEST(Scheduler, ReservedSeqArmedLaterKeepsItsPlace) {
  Scheduler s;
  std::vector<int> order;
  const std::uint64_t seq = s.reserve_seq();  // reserved before B exists
  s.schedule_at(Time::microseconds(10), [&] { order.push_back(2); });
  // Armed only at t=5, i.e. after B was scheduled, but under the earlier
  // reservation: it still wins the t=10 tie.
  s.schedule_at(Time::microseconds(5), [&] {
    s.arm_at(Time::microseconds(10), seq, [&] { order.push_back(1); });
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Scheduler, UnarmedReservationNeverRuns) {
  Scheduler s;
  (void)s.reserve_seq();
  s.schedule_at(Time::microseconds(3), [] {});
  s.run();
  EXPECT_EQ(s.dispatched(), 1u);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Scheduler, PassedAfterQuietRunUntil) {
  Scheduler s;
  const std::uint64_t early = s.reserve_seq();
  s.schedule_at(Time::microseconds(4), [] {});
  s.run_until(Time::microseconds(10));
  // Every key handed out so far, at or before the horizon, has passed...
  EXPECT_TRUE(s.passed(Time::microseconds(10), early));
  EXPECT_TRUE(s.passed(Time::microseconds(10), s.next_seq() - 1));
  // ...while keys handed out from now on, or later in time, have not.
  EXPECT_FALSE(s.passed(Time::microseconds(10), s.next_seq()));
  EXPECT_FALSE(s.passed(Time::microseconds(11), 0));
}

TEST(Scheduler, PassedAfterStoppedRunUntilIsTheLastEvent) {
  Scheduler s;
  const std::uint64_t later = s.reserve_seq();
  s.schedule_at(Time::microseconds(4), [&] { s.stop(); });
  s.run_until(Time::microseconds(10));
  EXPECT_EQ(s.now(), Time::microseconds(4));
  EXPECT_FALSE(s.passed(Time::microseconds(5), later));
  EXPECT_TRUE(s.passed(Time::microseconds(3), later));
}

TEST(Scheduler, PassedAcrossRunBeforeAdvanceAndStepOne) {
  Scheduler s;
  s.schedule_at(Time::microseconds(10), [] {});
  const std::uint64_t mid = s.reserve_seq();  // would-be event at t=15
  s.schedule_at(Time::microseconds(20), [] {});
  const std::uint64_t at20 = s.next_seq() - 1;
  const std::uint64_t after20 = s.reserve_seq();  // would-be event at t=20

  s.run_before(Time::microseconds(20));
  EXPECT_EQ(s.now(), Time::microseconds(10));
  EXPECT_FALSE(s.passed(Time::microseconds(15), mid));

  s.advance_clock_to(Time::microseconds(20));
  EXPECT_TRUE(s.passed(Time::microseconds(15), mid));  // strictly before the clock
  EXPECT_FALSE(s.passed(Time::microseconds(20), at20));  // nothing at t=20 ran yet

  ASSERT_TRUE(s.step_one());
  EXPECT_TRUE(s.passed(Time::microseconds(20), at20));
  EXPECT_FALSE(s.passed(Time::microseconds(20), after20));
  // Aligning on the current instant must not forget what already ran.
  s.advance_clock_to(Time::microseconds(20));
  EXPECT_TRUE(s.passed(Time::microseconds(20), at20));
}

TEST(Scheduler, PassedAfterRestoreClock) {
  Scheduler s;
  s.restore_clock(Time::microseconds(50), 100, 7);
  EXPECT_TRUE(s.passed(Time::microseconds(49), 99));
  EXPECT_TRUE(s.passed(Time::microseconds(50), 0));
  EXPECT_FALSE(s.passed(Time::microseconds(50), 1));
  // A checkpointed key at the restored instant re-arms and runs.
  bool ran = false;
  s.arm_at(Time::microseconds(50), 42, [&] { ran = true; });
  s.run();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(s.passed(Time::microseconds(50), 42));
}

}  // namespace
}  // namespace xmp::sim
