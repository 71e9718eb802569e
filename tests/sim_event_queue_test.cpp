#include "vgr/sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace vgr::sim {
namespace {

using namespace vgr::sim::literals;

TEST(EventQueue, StartsAtOrigin) {
  EventQueue q;
  EXPECT_EQ(q.now(), TimePoint::origin());
  EXPECT_EQ(q.pending_count(), 0u);
}

TEST(EventQueue, FiresInTimestampOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_in(3_s, [&] { order.push_back(3); });
  q.schedule_in(1_s, [&] { order.push_back(1); });
  q.schedule_in(2_s, [&] { order.push_back(2); });
  q.run_until(TimePoint::at(10_s));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), TimePoint::at(10_s));
}

TEST(EventQueue, EqualTimestampsAreFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(TimePoint::at(1_s), [&order, i] { order.push_back(i); });
  }
  q.run_until(TimePoint::at(1_s));
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NowAdvancesToEventTime) {
  EventQueue q;
  TimePoint seen;
  q.schedule_in(5_s, [&] { seen = q.now(); });
  q.run_until(TimePoint::at(30_s));
  EXPECT_EQ(seen, TimePoint::at(5_s));
}

TEST(EventQueue, RunUntilStopsAtBoundaryInclusive) {
  EventQueue q;
  int fired = 0;
  q.schedule_in(5_s, [&] { ++fired; });
  q.schedule_in(5_s + Duration::nanos(1), [&] { ++fired; });
  q.run_until(TimePoint::at(5_s));
  EXPECT_EQ(fired, 1);
  q.run_until(TimePoint::at(6_s));
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  int fired = 0;
  const EventId id = q.schedule_in(1_s, [&] { ++fired; });
  EXPECT_TRUE(q.pending(id));
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.pending(id));
  q.run_until(TimePoint::at(2_s));
  EXPECT_EQ(fired, 0);
}

TEST(EventQueue, CancelTwiceIsFalse) {
  EventQueue q;
  const EventId id = q.schedule_in(1_s, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterFireIsFalse) {
  EventQueue q;
  const EventId id = q.schedule_in(1_s, [] {});
  q.run_until(TimePoint::at(2_s));
  EXPECT_FALSE(q.pending(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelDefaultIdIsNoop) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(EventId{}));
  EXPECT_FALSE(q.pending(EventId{}));
}

TEST(EventQueue, CallbackMaySchedule) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_in(1_s, [&] {
    order.push_back(1);
    q.schedule_in(1_s, [&] { order.push_back(2); });
  });
  q.run_until(TimePoint::at(3_s));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, CallbackMayScheduleAtCurrentInstant) {
  EventQueue q;
  int fired = 0;
  q.schedule_in(1_s, [&] { q.schedule_in(Duration::zero(), [&] { ++fired; }); });
  q.run_until(TimePoint::at(1_s));
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CallbackMayCancelLaterEvent) {
  EventQueue q;
  int fired = 0;
  EventId victim = q.schedule_in(2_s, [&] { ++fired; });
  q.schedule_in(1_s, [&] { q.cancel(victim); });
  q.run_until(TimePoint::at(3_s));
  EXPECT_EQ(fired, 0);
}

TEST(EventQueue, StepExecutesExactlyOne) {
  EventQueue q;
  int fired = 0;
  q.schedule_in(1_s, [&] { ++fired; });
  q.schedule_in(2_s, [&] { ++fired; });
  EXPECT_TRUE(q.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(q.step());
}

TEST(EventQueue, PendingCountExcludesCancelled) {
  EventQueue q;
  const EventId a = q.schedule_in(1_s, [] {});
  q.schedule_in(2_s, [] {});
  EXPECT_EQ(q.pending_count(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.pending_count(), 1u);
}

TEST(EventQueue, FiredCountAccumulates) {
  EventQueue q;
  for (int i = 0; i < 5; ++i) q.schedule_in(Duration::millis(i + 1), [] {});
  q.run_until(TimePoint::at(1_s));
  EXPECT_EQ(q.fired_count(), 5u);
}

TEST(EventQueue, CancelledBoundaryEventDoesNotAdmitLaterOnes) {
  // Regression: a cancelled event at the run_until boundary must not let
  // the next live event (scheduled far later) fire and jump the clock.
  EventQueue q;
  int fired = 0;
  const EventId boundary = q.schedule_in(1_s, [&] { ++fired; });
  q.schedule_in(10_s, [&] { ++fired; });
  q.cancel(boundary);
  q.run_until(TimePoint::at(1_s));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(q.now(), TimePoint::at(1_s));  // clock does not leap to 10 s
  q.run_until(TimePoint::at(20_s));
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, RescheduleChainStaysBounded) {
  // Cancel + reschedule in a fine-grained run loop (the beacon-suppression
  // pattern): time advances in the requested increments only.
  EventQueue q;
  EventId beacon = q.schedule_in(3_s, [] {});
  double prev = 0.0;
  for (int i = 0; i < 500; ++i) {
    if (i % 10 == 0) {
      q.cancel(beacon);
      beacon = q.schedule_in(3_s, [] {});
    }
    q.run_until(q.now() + 10_ms);
    const double t = q.now().to_seconds();
    EXPECT_NEAR(t - prev, 0.01, 1e-9);
    prev = t;
  }
}

TEST(EventQueue, ManyEventsStressOrdering) {
  EventQueue q;
  std::vector<std::int64_t> seen;
  for (int i = 999; i >= 0; --i) {
    q.schedule_at(TimePoint::at(Duration::millis(i % 100)),
                  [&seen, &q] { seen.push_back(q.now().count()); });
  }
  q.run_until(TimePoint::at(1_s));
  ASSERT_EQ(seen.size(), 1000u);
  for (std::size_t i = 1; i < seen.size(); ++i) EXPECT_LE(seen[i - 1], seen[i]);
}

// --- Reserved event numbers -------------------------------------------------

TEST(EventQueue, ReservedNumbersFireInNumberOrderAmongEqualTimestamps) {
  // Reserved, then scheduled in reverse, then followed by a plain event
  // scheduled earlier than any of them: number order decides the ties.
  EventQueue q;
  std::vector<int> order;
  const std::uint64_t first = q.reserve_ids(3);
  const TimePoint t = TimePoint::at(1_s);
  q.schedule_at(t, [&] { order.push_back(3); });
  for (int i = 2; i >= 0; --i) {
    q.schedule_reserved(t, first + static_cast<std::uint64_t>(i),
                        [&order, i] { order.push_back(i); });
  }
  q.schedule_at(t, [&] { order.push_back(4); });
  q.run_until(TimePoint::at(2_s));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(q.fired_count(), 5u);
}

TEST(EventQueue, ReservedNumberScheduledMidRunKeepsItsPlace) {
  // A callback at time t spends a number reserved before another event at
  // t was scheduled: the reserved event still fires first.
  EventQueue q;
  std::vector<int> order;
  const std::uint64_t reserved = q.reserve_ids(1);
  const TimePoint t = TimePoint::at(1_s);
  q.schedule_at(t, [&] {
    order.push_back(0);
    q.schedule_reserved(t, reserved, [&] { order.push_back(1); });
  });
  q.schedule_at(t, [&] { order.push_back(2); });
  q.run_until(TimePoint::at(2_s));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, ReservedNumberDisplacesACachedMinimumAtTheSameInstant) {
  // run_until(t - 1 ns) leaves the plain event at t cached as the queue's
  // minimum. A reserved number at t is smaller than the cached one, so it
  // must displace the cache although the timestamps are equal.
  EventQueue q;
  std::vector<int> order;
  const std::uint64_t reserved = q.reserve_ids(1);
  const TimePoint t = TimePoint::at(1_s);
  q.schedule_at(t, [&] { order.push_back(1); });
  q.run_until(t - Duration::nanos(1));
  q.schedule_reserved(t, reserved, [&] { order.push_back(0); });
  q.run_until(t);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

// --- Per-run watchdog (the parallel harness's circuit breaker) ------------

TEST(EventQueue, RunBudgetStopsAfterExactEventCount) {
  EventQueue q;
  int fired = 0;
  for (int i = 0; i < 50; ++i) q.schedule_in(Duration::millis(i + 1), [&] { ++fired; });
  q.set_run_budget(/*max_events=*/10, /*wall_seconds=*/0.0);
  q.run_until(TimePoint::at(1_s));
  EXPECT_TRUE(q.budget_exceeded());
  EXPECT_EQ(fired, 10);  // deterministic: exactly the budget, no more
  // Time still advances to the horizon even on an early stop.
  EXPECT_EQ(q.now(), TimePoint::at(1_s));
}

TEST(EventQueue, ZeroBudgetsDisableTheWatchdog) {
  EventQueue q;
  int fired = 0;
  for (int i = 0; i < 20; ++i) q.schedule_in(Duration::millis(i + 1), [&] { ++fired; });
  q.set_run_budget(0, 0.0);
  q.run_until(TimePoint::at(1_s));
  EXPECT_FALSE(q.budget_exceeded());
  EXPECT_EQ(fired, 20);
}

TEST(EventQueue, BudgetCountsOnlyEventsAfterItWasSet) {
  EventQueue q;
  int fired = 0;
  for (int i = 0; i < 20; ++i) q.schedule_in(Duration::millis(i + 1), [&] { ++fired; });
  q.run_until(TimePoint::at(Duration::millis(5)));  // 5 events, no budget
  q.set_run_budget(10, 0.0);
  q.run_until(TimePoint::at(1_s));
  EXPECT_TRUE(q.budget_exceeded());
  EXPECT_EQ(fired, 15);  // 5 unbudgeted + 10 budgeted
}

TEST(EventQueue, SettingANewBudgetResetsExceeded) {
  EventQueue q;
  for (int i = 0; i < 5; ++i) q.schedule_in(Duration::millis(i + 1), [] {});
  q.set_run_budget(2, 0.0);
  q.run_until(TimePoint::at(1_s));
  ASSERT_TRUE(q.budget_exceeded());
  q.set_run_budget(0, 0.0);
  EXPECT_FALSE(q.budget_exceeded());
  q.run_until(TimePoint::at(2_s));
  EXPECT_FALSE(q.budget_exceeded());
}

TEST(EventQueue, WallClockBudgetTripsAHungRun) {
  // A self-rescheduling event chain never drains; a tiny wall budget must
  // break the loop. (Host-dependent by nature — assert only that it stops.)
  EventQueue q;
  std::function<void()> loop = [&] { q.schedule_in(Duration::millis(1), loop); };
  q.schedule_in(Duration::millis(1), loop);
  q.set_run_budget(0, 0.05);
  q.run_until(TimePoint::at(Duration::seconds(1e9)));
  EXPECT_TRUE(q.budget_exceeded());
}

TEST(EventQueue, EventBudgetTripReportsEventsCause) {
  EventQueue q;
  for (int i = 0; i < 20; ++i) q.schedule_in(Duration::millis(i + 1), [] {});
  EXPECT_EQ(q.budget_trip(), BudgetTrip::kNone);
  q.set_run_budget(5, 0.0);
  q.run_until(TimePoint::at(1_s));
  ASSERT_TRUE(q.budget_exceeded());
  EXPECT_EQ(q.budget_trip(), BudgetTrip::kEvents);
}

TEST(EventQueue, WallBudgetTripReportsWallCause) {
  EventQueue q;
  std::function<void()> loop = [&] { q.schedule_in(Duration::millis(1), loop); };
  q.schedule_in(Duration::millis(1), loop);
  q.set_run_budget(0, 0.05);
  q.run_until(TimePoint::at(Duration::seconds(1e9)));
  ASSERT_TRUE(q.budget_exceeded());
  EXPECT_EQ(q.budget_trip(), BudgetTrip::kWall);
}

TEST(EventQueue, SettingANewBudgetResetsTripCause) {
  EventQueue q;
  for (int i = 0; i < 5; ++i) q.schedule_in(Duration::millis(i + 1), [] {});
  q.set_run_budget(2, 0.0);
  q.run_until(TimePoint::at(1_s));
  ASSERT_EQ(q.budget_trip(), BudgetTrip::kEvents);
  q.set_run_budget(0, 0.0);
  EXPECT_EQ(q.budget_trip(), BudgetTrip::kNone);
  q.run_until(TimePoint::at(2_s));
  EXPECT_EQ(q.budget_trip(), BudgetTrip::kNone);
}

}  // namespace
}  // namespace vgr::sim
