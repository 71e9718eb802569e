#include "vgr/sim/event_queue.hpp"

#include "vgr/sim/random.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
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

// --- In-place runs of reserved events ---------------------------------------

/// A delivery cursor in miniature (phy::Medium's shape): `times.size()`
/// events under one reserved block, one apart in number. Each runs its item,
/// then the next one in place while the queue allows it, and files the first
/// one it does not. `order` records "<item>" for an item that was filed and
/// ran from the calendar, "<item>!" for one run in place.
struct Cursor {
  Cursor(EventQueue& queue, std::vector<TimePoint> at) : q{queue}, times{std::move(at)} {
    first = q.reserve_ids(times.size());
    file(0);
  }
  void file(std::size_t i) {
    q.schedule_reserved(times[i], first + i, [this, i] { run(i, false); });
  }
  void run(std::size_t i, bool in_place) {
    for (;;) {
      order.push_back(std::to_string(i) + (in_place ? "!" : ""));
      pending_seen.push_back(q.pending_count());
      if (on_item) on_item(i);
      if (++i == times.size()) return;
      if (!q.run_in_place(times[i], first + i)) {
        file(i);
        return;
      }
      in_place = true;
    }
  }
  EventQueue& q;
  std::vector<TimePoint> times;
  std::uint64_t first{0};
  std::vector<std::string> order;
  std::vector<std::size_t> pending_seen;
  std::function<void(std::size_t)> on_item;
};

std::vector<TimePoint> millis(std::initializer_list<int> ms) {
  std::vector<TimePoint> out;
  for (const int m : ms) out.push_back(TimePoint::at(Duration::millis(m)));
  return out;
}

TEST(EventQueue, RunInPlaceOnlyWhileTheReservedEventIsNext) {
  // Items 0-4 at 1, 1, 2, 3, 3 ms. A plain event numbered before the block
  // at 2 ms comes before item 2, and one numbered after it at 3 ms comes
  // after item 4; item 1 schedules another at 1 ms, numbered after the
  // block, which must wait for the flight's 1 ms items only.
  EventQueue q;
  std::vector<std::string> order;
  q.schedule_at(TimePoint::at(Duration::millis(2)), [&] { order.push_back("before"); });
  Cursor c{q, millis({1, 1, 2, 3, 3})};
  c.on_item = [&](std::size_t i) {
    order.push_back(c.order.back());
    if (i == 1) {
      q.schedule_at(TimePoint::at(Duration::millis(1)), [&] { order.push_back("scheduled"); });
    }
  };
  q.schedule_at(TimePoint::at(Duration::millis(3)), [&] { order.push_back("after"); });
  q.run_until(TimePoint::at(1_s));
  EXPECT_EQ(order, (std::vector<std::string>{"0", "1!", "scheduled", "before", "2", "3!", "4!",
                                             "after"}));
  EXPECT_EQ(q.fired_count(), 8u);
  // While an item runs in place its successor is not on the calendar.
  EXPECT_EQ(c.pending_seen, (std::vector<std::size_t>{2, 2, 1, 1, 1}));
  EXPECT_FALSE(q.run_in_place(TimePoint::at(2_s), q.reserve_ids(1)));  // outside run_until
}

TEST(EventQueue, StepFiresOneReservedEventAndFilesTheNext) {
  EventQueue q;
  Cursor c{q, millis({1, 1, 2})};
  ASSERT_TRUE(q.step());
  EXPECT_EQ(c.order, (std::vector<std::string>{"0"}));
  EXPECT_EQ(q.fired_count(), 1u);
  EXPECT_EQ(q.pending_count(), 1u);
  q.run_until(TimePoint::at(1_s));
  EXPECT_EQ(c.order, (std::vector<std::string>{"0", "1", "2!"}));
}

TEST(EventQueue, EventBudgetStopsInPlaceRunsAtTheExactCount) {
  // The horizon holds the whole flight, so only the budget stops it (and
  // time, which a stopped run still advances to the horizon, stays put).
  EventQueue q;
  Cursor c{q, millis({1, 1, 1, 1, 1, 1})};
  q.set_run_budget(/*max_events=*/4, /*wall_seconds=*/0.0);
  q.run_until(TimePoint::at(Duration::millis(1)));
  EXPECT_TRUE(q.budget_exceeded());
  EXPECT_EQ(c.order, (std::vector<std::string>{"0", "1!", "2!", "3!"}));
  EXPECT_EQ(q.fired_count(), 4u);
  EXPECT_EQ(q.pending_count(), 1u);  // item 4, filed
  q.set_run_budget(0, 0.0);
  q.run_until(TimePoint::at(2_s));
  EXPECT_EQ(c.order, (std::vector<std::string>{"0", "1!", "2!", "3!", "4", "5!"}));
  EXPECT_EQ(q.fired_count(), 6u);
}

TEST(EventQueue, HorizonInsideAFlightLeavesTheRestForTheNextRun) {
  EventQueue q;
  Cursor c{q, millis({1, 2, 2, 3, 4})};
  q.run_until(TimePoint::at(Duration::millis(2)));  // inclusive
  EXPECT_EQ(c.order, (std::vector<std::string>{"0", "1!", "2!"}));
  EXPECT_EQ(q.now(), TimePoint::at(Duration::millis(2)));
  EXPECT_EQ(q.pending_count(), 1u);
  q.run_until(TimePoint::at(1_s));
  EXPECT_EQ(c.order, (std::vector<std::string>{"0", "1!", "2!", "3", "4!"}));
}

TEST(EventQueue, ACallbackThatThrowsLeavesTheQueueOutOfRunMode) {
  EventQueue q;
  Cursor c{q, millis({1, 1, 1})};
  c.on_item = [](std::size_t i) {
    if (i == 1) throw std::runtime_error{"boom"};
  };
  EXPECT_THROW(q.run_until(TimePoint::at(1_s)), std::runtime_error);
  EXPECT_EQ(c.order, (std::vector<std::string>{"0", "1!"}));
  // No run is in progress, so nothing runs in place, and the queue still
  // runs what is filed: step() fires one event, run_until the rest.
  EXPECT_FALSE(q.run_in_place(TimePoint::at(2_s), q.reserve_ids(1)));
  Cursor d{q, millis({5, 5, 5})};
  ASSERT_TRUE(q.step());
  EXPECT_EQ(d.order, (std::vector<std::string>{"0"}));
  q.run_until(TimePoint::at(2_s));
  EXPECT_EQ(d.order, (std::vector<std::string>{"0", "1", "2!"}));
}

TEST(EventQueue, ACallbackThatThrowsIsDestroyedWithItsSlot) {
  auto held = std::make_shared<int>(0);
  {
    EventQueue q;
    q.schedule_in(1_ms, [held] {
      ++*held;
      throw std::runtime_error{"boom"};
    });
    EXPECT_EQ(held.use_count(), 2);
    EXPECT_THROW(q.run_until(TimePoint::at(1_s)), std::runtime_error);
    EXPECT_EQ(*held, 1);
    EXPECT_EQ(held.use_count(), 1);  // released on unwind, not at teardown
    // The recycled slot serves the next event.
    int fired = 0;
    q.schedule_in(1_ms, [&] { ++fired; });
    q.run_until(TimePoint::at(2_s));
    EXPECT_EQ(fired, 1);
  }
  EXPECT_EQ(held.use_count(), 1);
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
  // An early stop leaves time at the last fired event, not the horizon.
  EXPECT_EQ(q.now(), TimePoint::at(Duration::millis(10)));
}

TEST(EventQueue, StepAfterABudgetTripNeverMovesTimeBack) {
  EventQueue q;
  std::vector<TimePoint> seen;
  for (int i = 1; i <= 4; ++i) {
    q.schedule_at(TimePoint::at(Duration::millis(i)), [&] { seen.push_back(q.now()); });
  }
  q.set_run_budget(2, 0.0);
  q.run_until(TimePoint::at(1_s));
  ASSERT_TRUE(q.budget_exceeded());
  EXPECT_EQ(q.now(), TimePoint::at(Duration::millis(2)));
  ASSERT_TRUE(q.step());
  EXPECT_EQ(q.now(), TimePoint::at(Duration::millis(3)));
  q.set_run_budget(0, 0.0);
  q.run_until(TimePoint::at(1_s));
  EXPECT_EQ(q.now(), TimePoint::at(1_s));
  EXPECT_EQ(seen, millis({1, 2, 3, 4}));
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

// --- Differential check against a sorted reference ------------------------

/// Drives one queue through seeded random operations and, after each one,
/// compares it with a plain sorted set of live (time, number) pairs: fired
/// order, now(), pending_count() and pending(id) of every event issued. The
/// offsets span 1 ns to 100 s, so the queue sees dense bursts, idle spans
/// holding only far-future events, and cancelled or cohort-retired records
/// at its front. A fired event may schedule a child, at its own instant or
/// later, as a callback would.
class Differential {
 public:
  explicit Differential(std::uint64_t seed) : rng_{seed} {}

  void run(int ops) {
    for (int i = 0; i < ops; ++i) {
      // Alternate filling and draining so the pending set grows to hundreds
      // of events and empties again.
      const bool filling = (i / 1000) % 2 == 0;
      apply(filling);
      check();
      if (::testing::Test::HasFailure()) return;
    }
  }

 private:
  struct Plan {
    std::int64_t child_ns{-1};  ///< child's offset from its parent; -1 = none
    CohortId child_cohort{};
  };
  struct Ref {
    TimePoint when;
    CohortId cohort;
    bool live{true};
  };

  void apply(bool filling) {
    const double r = rng_.uniform();
    const double run_share = filling ? 0.08 : 0.35;
    if (r < run_share / 2) {
      const TimePoint until = q_.now() + Duration::nanos(offset_ns());
      q_.run_until(until);
      ref_run(until);
    } else if (r < run_share) {
      const bool fired = q_.step();
      EXPECT_EQ(fired, ref_step());
    } else if (r < run_share + 0.08) {
      cancel_one();
    } else if (r < run_share + 0.10) {
      reserve();
    } else if (r < run_share + 0.11) {
      if (cohorts_.size() < 6) cohorts_.push_back(q_.make_cohort());
    } else if (r < run_share + 0.12) {
      if (!cohorts_.empty()) {
        const CohortId c = cohorts_[index(cohorts_.size())];
        EXPECT_EQ(q_.cancel_cohort(c), ref_cancel_cohort(c));
      }
    } else if (r < run_share + 0.18 && !unspent_.empty()) {
      schedule_reserved();
    } else {
      schedule();
    }
  }

  void schedule_reserved() {
    const std::size_t pick = index(unspent_.size());
    const std::uint64_t number = unspent_[pick];
    unspent_.erase(unspent_.begin() + static_cast<std::ptrdiff_t>(pick));
    const TimePoint when = event_time();
    const Plan plan = draw_plan();
    const std::size_t k = ids_.size();
    ids_.push_back(q_.schedule_reserved(when, number, Fire{this, k}));
    EXPECT_EQ(ids_[k].value, number);
    plans_[number] = plan;
    ref_add(number, when, CohortId{});
  }

  void schedule() {
    const CohortId cohort =
        cohorts_.empty() || rng_.bernoulli(0.5) ? CohortId{} : cohorts_[index(cohorts_.size())];
    const TimePoint when = event_time();
    const Plan plan = draw_plan();
    const std::size_t k = ids_.size();
    EventId id;
    if (rng_.bernoulli(0.5)) {
      id = cohort.value == 0 ? q_.schedule_at(when, Fire{this, k})
                             : q_.schedule_at(when, cohort, Fire{this, k});
    } else {
      id = cohort.value == 0 ? q_.schedule_in(when - q_.now(), Fire{this, k})
                             : q_.schedule_in(when - q_.now(), cohort, Fire{this, k});
    }
    ids_.push_back(id);
    EXPECT_EQ(id.value, ref_next_);
    plans_[id.value] = plan;
    ref_add(ref_next_++, when, cohort);
  }

  void reserve() {
    const auto n = static_cast<std::uint64_t>(rng_.uniform_int(1, 8));
    const std::uint64_t first = q_.reserve_ids(n);
    EXPECT_EQ(first, ref_next_);
    for (std::uint64_t i = 0; i < n; ++i) unspent_.push_back(first + i);
    ref_next_ += n;
  }

  void cancel_one() {
    if (ids_.empty()) return;
    const EventId id = ids_[index(ids_.size())];
    const bool was_pending = q_.cancel(id);
    Ref& ref = refs_.at(id.value);
    EXPECT_EQ(was_pending, ref.live);
    ref_kill(id.value);
  }

  /// The callback of the k-th event issued.
  struct Fire {
    Differential* d;
    std::size_t k;
    void operator()() const { d->fire(k); }
  };

  /// A fired event records its number and may schedule its planned child.
  void fire(std::size_t k) {
    const std::uint64_t number = ids_[k].value;
    fired_.push_back(number);
    const Plan plan = plans_.at(number);
    if (plan.child_ns < 0) return;
    const Plan child_plan = draw_plan();
    const std::size_t child = ids_.size();
    const TimePoint when = q_.now() + Duration::nanos(plan.child_ns);
    ids_.push_back(plan.child_cohort.value == 0
                       ? q_.schedule_at(when, Fire{this, child})
                       : q_.schedule_at(when, plan.child_cohort, Fire{this, child}));
    plans_[ids_[child].value] = child_plan;
  }

  Plan draw_plan() {
    Plan plan;
    if (rng_.bernoulli(0.2)) {
      plan.child_ns = rng_.bernoulli(0.3) ? 0 : offset_ns();
      if (!cohorts_.empty() && rng_.bernoulli(0.5)) {
        plan.child_cohort = cohorts_[index(cohorts_.size())];
      }
    }
    return plan;
  }

  /// Log-uniform from 1 ns to 100 s.
  std::int64_t offset_ns() {
    return std::llround(std::exp(rng_.uniform(0.0, std::log(100e9))));
  }

  /// Now, the time of a live event (a tie on time), or an offset from now.
  TimePoint event_time() {
    const double r = rng_.uniform();
    if (r < 0.1) return q_.now();
    if (r < 0.2 && !live_.empty()) {
      auto it = live_.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(index(std::min<std::size_t>(live_.size(), 32))));
      return it->first;
    }
    return q_.now() + Duration::nanos(offset_ns());
  }

  std::size_t index(std::size_t n) {
    return static_cast<std::size_t>(rng_.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }

  // --- Reference: live events in a sorted set ---------------------------
  void ref_add(std::uint64_t number, TimePoint when, CohortId cohort) {
    refs_[number] = Ref{when, cohort, true};
    live_.emplace(when, number);
  }
  void ref_kill(std::uint64_t number) {
    Ref& ref = refs_.at(number);
    if (ref.live) live_.erase({ref.when, number});
    ref.live = false;
  }
  std::size_t ref_cancel_cohort(CohortId cohort) {
    std::size_t retired = 0;
    for (auto it = live_.begin(); it != live_.end();) {
      Ref& ref = refs_.at(it->second);
      if (ref.cohort == cohort) {
        ref.live = false;
        it = live_.erase(it);
        ++retired;
      } else {
        ++it;
      }
    }
    return retired;
  }
  void ref_fire_front() {
    const auto [when, number] = *live_.begin();
    ref_kill(number);
    ref_now_ = when;
    ref_fired_.push_back(number);
    const auto plan = plans_.find(number);
    if (plan != plans_.end() && plan->second.child_ns >= 0) {
      ref_add(ref_next_++, when + Duration::nanos(plan->second.child_ns),
              plan->second.child_cohort);
    }
  }
  bool ref_step() {
    if (live_.empty()) return false;
    ref_fire_front();
    return true;
  }
  void ref_run(TimePoint until) {
    while (!live_.empty() && live_.begin()->first <= until) ref_fire_front();
    if (ref_now_ < until) ref_now_ = until;
  }

  void check() {
    ASSERT_EQ(fired_, ref_fired_);
    ASSERT_EQ(q_.now(), ref_now_);
    ASSERT_EQ(q_.pending_count(), live_.size());
    for (const EventId id : ids_) {
      const auto ref = refs_.find(id.value);
      ASSERT_NE(ref, refs_.end());
      ASSERT_EQ(q_.pending(id), ref->second.live) << "event " << id.value;
    }
  }

  EventQueue q_;
  Rng rng_;
  std::vector<EventId> ids_;             ///< every event issued, by issue order
  std::map<std::uint64_t, Plan> plans_;  ///< by event number
  std::vector<std::uint64_t> unspent_;   ///< reserved numbers not scheduled yet
  std::vector<CohortId> cohorts_;
  std::vector<std::uint64_t> fired_;  ///< numbers in the order the queue fired them

  std::map<std::uint64_t, Ref> refs_;  ///< every number scheduled, by number
  std::set<std::pair<TimePoint, std::uint64_t>> live_;
  TimePoint ref_now_{};
  std::uint64_t ref_next_{1};
  std::vector<std::uint64_t> ref_fired_;
};

TEST(EventQueueDifferential, MatchesASortedReferenceUnderRandomOperations) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Differential{seed}.run(4000);
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace vgr::sim
