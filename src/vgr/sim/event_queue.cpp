#include "vgr/sim/event_queue.hpp"

#include <algorithm>
#include <cassert>

namespace vgr::sim {

EventQueue::~EventQueue() {
  // A non-empty queue at teardown still owns callables (live or retired-
  // but-uncollected); destroy them so captured resources are released.
  for (std::uint32_t i = 0; i < slot_high_water_; ++i) {
    Slot& s = slot_at(i);
    if (s.owner != 0) s.destroy(s.storage);
  }
}

std::uint32_t EventQueue::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t idx = free_slots_.back();
    free_slots_.pop_back();
    return idx;
  }
  const std::uint32_t idx = slot_high_water_++;
  if ((idx & (kChunkSlots - 1U)) == 0) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
  }
  return idx;
}

CohortId EventQueue::make_cohort() {
  const auto idx = static_cast<std::uint32_t>(cohorts_.size());
  cohorts_.push_back(Cohort{});
  return CohortId{idx};
}

std::size_t EventQueue::cancel_cohort(CohortId cohort) {
  assert(cohort.value != 0 && "the default cohort cannot be retired");
  if (cohort.value == 0 || cohort.value >= cohorts_.size()) return 0;
  Cohort& c = cohorts_[cohort.value];
  const std::size_t retired = c.pending;
  live_count_ -= retired;
  c.pending = 0;
  ++c.gen;
  return retired;
}

bool EventQueue::cancel(EventId id) {
  if (id.value == 0 || id.slot >= slot_high_water_) return false;
  Slot& s = slot_at(id.slot);
  if (s.owner != id.value) return false;  // already fired or cancelled
  const bool was_live = s.gen == cohort_ref(s.cohort).gen;
  if (was_live) {
    --live_count_;
    --cohort_ref(s.cohort).pending;
  }
  // Either way the slot's callable is done for; collect it eagerly (the
  // heap record is dropped lazily when it reaches the top).
  s.destroy(s.storage);
  s.owner = 0;
  free_slots_.push_back(id.slot);
  return was_live;
}

bool EventQueue::pending(EventId id) const {
  if (id.value == 0 || id.slot >= slot_high_water_) return false;
  const Slot& s = slot_at(id.slot);
  return s.owner == id.value && s.gen == cohort_ref(s.cohort).gen;
}

bool EventQueue::rec_dead(const Rec& r) const {
  const Slot& s = slot_at(r.slot);
  if (s.owner != r.id) return true;  // fired, cancelled, or slot reused
  return s.gen != cohort_ref(s.cohort).gen;
}

void EventQueue::collect_dead(const Rec& r) {
  Slot& s = slot_at(r.slot);
  if (s.owner == r.id) {
    // Cohort-retired: the callable is still in place.
    s.destroy(s.storage);
    s.owner = 0;
    free_slots_.push_back(r.slot);
  }
}

const EventQueue::Rec* EventQueue::peek() {
  while (!heap_.empty() && rec_dead(heap_.front())) {
    collect_dead(heap_.front());
    pop_front();
  }
  return heap_.empty() ? nullptr : &heap_.front();
}

void EventQueue::pop_front() {
  std::pop_heap(heap_.begin(), heap_.end(), RecAfter{});
  heap_.pop_back();
}

bool EventQueue::step() {
  const Rec* top = peek();
  if (top == nullptr) return false;
  const Rec r = *top;
  pop_front();
  Slot& s = slot_at(r.slot);
  assert(r.when >= now_);
  now_ = r.when;
  // Mark fired before invoking: a callback cancelling or re-querying its
  // own id must see "already fired", and the slot is only recycled after
  // the callable has been destroyed, so reentrant schedules cannot clobber
  // the running closure even though they may acquire fresh slots. The
  // guard destroys and recycles it also when the callable throws.
  s.owner = 0;
  --live_count_;
  --cohort_ref(s.cohort).pending;
  ++fired_;
  struct Release {
    EventQueue& q;
    std::uint32_t idx;
    ~Release() {
      Slot& done = q.slot_at(idx);
      done.destroy(done.storage);
      q.free_slots_.push_back(idx);
    }
  } release{*this, r.slot};
  s.invoke(s.storage);
  return true;
}

bool EventQueue::run_in_place(TimePoint when, std::uint64_t id) {
  assert(id != 0 && id < next_id_ && "run_in_place needs a number from reserve_ids");
  if (!in_run_ || when > run_horizon_) return false;
  const Rec* top = peek();
  if (top != nullptr && !RecAfter{}(*top, Rec{when, id, 0})) return false;
  // The check run_until makes before every event, at the same fired_ count.
  if ((budget_events_end_ != 0 || has_wall_deadline_) && budget_tripped() != BudgetTrip::kNone) {
    return false;
  }
  assert(when >= now_);
  now_ = when;
  ++fired_;
  return true;
}

void EventQueue::run_until(TimePoint until) {
  // Run mode ends with this call, also when a callback throws out of it.
  struct RunMode {
    EventQueue& q;
    bool was_in_run;
    TimePoint was_horizon;
    ~RunMode() {
      q.in_run_ = was_in_run;
      q.run_horizon_ = was_horizon;
    }
  } mode{*this, in_run_, run_horizon_};
  in_run_ = true;
  run_horizon_ = until;
  const bool budgeted = budget_events_end_ != 0 || has_wall_deadline_;
  for (;;) {
    // peek() surfaces only live events, so a cancelled event sitting at
    // the boundary cannot admit a later one past `until`.
    const Rec* top = peek();
    if (top == nullptr || top->when > until) break;
    if (budgeted) {
      const BudgetTrip trip = budget_tripped();
      if (trip != BudgetTrip::kNone) {
        budget_exceeded_ = true;
        budget_trip_ = trip;
        // Time stays at the last fired event: every event left pending
        // comes at or after it.
        return;
      }
    }
    step();
  }
  if (now_ < until) now_ = until;
}

void EventQueue::set_run_budget(std::uint64_t max_events, double wall_seconds) {
  budget_exceeded_ = false;
  budget_trip_ = BudgetTrip::kNone;
  budget_events_end_ = max_events == 0 ? 0 : fired_ + max_events;
  has_wall_deadline_ = wall_seconds > 0.0;
  if (has_wall_deadline_) {
    wall_deadline_ = std::chrono::steady_clock::now() +
                     std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                         std::chrono::duration<double>(wall_seconds));
  }
}

BudgetTrip EventQueue::budget_tripped() {
  if (budget_events_end_ != 0 && fired_ >= budget_events_end_) return BudgetTrip::kEvents;
  // The wall clock is only consulted every 4096 events: a syscall per event
  // would dominate the hot loop, and watchdog precision of a few
  // milliseconds is ample for budgets measured in seconds.
  if (has_wall_deadline_ && (fired_ & 0xFFFU) == 0 &&
      std::chrono::steady_clock::now() >= wall_deadline_) {
    return BudgetTrip::kWall;
  }
  return BudgetTrip::kNone;
}

}  // namespace vgr::sim
