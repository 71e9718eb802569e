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
  if (cache_valid_) {
    const Slot& s = slot_at(cache_.slot);
    if (s.owner == cache_.id && s.cohort == cohort.value) cache_valid_ = false;
  }
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
  // calendar record is dropped lazily when it surfaces).
  s.destroy(s.storage);
  s.owner = 0;
  free_slots_.push_back(id.slot);
  if (cache_valid_ && cache_.id == id.value) cache_valid_ = false;
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

void EventQueue::cleanup_top(std::vector<Rec>& bucket) {
  while (!bucket.empty() && rec_dead(bucket.front())) {
    collect_dead(bucket.front());
    std::pop_heap(bucket.begin(), bucket.end(), RecAfter{});
    bucket.pop_back();
    --recs_;
  }
}

void EventQueue::insert_rec(const Rec& rec) {
  if (recs_ + 1 > 2 * buckets_.size() && buckets_.size() < kMaxBuckets) {
    rebuild_buckets(buckets_.size() * 2);
  }
  const std::size_t b = static_cast<std::size_t>(tick_of(rec.when)) & bucket_mask_;
  auto& bucket = buckets_[b];
  bucket.push_back(rec);
  std::push_heap(bucket.begin(), bucket.end(), RecAfter{});
  ++recs_;
  // The cached minimum survives only a record that fires after it. A
  // reserved number can be smaller than the cached one at the same
  // instant, so comparing timestamps alone is not enough.
  if (cache_valid_ && RecAfter{}(cache_, rec)) {
    cache_ = rec;
    cache_bucket_ = b;
  }
}

void EventQueue::rebuild_buckets(std::size_t new_count) {
  std::vector<std::vector<Rec>> fresh(new_count);
  const std::size_t mask = new_count - 1;
  for (auto& bucket : buckets_) {
    for (const Rec& r : bucket) {
      if (rec_dead(r)) {  // resize doubles as a purge of retired entries
        collect_dead(r);
        --recs_;
        continue;
      }
      fresh[static_cast<std::size_t>(tick_of(r.when)) & mask].push_back(r);
    }
  }
  for (auto& bucket : fresh) std::make_heap(bucket.begin(), bucket.end(), RecAfter{});
  buckets_ = std::move(fresh);
  bucket_mask_ = mask;
  cache_valid_ = false;
}

const EventQueue::Rec* EventQueue::peek() {
  if (cache_valid_) return &cache_;
  if (recs_ == 0) return nullptr;
  // Scan one year of buckets starting at the current instant's tick. Every
  // record satisfies when >= now_, so nothing can hide behind the start.
  const std::uint64_t start = tick_of(now_);
  const std::size_t nb = buckets_.size();
  for (std::size_t i = 0; i < nb; ++i) {
    const std::uint64_t t = start + i;
    auto& bucket = buckets_[static_cast<std::size_t>(t) & bucket_mask_];
    cleanup_top(bucket);
    if (recs_ == 0) return nullptr;
    if (!bucket.empty() && tick_of(bucket.front().when) == t) {
      cache_ = bucket.front();
      cache_bucket_ = static_cast<std::size_t>(t) & bucket_mask_;
      cache_valid_ = true;
      return &cache_;
    }
  }
  // Nothing within a year of now: fall back to the global minimum (rare —
  // an idle queue holding only far-horizon soft-state timers).
  const Rec* best = nullptr;
  std::size_t best_bucket = 0;
  for (std::size_t b = 0; b < nb; ++b) {
    cleanup_top(buckets_[b]);
    if (buckets_[b].empty()) continue;
    const Rec& top = buckets_[b].front();
    if (best == nullptr || RecAfter{}(*best, top)) {
      best = &top;
      best_bucket = b;
    }
  }
  if (best == nullptr) return nullptr;
  cache_ = *best;
  cache_bucket_ = best_bucket;
  cache_valid_ = true;
  return &cache_;
}

void EventQueue::pop_front() {
  assert(cache_valid_);
  auto& bucket = buckets_[cache_bucket_];
  std::pop_heap(bucket.begin(), bucket.end(), RecAfter{});
  bucket.pop_back();
  --recs_;
  cache_valid_ = false;
  if (recs_ < buckets_.size() / 8 && buckets_.size() > kMinBuckets) {
    rebuild_buckets(buckets_.size() / 2);
  }
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
  // the running closure even though they may acquire fresh slots.
  s.owner = 0;
  --live_count_;
  --cohort_ref(s.cohort).pending;
  ++fired_;
  s.invoke(s.storage);
  s.destroy(s.storage);
  free_slots_.push_back(r.slot);
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
        break;
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
