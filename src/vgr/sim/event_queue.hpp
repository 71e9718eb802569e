#pragma once

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "vgr/sim/time.hpp"

namespace vgr::sim {

/// Handle for a scheduled event; used to cancel timers (e.g. a CBF
/// contention timer that is stopped when a duplicate packet arrives).
/// `value` is the dense event number (also the FIFO tiebreaker among equal
/// timestamps); `slot` locates the callback slab slot so cancel/pending are
/// O(1) array lookups instead of bitset probes.
struct EventId {
  std::uint64_t value{0};
  std::uint32_t slot{0};
  friend bool operator==(EventId, EventId) = default;
};

/// Handle for a cancellation cohort (see EventQueue::make_cohort). Value 0
/// is the implicit default cohort that is never retired.
struct CohortId {
  std::uint32_t value{0};
  friend bool operator==(CohortId, CohortId) = default;
};

/// Which bound of the per-run budget stopped the last run_until (kNone when
/// the run reached its horizon). The event-count trip is deterministic; a
/// wall-clock trip is host-dependent, which is why sweeps report the two
/// separately (AbResult::timed_out_events / timed_out_wall).
enum class BudgetTrip : std::uint8_t { kNone, kEvents, kWall };

/// Discrete-event scheduler.
///
/// Events at equal timestamps fire in event-number order, which is
/// scheduling order (FIFO) unless numbers were reserved ahead of time (see
/// reserve_ids). This keeps runs deterministic. Callbacks may schedule or
/// cancel further events, including at the current instant.
///
/// Memory plane (ROADMAP item 4): callbacks live in fixed-size slots of a
/// slab allocator (no per-schedule heap allocation as long as the callable
/// fits `kInlineCallbackBytes`), and the pending set is one binary min-heap
/// of 24-byte (time, event number, slot) records. The delivery cursor files
/// at most one record per frame in flight, so the heap stays a few thousand
/// records deep even on the densest workload. Events can be scheduled into
/// a *cohort*; `cancel_cohort` retires every pending member in O(1) by
/// bumping the cohort's generation counter, which is how CBF contention
/// cancellation and router teardown avoid tombstoning thousands of timers
/// one by one. A cancelled or retired record stays in the heap until it
/// reaches the top and is dropped there. Determinism is unaffected: a
/// retired event is skipped exactly where it would have fired, so the
/// relative order of surviving events never changes.
class EventQueue {
 public:
  /// Callables up to this size (and max_align_t alignment) are stored
  /// inline in their slab slot; larger ones fall back to one boxed heap
  /// allocation. Sized for the fattest steady-state capture (an attacker's
  /// replay closure, which holds a whole phy::Frame) with headroom.
  static constexpr std::size_t kInlineCallbackBytes = 96;

  EventQueue() = default;
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Current simulation time. Starts at the origin.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedules `f` at absolute time `when` (must be >= now()).
  template <typename F>
  EventId schedule_at(TimePoint when, F&& f) {
    return schedule_at(when, CohortId{}, std::forward<F>(f));
  }

  /// Schedules `f` after `delay` (must be >= 0).
  template <typename F>
  EventId schedule_in(Duration delay, F&& f) {
    assert(delay >= Duration::zero());
    return schedule_at(now_ + delay, CohortId{}, std::forward<F>(f));
  }

  /// Schedules `f` at `when` as a member of `cohort` (from make_cohort).
  template <typename F>
  EventId schedule_at(TimePoint when, CohortId cohort, F&& f) {
    return emplace(when, cohort, next_id_++, std::forward<F>(f));
  }

  /// Schedules `f` after `delay` as a member of `cohort`.
  template <typename F>
  EventId schedule_in(Duration delay, CohortId cohort, F&& f) {
    assert(delay >= Duration::zero());
    return schedule_at(now_ + delay, cohort, std::forward<F>(f));
  }

  /// Reserves `n` consecutive event numbers and returns the first. Each
  /// reserved number is later spent on exactly one schedule_reserved or
  /// successful run_in_place call. Because numbers break ties between equal
  /// timestamps, an event scheduled late under a number reserved early
  /// fires exactly where it would have fired had it been scheduled at
  /// reservation time: after every event numbered before the block, before
  /// every event numbered after it. The medium uses this to keep at most one
  /// queue record per frame in flight while its receivers fire as if each
  /// had its own event.
  std::uint64_t reserve_ids(std::uint64_t n) {
    const std::uint64_t first = next_id_;
    next_id_ += n;
    return first;
  }

  /// Schedules `f` at `when` (>= now()) under `id`, a number obtained from
  /// reserve_ids and not spent yet. The event belongs to the default
  /// cohort. A caller that may run the event in place asks run_in_place
  /// first and files it here only when that returns false.
  template <typename F>
  EventId schedule_reserved(TimePoint when, std::uint64_t id, F&& f) {
    assert(id != 0 && id < next_id_ && "schedule_reserved needs a number from reserve_ids");
    return emplace(when, CohortId{}, id, std::forward<F>(f));
  }

  /// Fires the event reserved as (`when`, `id`) without filing it, when it
  /// is the queue's next event: called from inside a running callback, it
  /// returns true only within run_until, with (`when`, `id`) ordering before
  /// every pending event, `when` not past the run's horizon and the run
  /// budget not tripped. It then advances now() to `when`, counts one fired
  /// event and spends `id`; the caller runs the event's work itself, right
  /// away. Otherwise it changes nothing and returns false, and the caller
  /// files the event with schedule_reserved. Either way the work runs at the
  /// same place in the event order, and fired_count(), the budget and the
  /// wall-clock check see the same counts; only pending_count() read inside
  /// that work is one lower, since the event was never in the queue. A
  /// step() called outside run_until fires exactly one event.
  bool run_in_place(TimePoint when, std::uint64_t id);

  /// Creates a new cancellation cohort. Cohorts are a few bytes each and
  /// live as long as the queue (routers churn in the thousands per run, so
  /// recycling them buys nothing).
  CohortId make_cohort();

  /// Retires every pending event of `cohort` in O(1) (generation bump; the
  /// queue records are skipped lazily where they would have fired).
  /// Returns how many events were retired. The cohort stays usable for new
  /// schedules. Note: individual EventIds of retired events flip to
  /// not-pending, but cancel() on them returns false — the cohort already
  /// cancelled them.
  std::size_t cancel_cohort(CohortId cohort);

  /// Cancels a pending event. Cancelling an already-fired or already-
  /// cancelled event is a harmless no-op; returns whether it was pending.
  bool cancel(EventId id);

  /// True if the event has neither fired nor been cancelled.
  [[nodiscard]] bool pending(EventId id) const;

  /// Runs events until the queue is empty or `until` is reached. Time
  /// advances to `until` even if the queue drains earlier. Events scheduled
  /// exactly at `until` do fire. When the run budget stops the run early,
  /// now() stays at the last fired event, so a later run_until or step()
  /// resumes where it stopped. A callback may run later events in place
  /// (run_in_place) while this call lasts.
  void run_until(TimePoint until);

  /// Runs a single event if one is pending; returns false when drained. The
  /// event's callable is destroyed and its slot recycled once it returns,
  /// also when it throws.
  bool step();

  /// Number of events that are scheduled and not cancelled.
  [[nodiscard]] std::size_t pending_count() const { return live_count_; }

  /// Total number of callbacks executed so far (for stats/tests).
  [[nodiscard]] std::uint64_t fired_count() const { return fired_; }

  /// Per-run circuit breaker (the parallel harness's watchdog): run_until
  /// stops early once `max_events` further callbacks have fired or
  /// `wall_seconds` of real time have elapsed. Zero disables either bound.
  /// The event-count breaker is deterministic; the wall-clock one (checked
  /// every 4096 events) is best-effort protection against a hung run and is
  /// inherently host-dependent — opt-in only. Calling this resets
  /// budget_exceeded().
  void set_run_budget(std::uint64_t max_events, double wall_seconds);

  /// True when the last run_until stopped on the budget rather than on
  /// `until` (the run is reported as timed out by the scenario harness).
  [[nodiscard]] bool budget_exceeded() const { return budget_exceeded_; }

  /// Which bound tripped when budget_exceeded() is true; kNone otherwise.
  /// Reset by set_run_budget together with budget_exceeded().
  [[nodiscard]] BudgetTrip budget_trip() const { return budget_trip_; }

 private:
  // --- Callback slab ----------------------------------------------------
  // Fixed-size slots in stable chunks; a free list recycles them, so the
  // steady state of a run performs no heap allocation per schedule. A
  // slot's `owner` is the holder's EventId value while the slot contains a
  // live callable and 0 otherwise — that one field resolves "already
  // fired", "already cancelled" and "slot reused by a newer event" at once.
  struct Slot {
    std::uint64_t owner{0};
    void (*invoke)(void*){nullptr};
    void (*destroy)(void*){nullptr};
    std::uint32_t cohort{0};
    std::uint32_t gen{0};
    alignas(alignof(std::max_align_t)) unsigned char storage[kInlineCallbackBytes];
  };
  static constexpr std::uint32_t kChunkSlotsLog2 = 10;  // 1024 slots / chunk
  static constexpr std::uint32_t kChunkSlots = 1U << kChunkSlotsLog2;

  [[nodiscard]] Slot& slot_at(std::uint32_t idx) {
    return chunks_[idx >> kChunkSlotsLog2][idx & (kChunkSlots - 1U)];
  }
  [[nodiscard]] const Slot& slot_at(std::uint32_t idx) const {
    return chunks_[idx >> kChunkSlotsLog2][idx & (kChunkSlots - 1U)];
  }
  [[nodiscard]] std::uint32_t acquire_slot();

  /// Constructs `f` in a fresh slot and files it under (when, id).
  template <typename F>
  EventId emplace(TimePoint when, CohortId cohort, std::uint64_t id, F&& f) {
    using Fn = std::decay_t<F>;
    assert(when >= now_ && "cannot schedule into the past");
    if (when < now_) when = now_;
    const std::uint32_t slot_idx = acquire_slot();
    Slot& s = slot_at(slot_idx);
    if constexpr (sizeof(Fn) <= kInlineCallbackBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(s.storage)) Fn(std::forward<F>(f));
      s.invoke = [](void* p) { (*static_cast<Fn*>(p))(); };
      s.destroy = [](void* p) { static_cast<Fn*>(p)->~Fn(); };
    } else {
      // Boxed fallback: one heap allocation, still a uniform slot layout.
      ::new (static_cast<void*>(s.storage)) Fn*(new Fn(std::forward<F>(f)));
      s.invoke = [](void* p) { (**static_cast<Fn**>(p))(); };
      s.destroy = [](void* p) { delete *static_cast<Fn**>(p); };
    }
    s.owner = id;
    s.cohort = cohort.value;
    Cohort& co = cohort_ref(cohort.value);
    s.gen = co.gen;
    ++co.pending;
    ++live_count_;
    heap_.push_back(Rec{when, id, slot_idx});
    std::push_heap(heap_.begin(), heap_.end(), RecAfter{});
    return EventId{id, slot_idx};
  }

  // --- Pending set ------------------------------------------------------
  // One binary min-heap (std::push_heap/pop_heap over a vector) ordered by
  // (when, id), a strict total order: ids are unique.
  struct Rec {
    TimePoint when;
    std::uint64_t id;
    std::uint32_t slot;
  };

  // Heap comparator: treating "fires later" as less puts the earliest
  // record at the front of the heap.
  struct RecAfter {
    bool operator()(const Rec& a, const Rec& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.id > b.id;  // event-number order among equal timestamps
    }
  };

  /// Earliest live record, popping (and collecting) retired ones off the
  /// top; null when drained.
  [[nodiscard]] const Rec* peek();
  /// Removes the heap's front record.
  void pop_front();
  [[nodiscard]] bool rec_dead(const Rec& r) const;
  /// Releases the slot of a retired record (destroying the callable) if the
  /// cohort retirement left it uncollected.
  void collect_dead(const Rec& r);

  [[nodiscard]] BudgetTrip budget_tripped();

  struct Cohort {
    std::uint32_t gen{0};
    std::uint32_t pending{0};
  };

  [[nodiscard]] Cohort& cohort_ref(std::uint32_t v) {
    assert(v < cohorts_.size());
    return cohorts_[v];
  }
  [[nodiscard]] const Cohort& cohort_ref(std::uint32_t v) const {
    assert(v < cohorts_.size());
    return cohorts_[v];
  }

  TimePoint now_{};
  /// Set while run_until runs, with its horizon: what run_in_place needs.
  bool in_run_{false};
  TimePoint run_horizon_{};
  std::uint64_t budget_events_end_{0};  ///< fired_ value at which to stop (0 = off)
  bool has_wall_deadline_{false};
  bool budget_exceeded_{false};
  BudgetTrip budget_trip_{BudgetTrip::kNone};
  std::chrono::steady_clock::time_point wall_deadline_{};
  std::uint64_t next_id_{1};
  std::uint64_t fired_{0};
  std::size_t live_count_{0};

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<std::uint32_t> free_slots_;
  std::uint32_t slot_high_water_{0};

  std::vector<Cohort> cohorts_{Cohort{}};  // [0] = default, never retired

  std::vector<Rec> heap_;
};

}  // namespace vgr::sim
