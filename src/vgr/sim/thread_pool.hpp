#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "vgr/sim/env.hpp"

namespace vgr::sim {

/// Small work-stealing thread pool for run-level parallelism.
///
/// Each worker owns a deque: it pushes/pops its own tasks at the back (LIFO,
/// cache-friendly) and steals from other workers' fronts (FIFO, coarse
/// tasks first). External submitters round-robin across the deques. The
/// simulator itself stays single-threaded — the unit of parallelism is one
/// whole scenario run, which owns all of its state — so the pool needs no
/// shared-state discipline from its tasks beyond the usual "don't touch
/// globals".
///
/// `parallel_for` is the only entry point the experiment harness uses: it
/// blocks until every index has been processed, and the caller thread works
/// too, so a 1-thread pool degrades to a plain serial loop.
class ThreadPool {
 public:
  /// Creates `threads` workers. 0 picks `default_thread_count()`.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker count (>= 1).
  [[nodiscard]] std::size_t thread_count() const { return queues_.size(); }

  /// Enqueues one task.
  void submit(std::function<void()> task);

  /// Runs `fn(i)` for every i in [0, n), distributing across the workers
  /// and the calling thread; returns when all n calls have completed.
  /// Exceptions escaping `fn` terminate (tasks must be noexcept in spirit).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// VGR_THREADS from the environment (read through sim/env, so a value
  /// outside kThreadsRange warns and is ignored), else the hardware
  /// concurrency, else 1.
  static std::size_t default_thread_count();
  static constexpr Range kThreadsRange{.lo = 1};

  /// Physical hardware concurrency, ignoring VGR_THREADS; never 0 (an
  /// unknown count reports as 1). Benches use this to flag ladder rows
  /// that oversubscribe the host.
  static std::size_t hardware_threads();

 private:
  struct Queue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  void worker_loop(std::size_t self);
  /// Pops a task for worker `self`: own queue back first, then steals from
  /// the front of the others. Returns an empty function when none found.
  std::function<void()> take(std::size_t self);

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;
  std::mutex wake_mutex_;
  std::condition_variable wake_;
  std::size_t next_queue_{0};
  bool stop_{false};
};

}  // namespace vgr::sim
