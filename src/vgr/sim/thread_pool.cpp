#include "vgr/sim/thread_pool.hpp"

#include <atomic>
#include <chrono>
#include <memory>

#include "vgr/sim/env.hpp"

namespace vgr::sim {

std::size_t ThreadPool::default_thread_count() {
  std::size_t threads = hardware_threads();
  read_knob("VGR_THREADS", threads, kThreadsRange);
  return threads;
}

std::size_t ThreadPool::hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = default_thread_count();
  queues_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) queues_.push_back(std::make_unique<Queue>());
  // With one thread the caller does all the work in parallel_for; spawning a
  // lone worker would only add wakeup latency.
  if (threads == 1) return;
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock{wake_mutex_};
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  std::size_t target;
  {
    std::lock_guard lock{wake_mutex_};
    target = next_queue_;
    next_queue_ = (next_queue_ + 1) % queues_.size();
  }
  {
    std::lock_guard lock{queues_[target]->mutex};
    queues_[target]->tasks.push_back(std::move(task));
  }
  wake_.notify_one();
}

std::function<void()> ThreadPool::take(std::size_t self) {
  // Own queue first (back: most recently pushed, cache-warm)...
  {
    Queue& q = *queues_[self];
    std::lock_guard lock{q.mutex};
    if (!q.tasks.empty()) {
      auto task = std::move(q.tasks.back());
      q.tasks.pop_back();
      return task;
    }
  }
  // ...then steal from the front of the other queues.
  for (std::size_t i = 1; i < queues_.size(); ++i) {
    Queue& q = *queues_[(self + i) % queues_.size()];
    std::lock_guard lock{q.mutex};
    if (!q.tasks.empty()) {
      auto task = std::move(q.tasks.front());
      q.tasks.pop_front();
      return task;
    }
  }
  return {};
}

void ThreadPool::worker_loop(std::size_t self) {
  for (;;) {
    if (auto task = take(self)) {
      task();
      continue;
    }
    std::unique_lock lock{wake_mutex_};
    if (stop_) return;
    wake_.wait_for(lock, std::chrono::milliseconds(10));
    if (stop_) return;
  }
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (thread_count() == 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Shared index counter: workers and the caller pull the next undone index
  // until exhausted. Tasks are coarse (a whole scenario run), so one atomic
  // per task is noise.
  auto next = std::make_shared<std::atomic<std::size_t>>(0);
  auto done = std::make_shared<std::atomic<std::size_t>>(0);
  const auto body = [next, done, n, &fn] {
    for (;;) {
      const std::size_t i = next->fetch_add(1);
      if (i >= n) return;
      fn(i);
      done->fetch_add(1);
    }
  };
  // One pump task per worker; each drains the shared counter.
  const std::size_t pumps = std::min(n, thread_count());
  for (std::size_t i = 0; i < pumps; ++i) submit(body);
  body();  // the caller participates
  while (done->load() < n) std::this_thread::yield();
}

}  // namespace vgr::sim
