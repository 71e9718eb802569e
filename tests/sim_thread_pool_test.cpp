#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <thread>
#include <vector>

#include "vgr/sim/env.hpp"
#include "vgr/sim/thread_pool.hpp"

namespace vgr::sim {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool{4};
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleThreadDegradesToSerialLoop) {
  ThreadPool pool{1};
  EXPECT_EQ(pool.thread_count(), 1u);
  std::vector<std::size_t> order;
  pool.parallel_for(16, [&](std::size_t i) { order.push_back(i); });
  std::vector<std::size_t> expected(16);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);  // strictly in order: no worker involved
}

TEST(ThreadPool, EmptyRangeIsANoop) {
  ThreadPool pool{2};
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, MoreTasksThanThreadsAndViceVersa) {
  ThreadPool pool{8};
  std::atomic<int> sum{0};
  pool.parallel_for(3, [&](std::size_t i) { sum.fetch_add(static_cast<int>(i) + 1); });
  EXPECT_EQ(sum.load(), 6);
  sum = 0;
  pool.parallel_for(100, [&](std::size_t i) { sum.fetch_add(static_cast<int>(i)); });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, SubmitRunsDetachedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool{2};
    for (int i = 0; i < 10; ++i) pool.submit([&ran] { ran.fetch_add(1); });
    // Destructor note: tasks may or may not all run before stop; drain by
    // spinning here while the pool is alive.
    while (ran.load() < 10) std::this_thread::yield();
  }
  EXPECT_EQ(ran.load(), 10);
}

TEST(EnvParsing, WholeTokenValidation) {
  // Each read starts from -1, which a rejected or unset value leaves alone.
  const auto read_int = [] {
    long long v = -1;
    read_knob("VGR_TEST_INT", v, Range{});
    return v;
  };
  const auto read_double = [] {
    double v = -1.0;
    read_knob("VGR_TEST_DBL", v, Range{});
    return v;
  };
  ::setenv("VGR_TEST_INT", "42", 1);
  EXPECT_EQ(read_int(), 42);
  ::setenv("VGR_TEST_INT", "  7", 1);  // leading blanks fine (strtol skips)
  EXPECT_EQ(read_int(), 7);
  ::setenv("VGR_TEST_INT", "5x", 1);  // trailing garbage: reject whole token
  EXPECT_EQ(read_int(), -1);
  ::setenv("VGR_TEST_INT", "abc", 1);
  EXPECT_EQ(read_int(), -1);
  ::setenv("VGR_TEST_INT", "", 1);
  EXPECT_EQ(read_int(), -1);
  ::unsetenv("VGR_TEST_INT");
  EXPECT_EQ(read_int(), -1);

  ::setenv("VGR_TEST_DBL", "2.5", 1);
  EXPECT_EQ(read_double(), 2.5);
  ::setenv("VGR_TEST_DBL", "2.5s", 1);
  EXPECT_EQ(read_double(), -1.0);
  ::unsetenv("VGR_TEST_DBL");
}

TEST(EnvParsing, DefaultThreadCountHonoursEnv) {
  ::setenv("VGR_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::default_thread_count(), 3u);
  ::setenv("VGR_THREADS", "abc", 1);  // rejected -> hardware fallback >= 1
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
  ::unsetenv("VGR_THREADS");
}

}  // namespace
}  // namespace vgr::sim
