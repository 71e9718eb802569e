// Allocation-count regression harness (ROADMAP item 4).
//
// This binary overrides global operator new/delete with counting wrappers
// and runs a small intra-area flood, then asserts an upper bound on heap
// allocations per delivered packet. The bound pins the arena/SoA memory
// plane: EventQueue's slab-backed callback slots and record heap,
// LocationTable's flat tables and the shared SecuredMessage envelope all
// show up here the moment one of them regresses to per-event heap churn.
//
// The test lives in its own test binary on purpose — the operator new
// override is global to the executable, and keeping it out of the other
// test binaries means their timings and ASan interposition are unaffected.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <numeric>

#include "vgr/scenario/highway.hpp"

namespace {

// Relaxed is fine: the counter is only read while the simulation is
// single-threaded (the scenario harness parallelises across runs, not
// within one, and this test performs exactly one run).
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<bool> g_counting{false};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size ? size : 1);
}

void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

#if defined(__cpp_aligned_new)
void* operator new(std::size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1) != 0) {
    throw std::bad_alloc{};
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
#endif

namespace vgr::scenario {
namespace {

// A short dense flood: 1 km road at 15 m prefill spacing (~130 vehicles),
// 10 floods over 10 s. Small enough for a debug/sanitizer build, dense
// enough that CBF contention, duplicate suppression and the location-table
// steady state all exercise their hot paths.
HighwayConfig small_flood_config() {
  HighwayConfig cfg;
  cfg.road_length_m = 1000.0;
  cfg.entry_spacing_m = 15.0;
  cfg.prefill_spacing_m = 15.0;
  cfg.sim_duration = sim::Duration::seconds(10.0);
  cfg.packet_interval = sim::Duration::seconds(1.0);
  cfg.seed = 7;
  return cfg;
}

TEST(AllocRegression, AllocationsPerDeliveredPacketStayBounded) {
  HighwayScenario scenario(small_flood_config());

  g_alloc_count.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  const IntraAreaResult result = scenario.run_intra_area();
  g_counting.store(false, std::memory_order_relaxed);
  const std::uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed);

  const std::uint64_t delivered = std::accumulate(
      result.floods.begin(), result.floods.end(), std::uint64_t{0},
      [](std::uint64_t acc, const IntraAreaFloodRecord& f) { return acc + f.reached; });
  ASSERT_GT(delivered, 100u) << "flood too small to be meaningful";
  ASSERT_FALSE(result.timed_out);

  const double per_packet = static_cast<double>(allocs) / static_cast<double>(delivered);
  std::fprintf(stderr,
               "[alloc-regression] %llu allocations / %llu delivered = %.1f per packet\n",
               static_cast<unsigned long long>(allocs),
               static_cast<unsigned long long>(delivered), per_packet);

  // Pre-refactor (PR 5 seed, std::function EventQueue + node-based
  // LocationTable + by-value SecuredMessage buffers) this measured 124.5
  // allocations per delivered packet. The arena/SoA memory plane has to
  // keep it >5x below that (<= 24.9); the bound leaves headroom over the
  // post-change steady state so toolchain jitter does not flake the gate.
  EXPECT_LT(per_packet, 20.0);
}

}  // namespace
}  // namespace vgr::scenario
