#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "vgr/phy/mac.hpp"

namespace vgr::scenario {

/// How a counter combines across stations, runs and sweep shards.
enum class Merge : std::uint8_t { kSum, kMax };

/// The counters a highway run reports next to its reception figures. Both
/// run results derive from it, HighwayScenario adds every station into it,
/// and AbResult keeps one per arm (docs/robustness.md). Each field is listed
/// once in for_each_counter below, with its journal key and merge rule;
/// merging, the sweep journal and the tests iterate that list, so a counter
/// added to both is merged, journaled and compared with no edit elsewhere.
/// The MAC counters and peak_cbr are zero with the MAC layer off; ingest
/// drops are zero on an un-faulted channel.
struct RunCounters {
  /// MAC-plane counters over every honest station: vehicles (crashed ones
  /// included) and destinations.
  phy::MacStats mac{};
  /// Hardened-ingest drops over all stations and causes.
  std::uint64_t ingest_drops{0};
  /// Congestion-flood replays (kCongestionFlood runs only).
  std::uint64_t frames_flooded{0};
  /// Frames every transmitter put on the channel, the attacker's included
  /// (phy::Medium::frames_sent at run end): the forwarding overhead.
  std::uint64_t frames_sent{0};
  /// Highest raw CBR sample any honest station measured.
  double peak_cbr{0.0};

  /// Folds `other` in, each field under its merge rule.
  void merge(const RunCounters& other);

  friend bool operator==(const RunCounters&, const RunCounters&) = default;
};

/// Calls `fn(key, rule, field...)` once per counter, passing that field of
/// each of `counters`: the one list of journal keys and merge rules.
template <typename Fn, typename... Counters>
constexpr void for_each_counter(Fn&& fn, Counters&... counters) {
  fn("mac_enqueued", Merge::kSum, counters.mac.enqueued...);
  fn("mac_transmitted", Merge::kSum, counters.mac.transmitted...);
  fn("mac_queue_overflow", Merge::kSum, counters.mac.queue_overflow_drops...);
  fn("mac_retry_exhausted", Merge::kSum, counters.mac.retry_exhausted_drops...);
  fn("mac_dcc_gated", Merge::kSum, counters.mac.dcc_gated_drops...);
  fn("mac_backoff_retries", Merge::kSum, counters.mac.backoff_retries...);
  fn("mac_cbr_samples", Merge::kSum, counters.mac.cbr_samples...);
  fn("ingest_drops", Merge::kSum, counters.ingest_drops...);
  fn("frames_flooded", Merge::kSum, counters.frames_flooded...);
  fn("frames_sent", Merge::kSum, counters.frames_sent...);
  fn("peak_cbr", Merge::kMax, counters.peak_cbr...);
}

/// Number of counters for_each_counter lists.
inline constexpr std::size_t kCounterCount = [] {
  std::size_t listed = 0;
  RunCounters c{};
  for_each_counter([&listed](auto&&...) { ++listed; }, c);
  return listed;
}();

// Every field is 8 bytes wide, so a field added without a list entry fails
// to compile here.
static_assert(sizeof(RunCounters) == kCounterCount * sizeof(std::uint64_t),
              "list every RunCounters field in for_each_counter");

inline void RunCounters::merge(const RunCounters& other) {
  for_each_counter(
      [](const char*, Merge rule, auto& into, const auto& from) {
        into = rule == Merge::kMax ? std::max(into, from) : into + from;
      },
      *this, other);
}

}  // namespace vgr::scenario
