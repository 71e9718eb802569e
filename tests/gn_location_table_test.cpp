#include <gtest/gtest.h>

#include <optional>

#include "vgr/gn/location_table.hpp"

namespace vgr::gn {
namespace {

using namespace vgr::sim::literals;

net::LongPositionVector pv(std::uint64_t mac, double x, sim::TimePoint ts = {}) {
  net::LongPositionVector v;
  v.address = net::GnAddress{net::GnAddress::StationType::kPassengerCar, net::MacAddress{mac}};
  v.timestamp = ts;
  v.position = {x, 0.0};
  v.speed_mps = 30.0;
  return v;
}

TEST(LocationTable, InsertAndFind) {
  LocationTable t{20_s};
  const auto now = sim::TimePoint::at(1_s);
  t.update(pv(1, 100.0, now), now, /*direct=*/true);
  const auto entry = t.find(pv(1, 0).address, now);
  ASSERT_TRUE(entry.has_value());
  EXPECT_DOUBLE_EQ(entry->pv.position.x, 100.0);
  EXPECT_TRUE(entry->is_neighbor);
}

TEST(LocationTable, MissingAddressIsNullopt) {
  LocationTable t{20_s};
  EXPECT_FALSE(t.find(pv(9, 0).address, sim::TimePoint::origin()).has_value());
}

TEST(LocationTable, EntriesExpireAfterTtl) {
  LocationTable t{20_s};
  const auto t0 = sim::TimePoint::origin();
  t.update(pv(1, 100.0, t0), t0, true);
  EXPECT_TRUE(t.find(pv(1, 0).address, t0 + 19_s).has_value());
  EXPECT_FALSE(t.find(pv(1, 0).address, t0 + 20_s).has_value());
}

TEST(LocationTable, UpdateRefreshesTtl) {
  LocationTable t{20_s};
  const auto t0 = sim::TimePoint::origin();
  t.update(pv(1, 100.0, t0), t0, true);
  t.update(pv(1, 130.0, t0 + 10_s), t0 + 10_s, true);
  const auto entry = t.find(pv(1, 0).address, t0 + 25_s);
  ASSERT_TRUE(entry.has_value());
  EXPECT_DOUBLE_EQ(entry->pv.position.x, 130.0);
}

TEST(LocationTable, OlderTimestampIgnored) {
  LocationTable t{20_s};
  const auto t0 = sim::TimePoint::origin();
  t.update(pv(1, 100.0, t0 + 5_s), t0 + 5_s, true);
  // A replayed *older* PV must not roll the entry back.
  t.update(pv(1, 50.0, t0 + 1_s), t0 + 6_s, true);
  EXPECT_DOUBLE_EQ(t.find(pv(1, 0).address, t0 + 6_s)->pv.position.x, 100.0);
}

TEST(LocationTable, EqualTimestampAccepted) {
  LocationTable t{20_s};
  const auto t0 = sim::TimePoint::origin();
  t.update(pv(1, 100.0, t0), t0, false);
  t.update(pv(1, 100.0, t0), t0 + 1_s, true);  // replayed copy, same ts
  const auto entry = t.find(pv(1, 0).address, t0 + 1_s);
  EXPECT_TRUE(entry->is_neighbor);  // direct observation upgraded the flag
}

TEST(LocationTable, NeighborFlagIsSticky) {
  LocationTable t{20_s};
  const auto t0 = sim::TimePoint::origin();
  t.update(pv(1, 100.0, t0), t0, true);
  t.update(pv(1, 120.0, t0 + 1_s), t0 + 1_s, /*direct=*/false);
  EXPECT_TRUE(t.find(pv(1, 0).address, t0 + 1_s)->is_neighbor);
}

TEST(LocationTable, IndirectEntryIsNotNeighbor) {
  LocationTable t{20_s};
  const auto t0 = sim::TimePoint::origin();
  t.update(pv(1, 100.0, t0), t0, /*direct=*/false);
  EXPECT_FALSE(t.find(pv(1, 0).address, t0)->is_neighbor);
}

TEST(LocationTable, ExpiredEntryReplacedFresh) {
  LocationTable t{10_s};
  const auto t0 = sim::TimePoint::origin();
  t.update(pv(1, 100.0, t0), t0, true);
  // After expiry, even an older-timestamp PV creates a fresh entry and the
  // neighbour flag resets to the new observation kind.
  t.update(pv(1, 200.0, t0 + 30_s), t0 + 30_s, false);
  const auto entry = t.find(pv(1, 0).address, t0 + 30_s);
  ASSERT_TRUE(entry.has_value());
  EXPECT_DOUBLE_EQ(entry->pv.position.x, 200.0);
  EXPECT_FALSE(entry->is_neighbor);
}

TEST(LocationTable, FindByMac) {
  LocationTable t{20_s};
  const auto t0 = sim::TimePoint::origin();
  t.update(pv(0xAB, 77.0, t0), t0, true);
  const auto entry = t.find_by_mac(net::MacAddress{0xAB}, t0);
  ASSERT_TRUE(entry.has_value());
  EXPECT_DOUBLE_EQ(entry->pv.position.x, 77.0);
  EXPECT_FALSE(t.find_by_mac(net::MacAddress{0xCD}, t0).has_value());
}

TEST(LocationTable, FindByMacIgnoresExpired) {
  LocationTable t{5_s};
  const auto t0 = sim::TimePoint::origin();
  t.update(pv(0xAB, 77.0, t0), t0, true);
  EXPECT_FALSE(t.find_by_mac(net::MacAddress{0xAB}, t0 + 6_s).has_value());
}

TEST(LocationTable, SizeCountsLiveOnly) {
  LocationTable t{10_s};
  const auto t0 = sim::TimePoint::origin();
  t.update(pv(1, 1.0, t0), t0, true);
  t.update(pv(2, 2.0, t0 + 8_s), t0 + 8_s, true);
  EXPECT_EQ(t.size(t0 + 9_s), 2u);
  EXPECT_EQ(t.size(t0 + 11_s), 1u);
  EXPECT_EQ(t.raw_size(), 2u);
}

TEST(LocationTable, PurgeDropsExpired) {
  LocationTable t{10_s};
  const auto t0 = sim::TimePoint::origin();
  t.update(pv(1, 1.0, t0), t0, true);
  t.update(pv(2, 2.0, t0 + 8_s), t0 + 8_s, true);
  t.purge(t0 + 11_s);
  EXPECT_EQ(t.raw_size(), 1u);
}

TEST(LocationTable, ForEachVisitsLiveEntries) {
  LocationTable t{10_s};
  const auto t0 = sim::TimePoint::origin();
  t.update(pv(1, 1.0, t0), t0, true);
  t.update(pv(2, 2.0, t0), t0, true);
  t.update(pv(3, 3.0, t0 + 20_s), t0 + 20_s, true);
  int visited = 0;
  t.for_each(t0 + 20_s, [&](const LocTableEntry&) { ++visited; });
  EXPECT_EQ(visited, 1);  // entries 1 & 2 expired by t0+20
}

// --- New-neighbour edge & erase (recovery layer, docs/robustness.md) ------
//
// `update` reports whether the observation produced a *new live neighbour* —
// the edge the router uses to flush its store-carry-forward buffer.

TEST(LocationTable, UpdateReportsNewDirectNeighborOnce) {
  LocationTable t{20_s};
  const auto t0 = sim::TimePoint::origin();
  EXPECT_TRUE(t.update(pv(1, 100.0, t0), t0, /*direct=*/true));
  // Refreshing a known neighbour is not a new-neighbour edge.
  EXPECT_FALSE(t.update(pv(1, 130.0, t0 + 1_s), t0 + 1_s, /*direct=*/true));
}

TEST(LocationTable, IndirectObservationsAreNeverNewNeighbors) {
  LocationTable t{20_s};
  const auto t0 = sim::TimePoint::origin();
  EXPECT_FALSE(t.update(pv(1, 100.0, t0), t0, /*direct=*/false));
  EXPECT_FALSE(t.update(pv(1, 120.0, t0 + 1_s), t0 + 1_s, /*direct=*/false));
}

TEST(LocationTable, IndirectToDirectUpgradeIsANewNeighbor) {
  LocationTable t{20_s};
  const auto t0 = sim::TimePoint::origin();
  t.update(pv(1, 100.0, t0), t0, /*direct=*/false);
  EXPECT_TRUE(t.update(pv(1, 110.0, t0 + 1_s), t0 + 1_s, /*direct=*/true));
  EXPECT_FALSE(t.update(pv(1, 120.0, t0 + 2_s), t0 + 2_s, /*direct=*/true));
}

TEST(LocationTable, ExpiredEntryReplacedDirectlyIsANewNeighbor) {
  LocationTable t{10_s};
  const auto t0 = sim::TimePoint::origin();
  t.update(pv(1, 100.0, t0), t0, true);
  // The station went silent past the TTL; its next beacon re-learns it.
  EXPECT_TRUE(t.update(pv(1, 200.0, t0 + 15_s), t0 + 15_s, /*direct=*/true));
}

TEST(LocationTable, StaleTimestampIsNotANewNeighbor) {
  LocationTable t{20_s};
  const auto t0 = sim::TimePoint::origin();
  t.update(pv(1, 100.0, t0 + 5_s), t0 + 5_s, true);
  EXPECT_FALSE(t.update(pv(1, 50.0, t0 + 1_s), t0 + 6_s, true));
}

/// Hints every address 1..40 and checks that the table reads the same
/// before and after each hint.
void hint_every_address(const LocationTable& t, sim::TimePoint now) {
  for (std::uint64_t mac = 1; mac <= 40; ++mac) {
    const net::GnAddress a = pv(mac, 0).address;
    const std::size_t rows = t.raw_size();
    const std::optional<LocTableEntry> before = t.find(a, now);
    const LocationTable::Columns cols = t.columns();
    t.prefetch_slot(a);
    t.prefetch_row(a);
    EXPECT_EQ(t.raw_size(), rows);
    const std::optional<LocTableEntry> after = t.find(a, now);
    ASSERT_EQ(after.has_value(), before.has_value()) << mac;
    if (after.has_value()) {
      EXPECT_EQ(after->pv, before->pv);
      EXPECT_EQ(after->expiry, before->expiry);
      EXPECT_EQ(after->is_neighbor, before->is_neighbor);
    }
    const LocationTable::Columns now_cols = t.columns();
    EXPECT_EQ(now_cols.addr, cols.addr);
    EXPECT_EQ(now_cols.pv, cols.pv);
    EXPECT_EQ(now_cols.is_neighbor, cols.is_neighbor);
    EXPECT_EQ(now_cols.size, cols.size);
  }
}

// The prefetch helpers only hint the cache. On any table (nothing allocated
// yet, present and absent addresses, tombstones, purged rows, columns full
// to their reserved room) they change nothing observable; the sanitizer
// build runs this under ASan, UBSan and the library's bounds assertions.
TEST(LocationTable, PrefetchHelpersChangeNothingOnAnyTable) {
  const auto t0 = sim::TimePoint::origin();
  LocationTable t{20_s};
  {
    SCOPED_TRACE("empty");
    hint_every_address(t, t0);
  }
  for (std::uint64_t mac = 1; mac <= 20; ++mac) t.update(pv(mac, 10.0 * mac, t0), t0, true);
  {
    SCOPED_TRACE("rows 1..20");
    hint_every_address(t, t0);
  }
  for (std::uint64_t mac = 1; mac <= 20; mac += 2) t.erase(pv(mac, 0).address);
  {
    SCOPED_TRACE("odd rows erased");
    hint_every_address(t, t0);
  }
  for (std::uint64_t mac = 2; mac <= 20; mac += 2) t.erase(pv(mac, 0).address);
  {
    SCOPED_TRACE("every row erased");
    hint_every_address(t, t0);
  }
  for (std::uint64_t mac = 1; mac <= 30; ++mac) t.update(pv(mac, 10.0 * mac, t0), t0, true);
  t.purge(t0 + 20_s);
  {
    SCOPED_TRACE("purged");
    ASSERT_EQ(t.raw_size(), 0u);
    hint_every_address(t, t0 + 20_s);
  }
  LocationTable full{20_s};
  full.reserve(16);
  for (std::uint64_t mac = 1; mac <= 16; ++mac) full.update(pv(mac, 10.0 * mac, t0), t0, true);
  {
    SCOPED_TRACE("reserved room used up");
    hint_every_address(full, t0);
  }
}

TEST(LocationTable, EraseRemovesEntry) {
  LocationTable t{20_s};
  const auto t0 = sim::TimePoint::origin();
  t.update(pv(1, 100.0, t0), t0, true);
  EXPECT_TRUE(t.erase(pv(1, 0).address));
  EXPECT_FALSE(t.find(pv(1, 0).address, t0).has_value());
  EXPECT_EQ(t.raw_size(), 0u);
  EXPECT_FALSE(t.erase(pv(1, 0).address));  // already gone
}

TEST(LocationTable, ErasedNeighborRelearnedAsNew) {
  // Monitor eviction followed by the station's next beacon: the table must
  // report the re-learn as a new-neighbour edge so buffered packets flush.
  LocationTable t{20_s};
  const auto t0 = sim::TimePoint::origin();
  t.update(pv(1, 100.0, t0), t0, true);
  t.erase(pv(1, 0).address);
  EXPECT_TRUE(t.update(pv(1, 140.0, t0 + 1_s), t0 + 1_s, true));
}

class TtlSweep : public ::testing::TestWithParam<int> {};

TEST_P(TtlSweep, ExpiryHonorsConfiguredTtl) {
  const int ttl_s = GetParam();
  LocationTable t{sim::Duration::seconds(static_cast<double>(ttl_s))};
  const auto t0 = sim::TimePoint::origin();
  t.update(pv(1, 1.0, t0), t0, true);
  const auto just_before = t0 + sim::Duration::seconds(ttl_s - 0.001);
  const auto just_after = t0 + sim::Duration::seconds(ttl_s + 0.001);
  EXPECT_TRUE(t.find(pv(1, 0).address, just_before).has_value());
  EXPECT_FALSE(t.find(pv(1, 0).address, just_after).has_value());
}

// The paper sweeps LocTE TTL over {5, 10, 20} seconds (Fig 7c / 9c).
INSTANTIATE_TEST_SUITE_P(PaperTtls, TtlSweep, ::testing::Values(5, 10, 20));

}  // namespace
}  // namespace vgr::gn
