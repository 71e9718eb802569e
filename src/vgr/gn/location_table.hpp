#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "vgr/net/address.hpp"
#include "vgr/net/position_vector.hpp"
#include "vgr/sim/time.hpp"

namespace vgr::gn {

/// One location table entry: LocTE(addr, PV, TTL) in the paper's notation,
/// plus the ETSI IS_NEIGHBOUR flag that marks nodes heard *directly* (via a
/// beacon or as the link-layer sender). Greedy Forwarding only considers
/// neighbour entries.
struct LocTableEntry {
  net::LongPositionVector pv{};
  sim::TimePoint expiry{};
  bool is_neighbor{false};

  [[nodiscard]] bool expired(sim::TimePoint now) const { return now >= expiry; }
};

/// The per-router location table (ETSI EN 302 636-4-1 §8.1).
///
/// Entries are keyed by GN address and refreshed on every accepted position
/// vector; an entry lives `ttl` past its last update (paper default: 20 s).
/// There is intentionally *no* reachability validation here — the table
/// trusts any authenticated PV, which is vulnerability #2 of the paper.
///
/// Storage (ROADMAP item 4): dense SoA columns hold the position-vector
/// fields, indexed by an open-addressing flat table over the GN address
/// bits; a second flat table plus an intrusive per-row chain replaces the
/// old MAC -> vector-of-addresses index. The greedy forwarder streams the
/// columns directly (see columns()) instead of chasing unordered_map nodes,
/// and update()/find() are a hash, one linear probe and a handful of array
/// stores — no allocation once the table reaches its steady-state size.
class LocationTable {
 public:
  explicit LocationTable(sim::Duration ttl) : ttl_{ttl} {}

  /// Inserts or refreshes the entry for `pv.address`. Updates carrying a
  /// strictly older timestamp than the stored PV are ignored (out-of-order
  /// protection). `direct` marks a one-hop observation and sets the
  /// neighbour flag (sticky until the entry expires). Returns true when the
  /// observation produced a *new* live neighbour — first sight, re-learned
  /// after expiry or eviction, or an indirect entry upgraded by a direct
  /// one — the edge the router's SCF flush-on-new-neighbour keys on.
  bool update(const net::LongPositionVector& pv, sim::TimePoint now, bool direct);

  /// Cache hints for an update() of `addr` a delivery or two from now (the
  /// router's receive hint, phy::Medium::RxHint). They only prefetch: the
  /// table is left as it was, and any table is safe, empty or not.
  /// prefetch_slot() starts loading `addr`'s home probe slot and the table
  /// object's own lines (its column and index headers).
  /// prefetch_row(), issued once that slot is cached, probes it and starts
  /// loading what update() will write: the row's PV and neighbour flag
  /// when `addr` is present, else its MAC index slot and the columns'
  /// append positions.
  void prefetch_slot(net::GnAddress addr) const;
  void prefetch_row(net::GnAddress addr) const;

  /// Pre-sizes the SoA columns and both flat indexes for `rows` entries.
  /// Purely a memory-plane hint: a router reserving its expected
  /// neighbourhood up front replaces the per-column doubling ladder (dozens
  /// of reallocations per router) with one batch of exact-size allocations.
  void reserve(std::size_t rows);

  /// Removes the entry outright (neighbour-monitor eviction, identity
  /// rotation). Returns whether anything was removed.
  bool erase(net::GnAddress addr);

  /// Live entry for `addr`, if any.
  [[nodiscard]] std::optional<LocTableEntry> find(net::GnAddress addr, sim::TimePoint now) const;

  /// Live entry whose GN address embeds `mac`, if any (used by CBF to locate
  /// the previous sender from the frame's link-layer source).
  [[nodiscard]] std::optional<LocTableEntry> find_by_mac(net::MacAddress mac,
                                                         sim::TimePoint now) const;

  /// Visits every live entry. Visitation is in dense-row order (insertion
  /// order perturbed by swap-removes): callers that derive a decision from
  /// the walk must be order-insensitive, exactly as under the old hash
  /// order.
  void for_each(sim::TimePoint now,
                const std::function<void(const LocTableEntry&)>& visit) const;

  /// The position-vector payload plus expiry of one row, packed so an
  /// update() refresh reads and writes one or two cache lines instead of
  /// four scattered columns (the dense flood refreshes millions of rows per
  /// run, each against a cold per-router table). The neighbour flag stays a
  /// separate 1-byte column: it is the greedy forwarder's *first* filter,
  /// and a dense byte stream rejects non-neighbour rows without pulling
  /// their 48-byte PV rows into cache.
  struct PvRow {
    geo::Position position;
    sim::TimePoint timestamp;
    double speed_mps;
    double heading_rad;
    sim::TimePoint expiry;
  };

  /// Raw column view over the dense rows for tight scans (the greedy
  /// forwarder's next-hop selection). Rows may be expired — callers must
  /// test `now < pv[i].expiry`. Pointers are invalidated by any mutation.
  struct Columns {
    const net::GnAddress* addr;
    const PvRow* pv;
    const std::uint8_t* is_neighbor;
    std::size_t size;
  };
  [[nodiscard]] Columns columns() const {
    return Columns{addr_.data(), pv_.data(), neighbor_.data(), addr_.size()};
  }

  /// Rebuilds one LocTableEntry from a dense row (e.g. a columns() hit).
  [[nodiscard]] LocTableEntry entry_at(std::size_t row) const {
    return LocTableEntry{
        net::LongPositionVector{addr_[row], pv_[row].timestamp, pv_[row].position,
                                pv_[row].speed_mps, pv_[row].heading_rad},
        pv_[row].expiry, neighbor_[row] != 0};
  }

  /// Drops expired entries (also done lazily by the accessors).
  void purge(sim::TimePoint now);

  /// Live entry count.
  [[nodiscard]] std::size_t size(sim::TimePoint now) const;

  /// Total entries including expired ones awaiting purge (for tests).
  [[nodiscard]] std::size_t raw_size() const { return addr_.size(); }

  [[nodiscard]] sim::Duration ttl() const { return ttl_; }
  void set_ttl(sim::Duration ttl) { ttl_ = ttl; }

 private:
  static constexpr std::uint32_t kNpos = 0xFFFF'FFFFU;

  /// Open-addressing u64 key -> u32 value map (linear probing, power-of-two
  /// capacity, tombstones reclaimed on rehash). Both indexes of the table —
  /// GN address -> dense row and MAC bits -> chain head — are instances.
  class FlatIndex {
   public:
    /// Pre-sizes the table for `keys` entries so the first inserts do not
    /// walk the 16 -> 32 -> ... doubling ladder.
    void reserve(std::size_t keys);
    /// Value for `key`, or kNpos.
    [[nodiscard]] std::uint32_t find(std::uint64_t key) const;
    /// Inserts `key` (must be absent) with `value`.
    void insert(std::uint64_t key, std::uint32_t value);
    /// Overwrites the value of `key` (must be present).
    void assign(std::uint64_t key, std::uint32_t value);
    /// Tombstones `key` if present.
    void erase(std::uint64_t key);
    /// Starts loading `key`'s home slot into cache; changes nothing.
    void prefetch(std::uint64_t key) const;

   private:
    enum class Ctrl : std::uint8_t { kEmpty = 0, kTombstone = 1, kFull = 2 };
    /// Key, value and control byte share one 16-byte slot so a probe step
    /// costs a single cache line, not one per parallel array — on the dense
    /// flood every router's index is cold and the probe misses dominate.
    struct Slot {
      std::uint64_t key;
      std::uint32_t value;
      Ctrl ctrl;
    };
    void rehash(std::size_t capacity);
    [[nodiscard]] static std::uint64_t mix(std::uint64_t key);

    std::vector<Slot> slots_;
    std::size_t used_{0};  ///< full + tombstone slots
    std::size_t full_{0};
  };

  /// Appends a fresh row for `pv`; returns its index.
  std::uint32_t append_row(const net::LongPositionVector& pv, sim::TimePoint now, bool direct);
  /// Swap-removes row `i`, fixing both indexes and the MAC chains.
  void remove_row(std::uint32_t i);
  /// Detaches row `i` from its MAC chain.
  void mac_unlink(std::uint32_t i);
  /// Rewrites chain references to `from` (just swap-moved) to point at `to`.
  void mac_relink(std::uint32_t from, std::uint32_t to);

  sim::Duration ttl_;

  // Dense SoA columns; row order is insertion order perturbed by
  // swap-removes (deterministic given the deterministic operation stream).
  std::vector<net::GnAddress> addr_;
  std::vector<PvRow> pv_;
  std::vector<std::uint8_t> neighbor_;
  /// Next row sharing the same MAC bits (kNpos terminates). Chains are
  /// almost always length one; length two across a pseudonym rotation.
  std::vector<std::uint32_t> mac_next_;

  FlatIndex by_addr_;  ///< GN address bits -> dense row
  FlatIndex by_mac_;   ///< MAC bits -> head row of the chain
};

}  // namespace vgr::gn
