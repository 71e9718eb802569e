#include "vgr/gn/location_table.hpp"

#include <cassert>

namespace vgr::gn {
namespace {

constexpr std::size_t kCacheLine = 64;

/// Starts loading the cache line holding `p` for an upcoming write. Always
/// inlined, here and in FlatIndex::prefetch: GCC deems a function that only
/// prefetches free of effects and deletes calls to it, so the builtin must
/// end up in the body of a function called from another file.
[[gnu::always_inline]] inline void prefetch_line(const void* p) { __builtin_prefetch(p, 1); }

}  // namespace

// --- FlatIndex ----------------------------------------------------------

std::uint64_t LocationTable::FlatIndex::mix(std::uint64_t key) {
  // splitmix64 finalizer: GN addresses differ mostly in their low MAC bits,
  // and linear probing wants those differences spread across the word.
  key += 0x9E3779B97F4A7C15ULL;
  key = (key ^ (key >> 30U)) * 0xBF58476D1CE4E5B9ULL;
  key = (key ^ (key >> 27U)) * 0x94D049BB133111EBULL;
  return key ^ (key >> 31U);
}

std::uint32_t LocationTable::FlatIndex::find(std::uint64_t key) const {
  if (slots_.empty()) return kNpos;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t s = static_cast<std::size_t>(mix(key)) & mask;; s = (s + 1) & mask) {
    const Slot& slot = slots_[s];
    if (slot.ctrl == Ctrl::kEmpty) return kNpos;
    if (slot.ctrl == Ctrl::kFull && slot.key == key) return slot.value;
  }
}

void LocationTable::FlatIndex::rehash(std::size_t capacity) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(capacity, Slot{0, kNpos, Ctrl::kEmpty});
  used_ = full_;  // tombstones die here
  const std::size_t mask = capacity - 1;
  for (const Slot& slot : old) {
    if (slot.ctrl != Ctrl::kFull) continue;
    std::size_t s = static_cast<std::size_t>(mix(slot.key)) & mask;
    while (slots_[s].ctrl == Ctrl::kFull) s = (s + 1) & mask;
    slots_[s] = slot;
  }
}

void LocationTable::FlatIndex::reserve(std::size_t keys) {
  // Smallest power of two keeping `keys` entries under 3/4 occupancy.
  std::size_t capacity = 16;
  while (keys * 4 > capacity * 3) capacity *= 2;
  if (capacity > slots_.size()) rehash(capacity);
}

void LocationTable::FlatIndex::insert(std::uint64_t key, std::uint32_t value) {
  // Keep the probe-relevant occupancy (full + tombstones) under 3/4.
  if (slots_.empty() || (used_ + 1) * 4 > slots_.size() * 3) {
    rehash(slots_.empty() ? 16 : slots_.size() * 2);
  }
  const std::size_t mask = slots_.size() - 1;
  std::size_t s = static_cast<std::size_t>(mix(key)) & mask;
  while (slots_[s].ctrl == Ctrl::kFull) {
    assert(slots_[s].key != key && "insert of a present key");
    s = (s + 1) & mask;
  }
  if (slots_[s].ctrl == Ctrl::kEmpty) ++used_;  // reusing a tombstone keeps `used_`
  slots_[s] = Slot{key, value, Ctrl::kFull};
  ++full_;
}

void LocationTable::FlatIndex::assign(std::uint64_t key, std::uint32_t value) {
  assert(!slots_.empty());
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t s = static_cast<std::size_t>(mix(key)) & mask;; s = (s + 1) & mask) {
    assert(slots_[s].ctrl != Ctrl::kEmpty && "assign of an absent key");
    if (slots_[s].ctrl == Ctrl::kFull && slots_[s].key == key) {
      slots_[s].value = value;
      return;
    }
  }
}

void LocationTable::FlatIndex::erase(std::uint64_t key) {
  if (slots_.empty()) return;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t s = static_cast<std::size_t>(mix(key)) & mask;; s = (s + 1) & mask) {
    if (slots_[s].ctrl == Ctrl::kEmpty) return;
    if (slots_[s].ctrl == Ctrl::kFull && slots_[s].key == key) {
      slots_[s].ctrl = Ctrl::kTombstone;
      --full_;
      return;
    }
  }
}

[[gnu::always_inline]] inline void LocationTable::FlatIndex::prefetch(std::uint64_t key) const {
  if (slots_.empty()) return;
  prefetch_line(&slots_[static_cast<std::size_t>(mix(key)) & (slots_.size() - 1)]);
}

// --- LocationTable ------------------------------------------------------

void LocationTable::prefetch_slot(net::GnAddress addr) const {
  // prefetch_row() and update() read every header of this object.
  const auto* self = reinterpret_cast<const char*>(this);
  for (std::size_t at = 0; at < sizeof(*this); at += kCacheLine) prefetch_line(self + at);
  prefetch_line(self + sizeof(*this) - 1);
  by_addr_.prefetch(addr.bits());
}

void LocationTable::prefetch_row(net::GnAddress addr) const {
  const std::uint32_t row = by_addr_.find(addr.bits());
  if (row != kNpos) {
    // A 48-byte row may straddle two lines.
    const auto* pv = reinterpret_cast<const char*>(&pv_[row]);
    prefetch_line(pv);
    prefetch_line(pv + sizeof(PvRow) - 1);
    prefetch_line(&neighbor_[row]);
    return;
  }
  // update() will append: one MAC index probe, then a push_back per column
  // (into reserved room; an append that reallocates is not worth a hint).
  by_mac_.prefetch(addr.mac().bits());
  const std::size_t end = addr_.size();
  if (end == pv_.capacity()) return;
  const auto* pv = reinterpret_cast<const char*>(pv_.data() + end);
  prefetch_line(addr_.data() + end);
  prefetch_line(pv);
  prefetch_line(pv + sizeof(PvRow) - 1);
  prefetch_line(neighbor_.data() + end);
  prefetch_line(mac_next_.data() + end);
}

std::uint32_t LocationTable::append_row(const net::LongPositionVector& pv, sim::TimePoint now,
                                        bool direct) {
  const auto row = static_cast<std::uint32_t>(addr_.size());
  addr_.push_back(pv.address);
  pv_.push_back(PvRow{pv.position, pv.timestamp, pv.speed_mps, pv.heading_rad, now + ttl_});
  neighbor_.push_back(direct ? 1 : 0);
  // New rows become the head of their MAC chain.
  const std::uint64_t mac = pv.address.mac().bits();
  const std::uint32_t head = by_mac_.find(mac);
  mac_next_.push_back(head);
  if (head == kNpos) {
    by_mac_.insert(mac, row);
  } else {
    by_mac_.assign(mac, row);
  }
  by_addr_.insert(pv.address.bits(), row);
  return row;
}

void LocationTable::reserve(std::size_t rows) {
  addr_.reserve(rows);
  pv_.reserve(rows);
  neighbor_.reserve(rows);
  mac_next_.reserve(rows);
  by_addr_.reserve(rows);
  by_mac_.reserve(rows);
}

bool LocationTable::update(const net::LongPositionVector& pv, sim::TimePoint now, bool direct) {
  const std::uint32_t row = by_addr_.find(pv.address.bits());
  if (row == kNpos) {
    append_row(pv, now, direct);
    return direct;
  }
  if (now < pv_[row].expiry) {  // live entry: refresh
    if (pv.timestamp < pv_[row].timestamp) return false;  // stale update
    const bool was_neighbor = neighbor_[row] != 0;
    pv_[row] = PvRow{pv.position, pv.timestamp, pv.speed_mps, pv.heading_rad, now + ttl_};
    neighbor_[row] = (was_neighbor || direct) ? 1 : 0;
    return direct && !was_neighbor;
  }
  // Expired entry re-learned: overwrite in place (indexes are unchanged).
  pv_[row] = PvRow{pv.position, pv.timestamp, pv.speed_mps, pv.heading_rad, now + ttl_};
  neighbor_[row] = direct ? 1 : 0;
  return direct;
}

void LocationTable::mac_unlink(std::uint32_t i) {
  const std::uint64_t mac = addr_[i].mac().bits();
  const std::uint32_t head = by_mac_.find(mac);
  assert(head != kNpos);
  if (head == i) {
    if (mac_next_[i] == kNpos) {
      by_mac_.erase(mac);
    } else {
      by_mac_.assign(mac, mac_next_[i]);
    }
    return;
  }
  std::uint32_t j = head;
  while (mac_next_[j] != i) j = mac_next_[j];
  mac_next_[j] = mac_next_[i];
}

void LocationTable::mac_relink(std::uint32_t from, std::uint32_t to) {
  const std::uint64_t mac = addr_[to].mac().bits();
  const std::uint32_t head = by_mac_.find(mac);
  assert(head != kNpos);
  if (head == from) {
    by_mac_.assign(mac, to);
    return;
  }
  std::uint32_t j = head;
  while (mac_next_[j] != from) j = mac_next_[j];
  mac_next_[j] = to;
}

void LocationTable::remove_row(std::uint32_t i) {
  mac_unlink(i);
  by_addr_.erase(addr_[i].bits());
  const auto last = static_cast<std::uint32_t>(addr_.size() - 1);
  if (i != last) {
    addr_[i] = addr_[last];
    pv_[i] = pv_[last];
    neighbor_[i] = neighbor_[last];
    mac_next_[i] = mac_next_[last];
    by_addr_.assign(addr_[i].bits(), i);
    mac_relink(last, i);
  }
  addr_.pop_back();
  pv_.pop_back();
  neighbor_.pop_back();
  mac_next_.pop_back();
}

bool LocationTable::erase(net::GnAddress addr) {
  const std::uint32_t row = by_addr_.find(addr.bits());
  if (row == kNpos) return false;
  remove_row(row);
  return true;
}

std::optional<LocTableEntry> LocationTable::find(net::GnAddress addr, sim::TimePoint now) const {
  const std::uint32_t row = by_addr_.find(addr.bits());
  if (row == kNpos || now >= pv_[row].expiry) return std::nullopt;
  return entry_at(row);
}

std::optional<LocTableEntry> LocationTable::find_by_mac(net::MacAddress mac,
                                                        sim::TimePoint now) const {
  // GN addresses embed the link-layer address; the MAC chain narrows the
  // candidates to the (usually single) address bound to `mac`. Two live
  // entries share a MAC across a pseudonym rotation (old and new alias),
  // and chain order must not pick between them: the newest binding wins —
  // that is the alias the peer is actually using — with the lowest GN
  // address as a deterministic tie-break.
  std::uint32_t best = kNpos;
  for (std::uint32_t row = by_mac_.find(mac.bits()); row != kNpos; row = mac_next_[row]) {
    if (now >= pv_[row].expiry) continue;
    const bool newer = best == kNpos || pv_[row].timestamp > pv_[best].timestamp ||
                       (pv_[row].timestamp == pv_[best].timestamp &&
                        addr_[row].bits() < addr_[best].bits());
    if (newer) best = row;
  }
  if (best == kNpos) return std::nullopt;
  return entry_at(best);
}

void LocationTable::for_each(sim::TimePoint now,
                             const std::function<void(const LocTableEntry&)>& visit) const {
  for (std::size_t row = 0; row < addr_.size(); ++row) {
    if (now < pv_[row].expiry) visit(entry_at(row));
  }
}

void LocationTable::purge(sim::TimePoint now) {
  // Backwards so a swap-remove only ever moves an already-visited row.
  for (std::size_t row = addr_.size(); row-- > 0;) {
    if (now >= pv_[row].expiry) remove_row(static_cast<std::uint32_t>(row));
  }
}

std::size_t LocationTable::size(sim::TimePoint now) const {
  std::size_t n = 0;
  for (std::size_t row = 0; row < addr_.size(); ++row) {
    if (now < pv_[row].expiry) ++n;
  }
  return n;
}

}  // namespace vgr::gn
