#pragma once

#include <cstddef>
#include <cstdint>

#include "vgr/phy/dcc.hpp"
#include "vgr/phy/mac.hpp"
#include "vgr/phy/technology.hpp"
#include "vgr/sim/time.hpp"

namespace vgr::gn {

/// What Greedy Forwarding does when no neighbour offers progress toward the
/// destination (ETSI EN 302 636-4-1 §E.2: buffer when store-carry-forward is
/// enabled, otherwise fall back to a broadcast).
enum class GfFallback { kBuffer, kBroadcast, kDrop };

/// Protocol constants and mitigation switches for one router instance.
/// Defaults follow ETSI EN 302 636-4-1 and the paper's simulation settings.
struct RouterConfig {
  // --- Beaconing (§III-B: every 3 s with a random jitter within 0.75 s).
  sim::Duration beacon_interval{sim::Duration::seconds(3.0)};
  sim::Duration beacon_jitter{sim::Duration::seconds(0.75)};

  // --- Duplicate address detection (ETSI §10.2.1.5): hearing one's own GN
  //     address from another station signals an address conflict. Note the
  //     paper's beacon-replay attacker trips this constantly (it replays
  //     the victim's own beacons back at it), so DAD-triggered
  //     re-addressing would hand the attacker a *second* denial vector —
  //     see docs/attacks.md. Off by default, conflicts are always counted.
  bool dad_enabled{false};

  // --- Location table.
  sim::Duration locte_ttl{sim::Duration::seconds(20.0)};
  /// Freshness window for accepted position vectors: PVs with an older
  /// timestamp are discarded (the paper notes the timestamp *is* checked —
  /// it just doesn't stop an immediate replay).
  sim::Duration pv_max_age{sim::Duration::seconds(2.0)};

  // --- Contention-based forwarding (paper §III-C).
  sim::Duration cbf_to_min{sim::Duration::millis(1)};
  sim::Duration cbf_to_max{sim::Duration::millis(100)};
  /// Random addition to the contention timer, modelling access-layer (CSMA)
  /// backoff randomness. Without it, equidistant candidates rebroadcast in
  /// perfect sync and their mutual duplicates silence the whole next hop —
  /// an artifact a real radio never exhibits.
  sim::Duration cbf_jitter{sim::Duration::millis(2)};
  /// DIST_MAX: theoretical maximum communication range of the access
  /// technology in use.
  double cbf_dist_max_m{486.0};

  // --- Packet defaults.
  std::uint8_t default_hop_limit{10};
  sim::Duration default_lifetime{sim::Duration::seconds(60.0)};

  // --- Greedy forwarding.
  GfFallback gf_fallback{GfFallback::kBuffer};
  sim::Duration gf_retry_interval{sim::Duration::millis(500)};

  // --- Location service (ETSI §10.2.2), used by GeoUnicast when the
  //     destination's position is unknown.
  std::uint8_t ls_hop_limit{10};
  sim::Duration ls_retry_interval{sim::Duration::seconds(1.0)};
  int ls_max_retries{3};

  // --- ACK'd forwarding (extension). The paper's §V-A dismisses per-hop
  //     acknowledgements as costly; enabling this quantifies that claim:
  //     every GF unicast expects an ACK and retries past silent hops.
  bool gf_ack{false};
  sim::Duration gf_ack_timeout{sim::Duration::millis(10)};
  int gf_ack_max_retries{2};

  // --- Recovery layer (docs/robustness.md): store-carry-forward, neighbour
  //     soft-state and bounded retransmission. Everything below is off by
  //     default, and off means *free*: no RNG draws, no scheduled events,
  //     so pre-recovery results stay bit-identical.

  /// Store-carry-forward (ETSI §E.2 done properly): the GF buffer becomes
  /// capacity-bounded with head-drop, entries expire with their packet's
  /// lifetime instead of a fixed retry budget, and a newly learned (or
  /// revived) neighbour flushes the buffer immediately from beacon ingest.
  bool scf_enabled{false};
  std::size_t scf_max_packets{64};
  std::size_t scf_max_bytes{64 * 1024};

  /// Bounded per-hop retransmission: a GF unicast hop that stays silent is
  /// retransmitted to the *same* hop up to `retx_max_attempts` times with
  /// exponential backoff before the next-best neighbour is tried (contrast
  /// gf_ack, which reroutes on the first silence). Backoff for attempt k is
  /// `retx_backoff_base * 2^k` plus a uniform draw from
  /// `retx_backoff_jitter`, taken from the router's deterministic stream.
  bool retx_enabled{false};
  int retx_max_attempts{3};
  sim::Duration retx_backoff_base{sim::Duration::millis(10)};
  sim::Duration retx_backoff_jitter{sim::Duration::millis(2)};

  /// Neighbour soft-state monitor: beacon-miss counting quarantines stale
  /// hops long before the 20 s LocTE TTL and evicts dead ones, so greedy
  /// forwarding stops selecting crashed/departed nodes.
  bool nbr_monitor{false};
  int nbr_quarantine_after{2};
  int nbr_evict_after{4};

  /// Bound CBF contention entries by their packet's lifetime: a deferred
  /// entry on a persistently busy channel can otherwise outlive the packet
  /// it carries. Enabled alongside SCF by the scenario harness.
  bool cbf_lifetime_expiry{false};

  // --- MAC contention layer (docs/robustness.md): CSMA/CA channel access
  //     with a bounded transmit queue, plus reactive DCC gating beacon and
  //     forward rates from the measured channel busy ratio. Both default
  //     off; off is free (no queueing, no events, no RNG draws), so
  //     pre-MAC outputs stay bit-identical.
  phy::MacConfig mac{};
  phy::DccConfig dcc{};

  // --- Mitigation #1 (paper §V-A): plausibility check at forwarding time.
  bool plausibility_check{false};
  double plausibility_threshold_m{486.0};
  /// Extrapolate the neighbour's PV to "now" using its speed/heading before
  /// measuring the distance. This is what lets the check also filter stale
  /// entries of departed vehicles in attacker-free traffic.
  bool plausibility_extrapolate{true};

  // --- Mitigation #2 (paper §V-B): RHL-drop check on CBF duplicates.
  bool rhl_drop_check{false};
  std::uint8_t rhl_drop_threshold{3};

  /// Convenience: populate technology-dependent fields from Table II.
  static RouterConfig for_technology(phy::AccessTechnology tech) {
    RouterConfig cfg;
    cfg.cbf_dist_max_m = phy::range_table(tech).nlos_median_m;
    cfg.plausibility_threshold_m = phy::range_table(tech).nlos_median_m;
    return cfg;
  }
};

}  // namespace vgr::gn
