#pragma once

#include <unordered_set>

#include "vgr/attack/sniffer.hpp"

namespace vgr::attack {

/// Attack #2 — intra-area blockage (paper §III-C).
///
/// The attacker impersonates the fastest CBF forwarder: it captures a
/// GeoBroadcast packet and rebroadcasts it before any legitimate contention
/// timer (TO >= 1 ms) can fire. Every candidate forwarder that hears the
/// replay treats it as "someone already forwarded" and discards its
/// buffered copy.
///
/// Two modes, matching the paper's Spot 1 / Spot 2 discussion:
///  * kRhlRewrite — rewrite the (integrity-unprotected) RHL to 1 and blast
///    at full attack power. First-time receivers of the replay decrement
///    RHL to 0 and never forward, so over-reach cannot re-seed the flood.
///  * kTargetedReplay — replay the packet unmodified at a reduced power so
///    only the known candidate forwarders hear it (requires favourable
///    topology; used in the road-safety showcase against R1).
class IntraAreaBlocker final : public Sniffer {
 public:
  enum class Mode { kRhlRewrite, kTargetedReplay };

  struct Config {
    Mode mode{Mode::kRhlRewrite};
    /// RHL value written into the replay in kRhlRewrite mode.
    std::uint8_t rewritten_rhl{1};
    /// TX range for kTargetedReplay (<= 0 keeps the full attack range).
    double targeted_range_m{-1.0};
    /// Capture-to-replay latency; must stay below CBF TO_MIN (1 ms).
    sim::Duration processing_delay{sim::Duration::micros(500)};

    friend bool operator==(const Config&, const Config&) = default;
  };

  IntraAreaBlocker(sim::EventQueue& events, phy::Medium& medium, geo::Position position,
                   double attack_range_m);
  IntraAreaBlocker(sim::EventQueue& events, phy::Medium& medium, geo::Position position,
                   double attack_range_m, Config config);

  [[nodiscard]] std::uint64_t packets_replayed() const { return packets_replayed_; }
  [[nodiscard]] const Config& config() const { return config_; }

 private:
  void on_capture(const phy::Frame& frame) override;

  Config config_;
  /// One replay per (source, sequence number) — replaying later copies of
  /// the same flood would only hand fresh packets to new receivers.
  std::unordered_set<std::uint64_t> replayed_;
  std::uint64_t packets_replayed_{0};
};

}  // namespace vgr::attack
