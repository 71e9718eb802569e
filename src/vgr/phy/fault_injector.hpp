#pragma once

#include <cstdint>

#include "vgr/net/packet.hpp"
#include "vgr/sim/random.hpp"
#include "vgr/sim/time.hpp"

namespace vgr::phy {

/// Configuration of the deterministic channel fault model. All probabilities
/// are per-event Bernoulli parameters in [0, 1]; every field defaults to
/// "off" so a default-constructed config is a perfect channel and the
/// injector draws nothing from its RNG stream (which is what keeps
/// fault-free runs bit-identical to runs without an injector installed).
///
/// Two loss granularities are modelled:
///  * frame-level — the transmission is lost channel-wide (nobody receives
///    it): the i.i.d. `drop_probability` plus a two-state Gilbert–Elliott
///    chain for bursty outages (DCC throttling, jamming, deep fades);
///  * delivery-level — each (frame, receiver) pair fails independently:
///    `link_loss_probability` for clean loss and `corrupt_probability` for
///    byte-level corruption that the receiver's decoder must survive.
struct FaultConfig {
  /// i.i.d. probability that a transmitted frame is lost channel-wide.
  double drop_probability{0.0};

  /// Gilbert–Elliott burst model, advanced one step per transmitted frame.
  /// The chain is active when `ge_p_good_to_bad > 0`; while in the bad
  /// state frames are lost with `ge_loss_bad` (default: total outage).
  double ge_p_good_to_bad{0.0};
  double ge_p_bad_to_good{0.1};
  double ge_loss_good{0.0};
  double ge_loss_bad{1.0};

  /// i.i.d. probability that one receiver misses an otherwise-sent frame.
  double link_loss_probability{0.0};

  /// i.i.d. probability that one receiver gets a byte-corrupted copy (the
  /// wire image is re-encoded, bit-flipped and delivered as `Frame::raw`).
  double corrupt_probability{0.0};

  /// Probability that a frame is transmitted twice (stale retransmission /
  /// echo); the duplicate airs after the original's airtime.
  double duplicate_probability{0.0};

  /// Upper bound of a uniform extra delivery delay per frame. Frames
  /// delayed past later traffic arrive out of order at their receivers.
  double max_extra_delay_s{0.0};

  [[nodiscard]] bool enabled() const {
    return drop_probability > 0.0 || ge_p_good_to_bad > 0.0 ||
           link_loss_probability > 0.0 || corrupt_probability > 0.0 ||
           duplicate_probability > 0.0 || max_extra_delay_s > 0.0;
  }

  friend bool operator==(const FaultConfig&, const FaultConfig&) = default;
};

/// Counters for every fault the injector has applied.
struct FaultStats {
  std::uint64_t frames_dropped{0};       ///< channel-wide losses (all causes)
  std::uint64_t frames_dropped_burst{0}; ///< subset lost while GE state = bad
  std::uint64_t deliveries_dropped{0};   ///< per-receiver clean losses
  std::uint64_t deliveries_corrupted{0}; ///< per-receiver corrupted copies
  std::uint64_t frames_duplicated{0};
  std::uint64_t frames_delayed{0};
};

/// Deterministic fault source hooked into `Medium::transmit`.
///
/// The injector owns a private seeded `sim::Rng` stream, separate from the
/// medium's: the fault draws consume nothing from any other stream, so (1)
/// installing a *disabled* injector changes no run, and (2) a fault-injected
/// run is reproducible from (seed, config) alone — independent of thread
/// count, because all draws happen inside the single-threaded event loop in
/// frame order.
class FaultInjector {
 public:
  FaultInjector(FaultConfig config, sim::Rng rng)
      : config_{config}, rng_{rng}, enabled_{config.enabled()} {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const FaultConfig& config() const { return config_; }
  [[nodiscard]] const FaultStats& stats() const { return stats_; }
  [[nodiscard]] bool burst_state_bad() const { return ge_bad_; }

  /// Frame-level faults, drawn once per transmitted frame.
  struct FrameDecision {
    bool drop{false};
    bool duplicate{false};
    sim::Duration extra_delay{};
  };
  FrameDecision on_frame();

  /// Per-(frame, receiver) clean loss.
  bool drop_delivery();

  /// Per-(frame, receiver) corruption decision.
  bool corrupt_delivery();

  /// Flips 1–4 random bits of `wire` in place (counts one corruption).
  void corrupt_bytes(net::Bytes& wire);

 private:
  FaultConfig config_;
  sim::Rng rng_;
  bool enabled_;
  bool ge_bad_{false};
  FaultStats stats_{};
};

}  // namespace vgr::phy
