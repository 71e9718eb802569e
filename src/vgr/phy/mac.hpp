#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>

#include "vgr/phy/dcc.hpp"
#include "vgr/phy/medium.hpp"
#include "vgr/sim/event_queue.hpp"
#include "vgr/sim/random.hpp"
#include "vgr/sim/time.hpp"

namespace vgr::phy {

/// Coarse access classes for MAC admission. Beacons are freshness-bound
/// (their PV is stale within seconds), so a closed DCC gate drops them at
/// admission; data packets are paced through the queue instead.
enum class MacAccessClass : std::uint8_t { kBeacon, kData };

/// CSMA/CA contention layer configuration. Defaults model an ITS-G5/DSRC
/// OCB channel (13 µs slots, AIFS ≈ SIFS + 2 slots, CW 15..1023, 7 retries)
/// but every value is a knob. `enabled` defaults to false and off is free:
/// the MAC is then a passthrough that queues nothing, schedules no events
/// and draws nothing from any RNG stream, so runs without the layer stay
/// bit-identical to pre-MAC builds.
struct MacConfig {
  bool enabled{false};

  /// Bounded per-node transmit queue; arrivals beyond this tail-drop.
  std::size_t queue_limit{32};

  // --- CSMA/CA timing (ITS-G5 OCB defaults).
  sim::Duration slot{sim::Duration::micros(13)};
  sim::Duration aifs{sim::Duration::micros(58)};
  /// Contention windows: a backoff draws uniformly from [0, cw] slots. The
  /// window starts at `cw_min` and doubles (2*cw+1) per failed contention
  /// up to `cw_max` — unless DCC is pacing, in which case the window stays
  /// at `cw_min` (Toff gaps replace the exponential penalty).
  int cw_min{15};
  int cw_max{1023};
  /// Failed contentions (backoff landed on a busy channel again) tolerated
  /// per frame before a retry-exhaustion drop.
  int max_retries{7};
  /// Retry-budget multiplier while DCC is active: a paced station transmits
  /// rarely, so it can afford to keep contending politely instead of
  /// dropping — this is the graceful-degradation half of the DCC story.
  int dcc_retry_scale{4};

  /// Link-layer bytes around the GN wire image counted into every frame's
  /// airtime while the MAC is enabled (802.11 MAC header 24 + QoS 2 +
  /// LLC/SNAP 8 + FCS 4 = 38). The GN packet itself is measured exactly via
  /// Codec::wire_size; this models the framing the codec never sees. Only
  /// applied with `enabled` (the scenario forwards it to
  /// Medium::set_airtime_overhead_bytes), so MAC-off runs keep the
  /// historical GN-only airtime bit-for-bit.
  std::size_t airtime_overhead_bytes{38};

  /// Largest window and retry settings whose arithmetic stays in int: the
  /// window grows as 2*cw+1, and the DCC retry budget is
  /// max_retries * dcc_retry_scale. The VGR_MAC_* knobs reject larger values.
  static constexpr int kCwLimit = (std::numeric_limits<int>::max() - 1) / 2;
  static constexpr int kRetryLimit = 46340;

  friend bool operator==(const MacConfig&, const MacConfig&) = default;
};

static_assert(MacConfig::kRetryLimit * MacConfig::kRetryLimit <= std::numeric_limits<int>::max(),
              "the DCC retry budget must fit in int");

/// Per-cause MAC counters (all drops are mutually exclusive per frame).
struct MacStats {
  std::uint64_t enqueued{0};             ///< frames offered by the router
  std::uint64_t transmitted{0};          ///< frames that made it onto the air
  std::uint64_t queue_overflow_drops{0}; ///< tail-dropped at admission
  std::uint64_t retry_exhausted_drops{0};///< out of contention attempts
  std::uint64_t dcc_gated_drops{0};      ///< beacons shed while the gate was closed
  std::uint64_t backoff_retries{0};      ///< backoffs that landed on a busy channel
  std::uint64_t cbr_samples{0};

  friend bool operator==(const MacStats&, const MacStats&) = default;
};

/// CSMA/CA channel access with a bounded transmit queue and reactive DCC,
/// sitting between `gn::Router` and `phy::Medium`.
///
/// Model: one frame contends at a time (the queue head). A sense that finds
/// the channel busy schedules a re-sense at `busy_until + AIFS + backoff`
/// where backoff is a uniform draw of [0, cw] slots from the MAC's private
/// deterministic stream; a backoff that lands on a busy channel again counts
/// one failed contention (the slotted countdown-freeze of real 802.11p is
/// collapsed into the re-draw — the retry/starvation behaviour under load is
/// what the reproduction needs, not slot-exact timing). Frames out of
/// attempts are dropped with a per-cause counter. With DCC enabled the MAC
/// additionally samples the channel busy ratio from `Medium::busy_time` and
/// enforces the state ladder's Toff gap between its own transmissions.
///
/// Everything runs inside the single-threaded event loop and all randomness
/// comes from the constructor-supplied stream, so MAC-enabled runs replay
/// bit-identically from (seed, config) at any harness thread count.
///
/// Fault-injection ordering contract: the channel `FaultInjector` draws its
/// frame-level decisions inside `Medium::transmit`, which the MAC calls at
/// *dequeue* time — injected delay and duplication therefore apply after MAC
/// queueing and contention, never to frames still waiting in the queue.
/// This is the documented composition order, pinned by phy_mac_test.
class Mac {
 public:
  /// `cohort` hosts every MAC-scheduled event, so the owning router's
  /// shutdown retires them together with its own timers.
  Mac(sim::EventQueue& events, Medium& medium, RadioId radio, sim::CohortId cohort,
      MacConfig config, DccConfig dcc_config, sim::Rng rng);

  Mac(const Mac&) = delete;
  Mac& operator=(const Mac&) = delete;

  /// Offers a frame for transmission. Disabled MAC: synchronous passthrough
  /// to `Medium::transmit`. Enabled: DCC admission (beacons only), bounded
  /// queue, then CSMA service. `range_override_m` rides along untouched.
  void enqueue(Frame frame, MacAccessClass access_class, double range_override_m = -1.0);

  [[nodiscard]] bool enabled() const { return config_.enabled; }
  [[nodiscard]] const MacStats& stats() const { return stats_; }
  [[nodiscard]] const Dcc& dcc() const { return dcc_; }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  [[nodiscard]] const MacConfig& config() const { return config_; }
  /// Earliest instant DCC allows the next transmission (== now when open).
  [[nodiscard]] sim::TimePoint gate_open_at() const { return next_tx_allowed_; }

 private:
  struct Pending {
    Frame frame;
    double range_override_m;
  };

  /// One contention step for the queue head: wait out the DCC gate, sense
  /// the carrier, transmit or back off.
  void sense();
  void schedule_sense(sim::TimePoint at);
  void transmit_head();
  /// Drops the head for retry exhaustion and restarts service on the next.
  void drop_head();
  void reset_contention();
  void schedule_cbr_sample();
  [[nodiscard]] int retry_budget() const {
    return dcc_.enabled() ? config_.max_retries * config_.dcc_retry_scale
                          : config_.max_retries;
  }

  sim::EventQueue& events_;
  Medium& medium_;
  RadioId radio_;
  sim::CohortId cohort_;
  MacConfig config_;
  sim::Rng rng_;
  Dcc dcc_;
  std::deque<Pending> queue_;
  /// True while a sense event for the queue head is pending (or running).
  bool serving_{false};
  /// Contention state of the current head.
  int cw_;
  int attempts_{0};
  bool backed_off_{false};
  /// DCC pacing gate; transmissions wait until this instant.
  sim::TimePoint next_tx_allowed_{};
  /// `Medium::busy_time` reading at the previous CBR sample.
  sim::Duration busy_seen_{};
  MacStats stats_;
};

}  // namespace vgr::phy
