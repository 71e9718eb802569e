#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "vgr/sim/time.hpp"

namespace vgr::phy {

/// Reactive Decentralized Congestion Control (ETSI TS 102 687 style).
///
/// The access layer measures the channel busy ratio (CBR) over a sliding
/// window and maps it onto a small state ladder; each state prescribes a
/// minimum gap (Toff) between this station's transmissions. Under overload
/// every honest station sheds load proportionally — beacons are dropped at
/// admission while the gate is closed, data is paced — instead of escalating
/// its contention window until the retry budget collapses.
///
/// Defaults follow the reactive parametrisation of TS 102 687 (CBR bands
/// 0.30/0.40/0.50/0.62, Toff 60..460 ms). Everything defaults off, and off
/// is free: no samples are taken, no state is advanced, no gate is applied,
/// so runs without DCC stay bit-identical to builds without this layer.
struct DccConfig {
  bool enabled{false};

  /// CBR sampling cadence and sliding-window length (state decisions use
  /// the window average, which is what keeps one attacker burst from
  /// flapping the ladder every 100 ms).
  sim::Duration sample_interval{sim::Duration::millis(100)};
  std::size_t window_samples{10};
  /// Capacity of the Dcc sample ring: a longer window is clamped to it.
  static constexpr std::size_t kMaxWindow = 64;

  /// CBR band upper edges: below `thresholds[0]` the station is Relaxed,
  /// above `thresholds[3]` it is Restrictive.
  std::array<double, 4> thresholds{0.30, 0.40, 0.50, 0.62};

  /// Minimum inter-transmission gap per state
  /// (Relaxed, Active1, Active2, Active3, Restrictive).
  std::array<sim::Duration, 5> toff{
      sim::Duration::millis(60), sim::Duration::millis(100), sim::Duration::millis(180),
      sim::Duration::millis(260), sim::Duration::millis(460)};

  friend bool operator==(const DccConfig&, const DccConfig&) = default;
};

/// Per-node reactive DCC state machine. Pure and deterministic: it consumes
/// CBR samples pushed by the MAC's sampling event and exposes the current
/// state's Toff; it owns no RNG and schedules no events itself.
class Dcc {
 public:
  enum class State : std::uint8_t { kRelaxed, kActive1, kActive2, kActive3, kRestrictive };

  explicit Dcc(DccConfig config);

  /// Feeds one CBR sample (clamped to [0, 1]) into the sliding window and
  /// recomputes the state from the window average.
  void on_sample(double cbr);

  [[nodiscard]] bool enabled() const { return config_.enabled; }
  [[nodiscard]] State state() const { return state_; }
  /// Minimum gap between transmissions in the current state.
  [[nodiscard]] sim::Duration toff() const {
    return config_.toff[static_cast<std::size_t>(state_)];
  }
  /// Window-averaged CBR the current state was derived from.
  [[nodiscard]] double cbr() const { return avg_; }
  /// Highest raw (unsmoothed) sample seen so far — the bench sweeps report
  /// this to show how hard the attacker actually loaded the channel.
  [[nodiscard]] double peak_cbr() const { return peak_; }
  [[nodiscard]] std::uint64_t samples() const { return samples_; }
  [[nodiscard]] std::uint64_t state_changes() const { return state_changes_; }
  [[nodiscard]] const DccConfig& config() const { return config_; }

 private:
  [[nodiscard]] State state_for(double avg) const;

  DccConfig config_;
  /// Fixed-capacity ring of the last `window_samples` samples.
  std::array<double, DccConfig::kMaxWindow> window_{};
  std::size_t next_{0};
  std::size_t filled_{0};
  double avg_{0.0};
  double peak_{0.0};
  State state_{State::kRelaxed};
  std::uint64_t samples_{0};
  std::uint64_t state_changes_{0};
};

const char* name(Dcc::State state);

}  // namespace vgr::phy
