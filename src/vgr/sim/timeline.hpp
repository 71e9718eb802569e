#pragma once

#include <cstddef>
#include <vector>

#include "vgr/sim/time.hpp"

namespace vgr::sim {

/// Accumulates (success, total) counts into fixed-width time bins.
///
/// The paper reports packet reception rates over forty 5-second bins of a
/// 200-second run, and attack rates (gamma / lambda) as the average relative
/// drop between an attacker-free and an attacked timeline. This type is the
/// single place that arithmetic lives so every bench computes it the same
/// way.
class BinnedRate {
 public:
  BinnedRate(Duration bin_width, Duration horizon);

  /// Records one trial at simulated time `t`: `hits` successes out of
  /// `trials` attempts (e.g. vehicles reached out of vehicles on road).
  void record(TimePoint t, double hits, double trials);

  [[nodiscard]] std::size_t bin_count() const { return hits_.size(); }
  [[nodiscard]] Duration bin_width() const { return bin_width_; }

  /// Rate of bin `i`, or `fallback` if the bin saw no trials.
  [[nodiscard]] double rate(std::size_t i, double fallback = 0.0) const;

  /// True if bin `i` recorded at least one trial.
  [[nodiscard]] bool has_data(std::size_t i) const { return trials_[i] > 0.0; }

  /// Overall rate across all bins (total hits / total trials).
  [[nodiscard]] double overall() const;

  /// Cumulative rate of bins [0, i] inclusive — used by the "accumulated
  /// interception rate over time" figures (Fig 8 / Fig 10).
  [[nodiscard]] double cumulative(std::size_t i) const;

  /// Raw accumulators of bin `i` — the serialization surface for the sweep
  /// journal (vgr/sweep), which must round-trip a timeline exactly so a
  /// resumed sweep merges bit-identically to an uninterrupted one.
  [[nodiscard]] double bin_hits(std::size_t i) const { return hits_[i]; }
  [[nodiscard]] double bin_trials(std::size_t i) const { return trials_[i]; }

  /// Restores bin `i` from journaled raw accumulators (see bin_hits).
  void set_bin(std::size_t i, double hits, double trials) {
    hits_[i] = hits;
    trials_[i] = trials;
  }

  /// Merges another timeline with identical geometry (e.g. across runs).
  void merge(const BinnedRate& other);

  /// Average relative drop from `baseline` to `attacked`, over bins where
  /// the baseline has data and a non-zero rate. This is the paper's
  /// interception rate gamma and blockage rate lambda.
  static double average_drop(const BinnedRate& baseline, const BinnedRate& attacked);

  /// Same bin width and the same raw accumulators in every bin, exactly.
  friend bool operator==(const BinnedRate&, const BinnedRate&) = default;

 private:
  Duration bin_width_;
  std::vector<double> hits_;
  std::vector<double> trials_;
};

}  // namespace vgr::sim
