#pragma once

#include <string>

#include "vgr/gn/config.hpp"

namespace vgr::mitigation {

/// Named mitigation bundles from the paper's §V, applied onto a
/// `RouterConfig`. Both defenses are standard-compatible: they change only
/// local receiver/forwarder behaviour, never the wire format.
enum class Profile {
  kNone,              ///< standard (vulnerable) GeoNetworking
  kPlausibilityCheck, ///< §V-A: GF forwards only to plausibly reachable hops
  kRhlDropCheck,      ///< §V-B: CBF ignores duplicates with a steep RHL drop
  kFull,              ///< both defenses
};

/// Tuning knobs for the two defenses.
struct Parameters {
  /// GF plausibility distance threshold; the paper uses the DSRC NLoS
  /// median (486 m). <= 0 keeps the config's existing threshold.
  double plausibility_threshold_m{-1.0};
  /// Dead-reckon neighbour PVs to "now" before the distance test.
  bool extrapolate{true};
  /// Maximum acceptable RHL drop between the buffered packet and a
  /// duplicate (paper: 3).
  std::uint8_t rhl_drop_threshold{3};

  friend bool operator==(const Parameters&, const Parameters&) = default;
};

/// Applies `profile` (with `params`) to `config`.
void apply(Profile profile, gn::RouterConfig& config, const Parameters& params = {});

[[nodiscard]] std::string to_string(Profile profile);

}  // namespace vgr::mitigation
