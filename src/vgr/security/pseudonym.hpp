#pragma once

#include <vector>

#include "vgr/security/authority.hpp"
#include "vgr/security/secured_message.hpp"
#include "vgr/sim/random.hpp"
#include "vgr/sim/time.hpp"

namespace vgr::security {

/// Manages a pool of pseudonym certificates for one station and rotates the
/// active one on a schedule (ETSI TS 102 731 privacy service). A station
/// signing under a pseudonym is unlinkable across rotations, but — key for
/// the paper's threat model — its *position* is still broadcast in clear.
class PseudonymManager {
 public:
  /// Pre-provisions `pool_size` pseudonyms for one station.
  PseudonymManager(CertificateAuthority& ca, std::size_t pool_size,
                   sim::Duration rotation_period, sim::Rng rng);

  /// Identity to sign with at time `t` (rotates automatically).
  const EnrolledIdentity& active(sim::TimePoint t);

  /// GN address the station currently presents.
  net::GnAddress current_alias(sim::TimePoint t);

  [[nodiscard]] std::size_t pool_size() const { return pool_.size(); }
  [[nodiscard]] std::size_t rotations() const { return rotations_; }

 private:
  std::vector<EnrolledIdentity> pool_;
  sim::Duration rotation_period_;
  sim::TimePoint next_rotation_{};
  std::size_t active_index_{0};
  std::size_t rotations_{0};
};

}  // namespace vgr::security
