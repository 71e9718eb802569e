#include "vgr/security/pseudonym.hpp"

#include <cassert>

namespace vgr::security {

PseudonymManager::PseudonymManager(CertificateAuthority& ca, std::size_t pool_size,
                                   sim::Duration rotation_period, sim::Rng rng)
    : rotation_period_{rotation_period} {
  assert(pool_size > 0);
  pool_.reserve(pool_size);
  for (std::size_t i = 0; i < pool_size; ++i) {
    // A fresh link-layer address per pseudonym, drawn independently of the
    // station's real MAC, keeps the aliases unlinkable.
    const auto alias_mac = net::MacAddress{rng.next_u64()};
    pool_.push_back(ca.issue_pseudonym(
        net::GnAddress{net::GnAddress::StationType::kPassengerCar, alias_mac}));
  }
  next_rotation_ = sim::TimePoint::origin() + rotation_period_;
}

const EnrolledIdentity& PseudonymManager::active(sim::TimePoint t) {
  while (t >= next_rotation_) {
    active_index_ = (active_index_ + 1) % pool_.size();
    next_rotation_ = next_rotation_ + rotation_period_;
    ++rotations_;
  }
  return pool_[active_index_];
}

net::GnAddress PseudonymManager::current_alias(sim::TimePoint t) {
  return active(t).certificate.subject;
}

}  // namespace vgr::security
