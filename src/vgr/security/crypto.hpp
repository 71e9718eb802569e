#pragma once

#include <cstdint>

#include "vgr/net/packet.hpp"

namespace vgr::security {

/// Keyed 64-bit message digest (FNV-1a core with a SplitMix64 finaliser).
///
/// This is a *structural* stand-in for ECDSA in the real stack: it is not
/// cryptographically strong, but within this codebase it provides the two
/// properties the paper's threat model needs — (1) a valid tag cannot be
/// produced without the signing key and (2) any modification of the covered
/// bytes invalidates the tag. See DESIGN.md §1 for the substitution note.
std::uint64_t keyed_digest(std::uint64_t key, const net::Bytes& message);

/// Private signing key. Only `CertificateAuthority::enroll` mints these, so
/// possession of a `PrivateKey` is the capability boundary between enrolled
/// nodes and the outsider attacker (which, per the threat model, has none).
class PrivateKey {
 public:
  PrivateKey() = default;

  [[nodiscard]] bool valid() const { return key_ != 0; }

 private:
  friend class CertificateAuthority;
  friend class Signer;
  explicit PrivateKey(std::uint64_t key) : key_{key} {}
  std::uint64_t key_{0};
};

}  // namespace vgr::security
