#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "vgr/net/packet.hpp"
#include "vgr/security/certificate.hpp"
#include "vgr/security/crypto.hpp"
#include "vgr/security/signed_portion.hpp"

namespace vgr::security {

/// A node's enrolled identity: its public certificate plus the private key
/// that signs on its behalf. The key never appears in any message.
struct EnrolledIdentity {
  Certificate certificate{};
  PrivateKey key{};
};

/// Outcome of one verification.
struct VerifyResult {
  bool ok{false};
  /// True when the verdict was answered from the trust store's last verdict
  /// instead of computed. Purely observational (stats); `ok` is identical
  /// either way — a verdict is a pure function of its question.
  bool from_memo{false};
};

/// Verification oracle shared by all nodes. In a real deployment this role
/// is played by public-key cryptography (anyone can verify, nobody can
/// forge); here the trust store holds the per-certificate verification keys
/// privately and only exposes a boolean verdict, preserving the same
/// capability split.
///
/// One cache makes repeated verification cheap without changing a single
/// verdict: the last `verify_message` question and its answer. Every
/// co-receiver of one frame asks the same question in a row, so it answers
/// nearly every call; anything else is computed in full. The question
/// carries the store's `generation`, which the owning CA bumps on every
/// issue and revoke — the structural analogue of a certificate expiry
/// boundary — so a verdict from before a trust change is re-derived.
class TrustStore {
 public:
  /// True iff `cert` was issued by the CA behind this store and has not been
  /// revoked.
  [[nodiscard]] bool certificate_valid(const Certificate& cert) const;

  /// True iff `signature` is a valid tag over `message` under the key bound
  /// to `cert` (and the certificate itself is valid). Uncached byte-string
  /// entry point; the hot path is `verify_message`.
  [[nodiscard]] bool verify(const Certificate& cert, const net::Bytes& message,
                            std::uint64_t signature) const;

  /// Verification of a shared signed-portion encoding. A call that repeats
  /// the previous call's question exactly — the same portion object,
  /// certificate, signature and generation — is answered from that call's
  /// verdict; any other call, equal bytes in another object included, is
  /// computed in full through `verify`.
  [[nodiscard]] VerifyResult verify_message(const Certificate& cert,
                                            const SignedPortionPtr& portion,
                                            std::uint64_t signature) const;

  /// Monotone trust-state version; bumped by the CA on issue and revoke.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

 private:
  friend class CertificateAuthority;
  struct Entry {
    std::uint64_t key;
    std::uint64_t ca_signature;
    bool revoked;
  };
  std::unordered_map<CertificateSerial, Entry> entries_;
  std::uint64_t generation_{0};

  // The last verify_message question and its verdict. The portion is held
  // owning, so a freed portion's address can never match a new one.
  struct LastVerdict {
    SignedPortionPtr portion;
    Certificate cert;
    std::uint64_t signature{0};
    std::uint64_t generation{0};
    bool ok{false};
  };
  mutable LastVerdict last_;
};

/// Certification authority (e.g. the US DOT SCMS root in the paper's
/// setting). Enrolls stations, issues pseudonym certificates, revokes
/// certificates, and owns the trust store every verifier consults.
class CertificateAuthority {
 public:
  explicit CertificateAuthority(std::uint64_t root_secret = 0xA5A5'DEAD'BEEF'0001ULL);

  /// Issues a long-term certificate for the station's canonical address.
  EnrolledIdentity enroll(net::GnAddress subject);

  /// Issues a pseudonym certificate: same signing rights, unlinkable
  /// subject. `alias` is the pseudonymous GN address the station will use.
  EnrolledIdentity issue_pseudonym(net::GnAddress alias);

  /// Marks a certificate invalid for all future verifications.
  void revoke(CertificateSerial serial);

  [[nodiscard]] std::shared_ptr<const TrustStore> trust_store() const { return store_; }
  [[nodiscard]] std::size_t issued_count() const { return next_serial_ - 1; }

 private:
  EnrolledIdentity issue(net::GnAddress subject, bool pseudonym);

  std::uint64_t root_secret_;
  CertificateSerial next_serial_{1};
  std::shared_ptr<TrustStore> store_;
};

}  // namespace vgr::security
