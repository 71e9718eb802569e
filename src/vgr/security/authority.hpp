#pragma once

#include <cstdint>
#include <list>
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

/// Outcome of one memoized verification.
struct VerifyResult {
  bool ok{false};
  /// True when the verdict was replayed from the verification memo instead
  /// of recomputed. Purely observational (stats); `ok` is identical either
  /// way — the memo is a pure-function cache.
  bool from_memo{false};
};

/// Aggregate hit/miss counters for the two TrustStore caches.
struct TrustCacheStats {
  std::uint64_t cert_hits{0};
  std::uint64_t cert_misses{0};
  std::uint64_t memo_hits{0};
  std::uint64_t memo_misses{0};
};

/// Verification oracle shared by all nodes. In a real deployment this role
/// is played by public-key cryptography (anyone can verify, nobody can
/// forge); here the trust store holds the per-certificate verification keys
/// privately and only exposes a boolean verdict, preserving the same
/// capability split.
///
/// Two memoization layers make repeated verification cheap without changing
/// a single verdict:
///  - a certificate-validity LRU (the CA-signature check per pseudonym),
///  - a per-message verification memo keyed by the signed-portion digest,
///    with the full (certificate, signature, bytes) tuple re-checked on
///    every hit so neither a digest collision nor post-verify tampering can
///    produce a false accept.
/// Both caches carry the store's `generation`, which the owning CA bumps on
/// every issue and revoke — the structural analogue of a certificate expiry
/// boundary — so verdicts cached before a trust change are re-derived.
class TrustStore {
 public:
  /// True iff `cert` was issued by the CA behind this store and has not been
  /// revoked. Memoized per serial (LRU).
  [[nodiscard]] bool certificate_valid(const Certificate& cert) const;

  /// True iff `signature` is a valid tag over `message` under the key bound
  /// to `cert` (and the certificate itself is valid). Uncached byte-string
  /// entry point; the hot path is `verify_message`.
  [[nodiscard]] bool verify(const Certificate& cert, const net::Bytes& message,
                            std::uint64_t signature) const;

  /// Memoized verification of a shared signed-portion encoding. The memo
  /// hit condition is exact: same generation, same signature, same
  /// certificate (all fields), and the same portion — by pointer identity
  /// or, failing that, byte equality. Anything less is a miss and is
  /// recomputed in full. A call that repeats the previous call's question
  /// (the same portion object, certificate, signature and generation — what
  /// every co-receiver of one frame asks) is answered from that call's
  /// verdict without the memo probe: the previous call left that question's
  /// entry at the front of the memo, so the probe would hit it and change
  /// nothing but the hit count, which this path counts too.
  [[nodiscard]] VerifyResult verify_message(const Certificate& cert,
                                            const SignedPortionPtr& portion,
                                            std::uint64_t signature) const;

  [[nodiscard]] const TrustCacheStats& cache_stats() const { return stats_; }

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

  [[nodiscard]] bool certificate_valid_uncached(const Certificate& cert) const;
  /// verify_message's memo probe, and the full verification on a miss.
  [[nodiscard]] VerifyResult probe_memo(const Certificate& cert, const SignedPortionPtr& portion,
                                        std::uint64_t signature) const;

  // Certificate-validity LRU. Keyed by serial; an entry answers only for the
  // exact certificate value it was computed for (tampered subject bytes under
  // a cached serial still miss).
  struct CertCacheEntry {
    Certificate cert;
    std::uint64_t generation;
    bool valid;
    std::list<CertificateSerial>::iterator lru_it;
  };
  static constexpr std::size_t kCertCacheCapacity = 4096;
  mutable std::list<CertificateSerial> cert_lru_;  // front = most recent
  mutable std::unordered_map<CertificateSerial, CertCacheEntry> cert_cache_;

  // Per-message verification memo, bucketed by signed-portion digest. One
  // entry per bucket; collisions simply overwrite (LRU list keeps eviction
  // deterministic and bounded).
  struct MemoEntry {
    SignedPortionPtr portion;
    Certificate cert;
    std::uint64_t signature;
    std::uint64_t generation;
    bool ok;
    std::list<std::uint64_t>::iterator lru_it;
  };
  static constexpr std::size_t kMemoCapacity = 8192;
  mutable std::list<std::uint64_t> memo_lru_;  // front = most recent
  mutable std::unordered_map<std::uint64_t, MemoEntry> memo_;

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

  mutable TrustCacheStats stats_;
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
