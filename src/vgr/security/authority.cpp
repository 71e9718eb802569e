#include "vgr/security/authority.hpp"

namespace vgr::security {
namespace {

net::Bytes certificate_tbs(CertificateSerial serial, net::GnAddress subject, bool pseudonym) {
  net::Bytes tbs;
  for (int i = 0; i < 4; ++i) tbs.push_back(static_cast<std::uint8_t>(serial >> (8 * i)));
  const std::uint64_t bits = subject.bits();
  for (int i = 0; i < 8; ++i) tbs.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  tbs.push_back(pseudonym ? 1 : 0);
  return tbs;
}

}  // namespace

bool TrustStore::certificate_valid_uncached(const Certificate& cert) const {
  const auto it = entries_.find(cert.serial);
  if (it == entries_.end() || it->second.revoked) return false;
  // The CA signature binds serial/subject/pseudonym-flag; a certificate
  // presenting a tampered subject fails here.
  return cert.ca_signature == it->second.ca_signature &&
         it->second.ca_signature ==
             keyed_digest(it->second.key,
                          certificate_tbs(cert.serial, cert.subject, cert.is_pseudonym));
}

bool TrustStore::certificate_valid(const Certificate& cert) const {
  const auto it = cert_cache_.find(cert.serial);
  if (it != cert_cache_.end() && it->second.generation == generation_ &&
      it->second.cert == cert) {
    ++stats_.cert_hits;
    cert_lru_.splice(cert_lru_.begin(), cert_lru_, it->second.lru_it);
    return it->second.valid;
  }
  ++stats_.cert_misses;
  const bool valid = certificate_valid_uncached(cert);
  if (it != cert_cache_.end()) {
    // Same serial, stale generation or different certificate value: refresh
    // in place.
    it->second.cert = cert;
    it->second.generation = generation_;
    it->second.valid = valid;
    cert_lru_.splice(cert_lru_.begin(), cert_lru_, it->second.lru_it);
    return valid;
  }
  if (cert_cache_.size() >= kCertCacheCapacity) {
    cert_cache_.erase(cert_lru_.back());
    cert_lru_.pop_back();
  }
  cert_lru_.push_front(cert.serial);
  cert_cache_.emplace(cert.serial,
                      CertCacheEntry{cert, generation_, valid, cert_lru_.begin()});
  return valid;
}

bool TrustStore::verify(const Certificate& cert, const net::Bytes& message,
                        std::uint64_t signature) const {
  if (!certificate_valid(cert)) return false;
  const auto it = entries_.find(cert.serial);
  return signature == keyed_digest(it->second.key, message);
}

VerifyResult TrustStore::verify_message(const Certificate& cert,
                                        const SignedPortionPtr& portion,
                                        std::uint64_t signature) const {
  if (last_.portion == portion && last_.generation == generation_ &&
      last_.signature == signature && last_.cert == cert) {
    ++stats_.memo_hits;  // the probe's hit, whose LRU splice would be a no-op
    return VerifyResult{last_.ok, true};
  }
  const VerifyResult result = probe_memo(cert, portion, signature);
  last_ = LastVerdict{portion, cert, signature, generation_, result.ok};
  return result;
}

VerifyResult TrustStore::probe_memo(const Certificate& cert, const SignedPortionPtr& portion,
                                    std::uint64_t signature) const {
  const std::uint64_t key = portion->digest;
  const auto it = memo_.find(key);
  if (it != memo_.end()) {
    const MemoEntry& e = it->second;
    // Exact-match hit condition: nothing about the memoized question may
    // differ from the current one. Pointer identity covers the common case
    // (all receivers of one frame, later hops of one forward share the
    // portion object); byte equality is the collision-proof fallback.
    if (e.generation == generation_ && e.signature == signature && e.cert == cert &&
        (e.portion == portion || e.portion->bytes == portion->bytes)) {
      ++stats_.memo_hits;
      memo_lru_.splice(memo_lru_.begin(), memo_lru_, e.lru_it);
      return VerifyResult{e.ok, true};
    }
  }
  ++stats_.memo_misses;
  const bool ok = verify(cert, portion->bytes, signature);
  if (it != memo_.end()) {
    it->second =
        MemoEntry{portion, cert, signature, generation_, ok, it->second.lru_it};
    memo_lru_.splice(memo_lru_.begin(), memo_lru_, it->second.lru_it);
    return VerifyResult{ok, false};
  }
  if (memo_.size() >= kMemoCapacity) {
    memo_.erase(memo_lru_.back());
    memo_lru_.pop_back();
  }
  memo_lru_.push_front(key);
  memo_.emplace(key, MemoEntry{portion, cert, signature, generation_, ok, memo_lru_.begin()});
  return VerifyResult{ok, false};
}

CertificateAuthority::CertificateAuthority(std::uint64_t root_secret)
    : root_secret_{root_secret}, store_{std::make_shared<TrustStore>()} {}

EnrolledIdentity CertificateAuthority::issue(net::GnAddress subject, bool pseudonym) {
  const CertificateSerial serial = next_serial_++;
  // Per-certificate key, derived from the root secret. Never leaves the CA
  // except inside the opaque PrivateKey capability.
  std::uint64_t key = root_secret_ ^ (static_cast<std::uint64_t>(serial) * 0x9e3779b97f4a7c15ULL);
  key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9ULL;
  key |= 1;  // never zero: zero marks an invalid PrivateKey

  Certificate cert;
  cert.serial = serial;
  cert.subject = subject;
  cert.is_pseudonym = pseudonym;
  cert.ca_signature = keyed_digest(key, certificate_tbs(serial, subject, pseudonym));

  store_->entries_[serial] = TrustStore::Entry{key, cert.ca_signature, false};
  // Any cached negative verdict for this serial (e.g. "unknown certificate"
  // observed before a churned node re-enrolled) is now stale.
  ++store_->generation_;
  return EnrolledIdentity{cert, PrivateKey{key}};
}

EnrolledIdentity CertificateAuthority::enroll(net::GnAddress subject) {
  return issue(subject, /*pseudonym=*/false);
}

EnrolledIdentity CertificateAuthority::issue_pseudonym(net::GnAddress alias) {
  return issue(alias, /*pseudonym=*/true);
}

void CertificateAuthority::revoke(CertificateSerial serial) {
  const auto it = store_->entries_.find(serial);
  if (it != store_->entries_.end()) {
    it->second.revoked = true;
    // Cached positive verdicts for this certificate — validity entries and
    // verification memos alike — must not survive revocation.
    ++store_->generation_;
  }
}

}  // namespace vgr::security
