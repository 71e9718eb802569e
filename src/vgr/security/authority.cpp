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

bool TrustStore::certificate_valid(const Certificate& cert) const {
  const auto it = entries_.find(cert.serial);
  if (it == entries_.end() || it->second.revoked) return false;
  // The CA signature binds serial/subject/pseudonym-flag; a certificate
  // presenting a tampered subject fails here.
  return cert.ca_signature == it->second.ca_signature &&
         it->second.ca_signature ==
             keyed_digest(it->second.key,
                          certificate_tbs(cert.serial, cert.subject, cert.is_pseudonym));
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
    return VerifyResult{last_.ok, true};
  }
  const bool ok = verify(cert, portion->bytes, signature);
  last_ = LastVerdict{portion, cert, signature, generation_, ok};
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
  // A last verdict that read this serial as unknown (a churned node that
  // re-enrolled) is now stale.
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
    // A last verdict that accepted this certificate must not survive
    // revocation.
    ++store_->generation_;
  }
}

}  // namespace vgr::security
