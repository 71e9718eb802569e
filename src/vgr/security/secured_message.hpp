#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "vgr/net/codec.hpp"
#include "vgr/net/packet.hpp"
#include "vgr/security/authority.hpp"
#include "vgr/security/certificate.hpp"
#include "vgr/security/crypto.hpp"
#include "vgr/security/signed_portion.hpp"

namespace vgr::security {

/// Signs GeoNetworking packets on behalf of one enrolled identity.
class Signer {
 public:
  explicit Signer(EnrolledIdentity identity) : identity_{std::move(identity)} {}

  [[nodiscard]] const Certificate& certificate() const { return identity_.certificate; }

  /// Tag over an arbitrary byte string (used by the message envelope).
  [[nodiscard]] std::uint64_t sign(const net::Bytes& message) const {
    return keyed_digest(identity_.key.key_, message);
  }

 private:
  EnrolledIdentity identity_;
};

/// The secured envelope that actually crosses the air (ETSI TS 103 097 /
/// IEEE 1609.2 style, structurally).
///
/// Signature scope: the signed portion of the packet (common header,
/// extended header — position vectors, sequence number, destination area —
/// and payload). The Basic Header, including the Remaining Hop Limit, is
/// excluded so that forwarders can decrement RHL in flight. The paper's
/// attacks live exactly in this gap: a captured envelope replays as valid
/// (attack #1), and its RHL can be rewritten without detection (attack #2).
///
/// The envelope owns two lazily-built, shared caches:
///  - the signed-portion encoding (`signed_portion()`), built at `sign()`
///    time or first use and shared across copies, so verification and
///    re-broadcast never re-serialize the packet;
///  - the full wire image (`wire()`), assembled from the signed portion plus
///    the 10-byte Basic Header.
/// All mutation goes through the explicit mutators below, which drop exactly
/// the caches the mutation can invalidate — `with_remaining_hop_limit()`
/// keeps the signed-portion cache because the RHL lives outside the
/// signature scope. Copies share caches by `shared_ptr`, which is what makes
/// the per-receiver ingest path and multi-hop forwarding allocation-free.
class SecuredMessage {
 public:
  SecuredMessage() = default;

  /// Builds a signed envelope for `packet` under `signer`'s identity. The
  /// signed-portion cache is populated eagerly (it is the exact byte string
  /// being signed).
  static SecuredMessage sign(const net::Packet& packet, const Signer& signer);

  /// Assembles an envelope from received or forged parts — the raw-ingest
  /// decode path, attack code and tests use this. Caches start empty.
  static SecuredMessage from_parts(net::Packet packet, Certificate signer,
                                   std::uint64_t signature);

  [[nodiscard]] const net::Packet& packet() const { return packet_; }
  [[nodiscard]] const Certificate& signer() const { return signer_; }
  [[nodiscard]] std::uint64_t signature() const { return signature_; }

  /// Mutable access to the packet. Drops both caches: any field of the
  /// packet may change under the caller's hands, including signed ones.
  [[nodiscard]] net::Packet& mutable_packet() {
    sp_cache_.reset();
    wire_cache_.reset();
    return packet_;
  }

  void set_packet(net::Packet p) {
    packet_ = std::move(p);
    sp_cache_.reset();
    wire_cache_.reset();
  }

  /// The certificate and signature ride alongside the packet; neither feeds
  /// the cached encodings, so these mutators leave the caches alone. (The
  /// TrustStore's last verdict compares certificate and signature *values*,
  /// so a tampered signer/signature is always verified afresh.)
  [[nodiscard]] Certificate& mutable_signer() { return signer_; }
  void set_signer(Certificate cert) { signer_ = cert; }
  void set_signature(std::uint64_t sig) { signature_ = sig; }

  /// Copy-on-mutate for the one per-hop rewrite the protocol performs:
  /// returns a copy with `remaining_hop_limit` replaced. The RHL lives in
  /// the Basic Header, outside the signature scope, so the copy *shares*
  /// this message's signed-portion cache (so a verifier that just checked
  /// the original answers the copy from its last verdict) and only drops the
  /// full-wire cache.
  [[nodiscard]] SecuredMessage with_remaining_hop_limit(std::uint8_t rhl) const {
    SecuredMessage copy = *this;
    copy.packet_.basic.remaining_hop_limit = rhl;
    copy.wire_cache_.reset();
    return copy;
  }

  /// The signed-portion encoding, built on first use and shared by all
  /// copies of this message.
  [[nodiscard]] const SignedPortionPtr& signed_portion() const;

  /// The full wire image (Basic Header + length-prefixed signed portion),
  /// byte-identical to `Codec::encode(packet())`, built on first use.
  [[nodiscard]] const net::Bytes& wire() const;

  /// Size of the full wire image in bytes — arithmetic, no allocation.
  [[nodiscard]] std::size_t wire_size() const { return net::Codec::wire_size(packet_); }

  /// Verifies certificate validity and the signature over the signed
  /// portion of `packet` as currently carried (RHL excluded by scope).
  [[nodiscard]] bool verify(const TrustStore& trust) const;

  /// Like `verify`, but also reports whether the verdict came from the
  /// trust store's last verdict (for router stats).
  [[nodiscard]] VerifyResult verify_detailed(const TrustStore& trust) const;

  /// Structural equality of the carried parts; the caches are derived state
  /// and deliberately excluded.
  friend bool operator==(const SecuredMessage& a, const SecuredMessage& b) {
    return a.packet_ == b.packet_ && a.signer_ == b.signer_ && a.signature_ == b.signature_;
  }

 private:
  net::Packet packet_{};
  Certificate signer_{};
  std::uint64_t signature_{0};

  // Shared caches. `mutable` because they are pure memoization of
  // `packet_`: building them never changes observable state. Worlds are
  // single-threaded (the parallel harness runs independent worlds), so lazy
  // builds are unsynchronized by design.
  mutable SignedPortionPtr sp_cache_;
  mutable std::shared_ptr<const net::Bytes> wire_cache_;
};

/// Shared immutable envelope handle — the form the phy frame, the CBF/SCF
/// packet buffers and the retransmission state pass around. One signed
/// message is wrapped exactly once (at origination or at a forwarding
/// rewrite) and from there every receiver, buffer and pending-ACK entry
/// aliases the same object, so nothing on the hot path copies a packet.
using SecuredMessagePtr = std::shared_ptr<const SecuredMessage>;

/// Moves `msg` into a shared immutable envelope.
[[nodiscard]] inline SecuredMessagePtr share(SecuredMessage msg) {
  return std::make_shared<const SecuredMessage>(std::move(msg));
}

}  // namespace vgr::security
