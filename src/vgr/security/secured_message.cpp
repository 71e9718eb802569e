#include "vgr/security/secured_message.hpp"

namespace vgr::security {

SecuredMessage SecuredMessage::sign(const net::Packet& packet, const Signer& signer) {
  SecuredMessage msg;
  msg.packet_ = packet;
  msg.signer_ = signer.certificate();
  // The signed-portion cache *is* the byte string being signed — build it
  // eagerly so neither the sender's transmit nor any receiver's verify ever
  // serializes this packet again.
  msg.signature_ = signer.sign(msg.signed_portion()->bytes);
  return msg;
}

SecuredMessage SecuredMessage::from_parts(net::Packet packet, Certificate signer,
                                          std::uint64_t signature) {
  SecuredMessage msg;
  msg.packet_ = std::move(packet);
  msg.signer_ = signer;
  msg.signature_ = signature;
  return msg;
}

const SignedPortionPtr& SecuredMessage::signed_portion() const {
  if (!sp_cache_) {
    sp_cache_ = std::make_shared<const SignedPortion>(
        SignedPortion{net::Codec::encode_signed_portion(packet_)});
  }
  return sp_cache_;
}

const net::Bytes& SecuredMessage::wire() const {
  if (!wire_cache_) {
    // Assemble Basic Header + length-prefixed signed portion from the cached
    // encoding — byte-identical to Codec::encode(packet_) without walking
    // the packet again.
    const SignedPortionPtr& sp = signed_portion();
    net::ByteWriter w;
    w.u8(packet_.basic.version);
    w.u8(packet_.basic.remaining_hop_limit);
    w.u64(static_cast<std::uint64_t>(packet_.basic.lifetime.count()));
    w.bytes(sp->bytes);
    wire_cache_ = std::make_shared<const net::Bytes>(w.take());
  }
  return *wire_cache_;
}

bool SecuredMessage::verify(const TrustStore& trust) const {
  return trust.verify_message(signer_, signed_portion(), signature_).ok;
}

VerifyResult SecuredMessage::verify_detailed(const TrustStore& trust) const {
  return trust.verify_message(signer_, signed_portion(), signature_);
}

}  // namespace vgr::security
