#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "vgr/net/codec.hpp"
#include "vgr/security/authority.hpp"
#include "vgr/security/crypto.hpp"
#include "vgr/security/pseudonym.hpp"
#include "vgr/security/secured_message.hpp"

namespace vgr::security {
namespace {

net::GnAddress addr(std::uint64_t mac) {
  return net::GnAddress{net::GnAddress::StationType::kPassengerCar, net::MacAddress{mac}};
}

net::Packet sample_gbc(std::uint64_t src_mac) {
  net::Packet p;
  p.basic.remaining_hop_limit = 10;
  p.common.type = net::CommonHeader::HeaderType::kGeoBroadcast;
  net::LongPositionVector pv;
  pv.address = addr(src_mac);
  pv.position = {100.0, 2.5};
  p.extended = net::GbcHeader{1, pv, geo::GeoArea::circle({4020.0, 2.5}, 30.0)};
  p.payload = {9, 9, 9};
  return p;
}

TEST(KeyedDigest, DeterministicAndKeyed) {
  const net::Bytes msg{1, 2, 3};
  EXPECT_EQ(keyed_digest(42, msg), keyed_digest(42, msg));
  EXPECT_NE(keyed_digest(42, msg), keyed_digest(43, msg));
}

TEST(KeyedDigest, SensitiveToEveryByte) {
  net::Bytes msg(64, 0xAA);
  const std::uint64_t base = keyed_digest(7, msg);
  for (std::size_t i = 0; i < msg.size(); ++i) {
    net::Bytes mutated = msg;
    mutated[i] ^= 0x01;
    EXPECT_NE(keyed_digest(7, mutated), base) << "byte " << i;
  }
}

TEST(KeyedDigest, EmptyMessageStillKeyed) {
  EXPECT_NE(keyed_digest(1, {}), keyed_digest(2, {}));
}

TEST(PrivateKey, DefaultIsInvalid) {
  EXPECT_FALSE(PrivateKey{}.valid());
}

TEST(CertificateAuthority, EnrollmentYieldsValidCertificate) {
  CertificateAuthority ca;
  const auto id = ca.enroll(addr(1));
  EXPECT_TRUE(id.key.valid());
  EXPECT_EQ(id.certificate.subject, addr(1));
  EXPECT_FALSE(id.certificate.is_pseudonym);
  EXPECT_TRUE(ca.trust_store()->certificate_valid(id.certificate));
}

TEST(CertificateAuthority, SerialsAreUnique) {
  CertificateAuthority ca;
  const auto a = ca.enroll(addr(1));
  const auto b = ca.enroll(addr(2));
  EXPECT_NE(a.certificate.serial, b.certificate.serial);
  EXPECT_EQ(ca.issued_count(), 2u);
}

TEST(CertificateAuthority, TamperedSubjectFailsValidation) {
  CertificateAuthority ca;
  auto id = ca.enroll(addr(1));
  Certificate forged = id.certificate;
  forged.subject = addr(99);  // claim another identity
  EXPECT_FALSE(ca.trust_store()->certificate_valid(forged));
}

TEST(CertificateAuthority, UnknownSerialFailsValidation) {
  CertificateAuthority ca;
  Certificate ghost;
  ghost.serial = 12345;
  ghost.subject = addr(1);
  EXPECT_FALSE(ca.trust_store()->certificate_valid(ghost));
}

TEST(CertificateAuthority, RevocationTakesEffect) {
  CertificateAuthority ca;
  const auto id = ca.enroll(addr(1));
  ca.revoke(id.certificate.serial);
  EXPECT_FALSE(ca.trust_store()->certificate_valid(id.certificate));
}

TEST(CertificateAuthority, DistinctCAsDoNotCrossValidate) {
  CertificateAuthority ca1{111}, ca2{222};
  const auto id = ca1.enroll(addr(1));
  EXPECT_FALSE(ca2.trust_store()->certificate_valid(id.certificate));
}

TEST(SecuredMessage, SignVerifyRoundTrip) {
  CertificateAuthority ca;
  const Signer signer{ca.enroll(addr(1))};
  const auto msg = SecuredMessage::sign(sample_gbc(1), signer);
  EXPECT_TRUE(msg.verify(*ca.trust_store()));
}

TEST(SecuredMessage, ReplayedMessageStillVerifies) {
  // The heart of attack #1: a byte-for-byte replay is indistinguishable
  // from the original to the verifier.
  CertificateAuthority ca;
  const Signer signer{ca.enroll(addr(1))};
  const auto original = SecuredMessage::sign(sample_gbc(1), signer);
  const SecuredMessage replayed = original;  // captured & re-injected
  EXPECT_TRUE(replayed.verify(*ca.trust_store()));
}

TEST(SecuredMessage, RhlRewriteIsUndetectable) {
  // The heart of attack #2: RHL is outside the signature scope.
  CertificateAuthority ca;
  const Signer signer{ca.enroll(addr(1))};
  auto msg = SecuredMessage::sign(sample_gbc(1), signer);
  msg.mutable_packet().basic.remaining_hop_limit = 1;
  EXPECT_TRUE(msg.verify(*ca.trust_store()));
}

TEST(SecuredMessage, PayloadTamperingIsDetected) {
  CertificateAuthority ca;
  const Signer signer{ca.enroll(addr(1))};
  auto msg = SecuredMessage::sign(sample_gbc(1), signer);
  msg.mutable_packet().payload[0] ^= 0xFF;
  EXPECT_FALSE(msg.verify(*ca.trust_store()));
}

TEST(SecuredMessage, PositionTamperingIsDetected) {
  // A false-position-advertisement attack (the paper's related work [14])
  // cannot alter a legitimate PV without breaking the signature.
  CertificateAuthority ca;
  const Signer signer{ca.enroll(addr(1))};
  auto msg = SecuredMessage::sign(sample_gbc(1), signer);
  msg.mutable_packet().gbc()->source_pv.position.x += 500.0;
  EXPECT_FALSE(msg.verify(*ca.trust_store()));
}

TEST(SecuredMessage, AreaTamperingIsDetected) {
  CertificateAuthority ca;
  const Signer signer{ca.enroll(addr(1))};
  auto msg = SecuredMessage::sign(sample_gbc(1), signer);
  msg.mutable_packet().gbc()->area = geo::GeoArea::circle({0.0, 0.0}, 5.0);
  EXPECT_FALSE(msg.verify(*ca.trust_store()));
}

TEST(SecuredMessage, WrongSignerCertificateFails) {
  CertificateAuthority ca;
  const Signer alice{ca.enroll(addr(1))};
  const auto bob = ca.enroll(addr(2));
  auto msg = SecuredMessage::sign(sample_gbc(1), alice);
  msg.set_signer(bob.certificate);  // present someone else's certificate
  EXPECT_FALSE(msg.verify(*ca.trust_store()));
}

TEST(SecuredMessage, OutsiderForgeryFails) {
  // An attacker without any enrolled key cannot mint a valid envelope.
  CertificateAuthority ca;
  Certificate fake;
  fake.serial = 77;
  fake.subject = addr(1);
  const SecuredMessage forged =
      SecuredMessage::from_parts(sample_gbc(1), fake, 0x1234'5678'9ABC'DEF0ULL);
  EXPECT_FALSE(forged.verify(*ca.trust_store()));
}

TEST(SecuredMessage, RevokedSignerFailsVerification) {
  CertificateAuthority ca;
  const auto id = ca.enroll(addr(1));
  const auto msg = SecuredMessage::sign(sample_gbc(1), Signer{id});
  ca.revoke(id.certificate.serial);
  EXPECT_FALSE(msg.verify(*ca.trust_store()));
}

TEST(Pseudonym, PoolIssuesAndRotates) {
  CertificateAuthority ca;
  sim::Rng rng{5};
  PseudonymManager mgr{ca, 4, sim::Duration::seconds(10.0), rng};
  EXPECT_EQ(mgr.pool_size(), 4u);

  const auto t0 = sim::TimePoint::origin();
  const auto alias0 = mgr.current_alias(t0);
  const auto alias1 = mgr.current_alias(t0 + sim::Duration::seconds(11.0));
  EXPECT_NE(alias0, alias1);
  EXPECT_EQ(mgr.rotations(), 1u);
}

TEST(Pseudonym, PseudonymCertificatesVerify) {
  CertificateAuthority ca;
  sim::Rng rng{6};
  PseudonymManager mgr{ca, 2, sim::Duration::seconds(60.0), rng};
  const auto& id = mgr.active(sim::TimePoint::origin());
  EXPECT_TRUE(id.certificate.is_pseudonym);
  const auto msg = SecuredMessage::sign(sample_gbc(id.certificate.subject.mac().bits()),
                                        Signer{id});
  EXPECT_TRUE(msg.verify(*ca.trust_store()));
}

// --- Wire-image cache -----------------------------------------------------

TEST(SecuredMessage, WireMatchesCodecEncode) {
  CertificateAuthority ca;
  const auto msg = SecuredMessage::sign(sample_gbc(1), Signer{ca.enroll(addr(1))});
  EXPECT_EQ(msg.wire(), net::Codec::encode(msg.packet()));
  EXPECT_EQ(msg.wire_size(), msg.wire().size());
}

TEST(SecuredMessage, WireRebuiltAfterRhlRewrite) {
  CertificateAuthority ca;
  const auto msg = SecuredMessage::sign(sample_gbc(1), Signer{ca.enroll(addr(1))});
  const net::Bytes before = msg.wire();  // warm the cache
  const SecuredMessage hop = msg.with_remaining_hop_limit(3);
  // The copy's wire image reflects the new RHL, not the cached original's.
  EXPECT_EQ(hop.wire(), net::Codec::encode(hop.packet()));
  EXPECT_NE(hop.wire(), before);
  EXPECT_EQ(msg.wire(), before);  // the original is untouched
}

TEST(SecuredMessage, RhlRewriteSharesSignedPortion) {
  CertificateAuthority ca;
  const auto msg = SecuredMessage::sign(sample_gbc(1), Signer{ca.enroll(addr(1))});
  const SecuredMessage hop = msg.with_remaining_hop_limit(3);
  // Same object, not merely equal bytes: the forwarding path re-uses the
  // encoding built at sign() time, which is what lets a verifier answer the
  // forward from its last verdict.
  EXPECT_EQ(msg.signed_portion().get(), hop.signed_portion().get());
}

TEST(SecuredMessage, MutablePacketDropsCaches) {
  CertificateAuthority ca;
  auto msg = SecuredMessage::sign(sample_gbc(1), Signer{ca.enroll(addr(1))});
  const net::Bytes stale = msg.wire();
  msg.mutable_packet().payload.push_back(0xEE);
  EXPECT_EQ(msg.wire(), net::Codec::encode(msg.packet()));
  EXPECT_NE(msg.wire(), stale);
}

// --- Verification: negative paths after a warm verdict ---------------------

TEST(SecuredMessage, TamperAfterWarmVerifyStillFails) {
  // A warm verdict must never vouch for bytes it was not computed over.
  // Every mutation shape the codec fuzzer can produce on the signed portion
  // — payload bytes, position, area, sequence number, header fields — has to
  // be verified afresh and fail.
  CertificateAuthority ca;
  const Signer signer{ca.enroll(addr(1))};
  const auto original = SecuredMessage::sign(sample_gbc(1), signer);
  ASSERT_TRUE(original.verify(*ca.trust_store()));  // warm the verdict
  ASSERT_TRUE(original.verify(*ca.trust_store()));

  const auto tampered_fails = [&](auto&& mutate) {
    SecuredMessage copy = original;  // shares the warm caches
    mutate(copy.mutable_packet());   // drops them: a new portion object
    return !copy.verify(*ca.trust_store());
  };
  EXPECT_TRUE(tampered_fails([](net::Packet& p) { p.payload[0] ^= 0x01; }));
  EXPECT_TRUE(tampered_fails([](net::Packet& p) { p.payload.clear(); }));
  EXPECT_TRUE(tampered_fails([](net::Packet& p) { p.payload.resize(64, 0xFF); }));
  EXPECT_TRUE(tampered_fails([](net::Packet& p) { p.gbc()->source_pv.position.x += 1.0; }));
  EXPECT_TRUE(tampered_fails(
      [](net::Packet& p) { p.gbc()->area = geo::GeoArea::circle({0.0, 0.0}, 1.0); }));
  EXPECT_TRUE(tampered_fails([](net::Packet& p) { ++p.gbc()->sequence_number; }));
  EXPECT_TRUE(tampered_fails([](net::Packet& p) { p.common.traffic_class ^= 1; }));
  // And the envelope fields outside the packet:
  {
    SecuredMessage copy = original;
    copy.set_signature(original.signature() ^ 1);
    EXPECT_FALSE(copy.verify(*ca.trust_store()));
  }
  {
    SecuredMessage copy = original;
    copy.set_signer(ca.enroll(addr(2)).certificate);
    EXPECT_FALSE(copy.verify(*ca.trust_store()));
  }
  // Basic-header mutations stay verifiable — they are outside the signature
  // scope by design (the paper's attack #2), warm verdict or not.
  SecuredMessage rhl = original.with_remaining_hop_limit(1);
  EXPECT_TRUE(rhl.verify(*ca.trust_store()));
  // The untouched original still verifies after all of the above.
  EXPECT_TRUE(original.verify(*ca.trust_store()));
}

TEST(SecuredMessage, WireTamperThenReingestFailsVerification) {
  // The over-the-air shape of the same property: flip bits in the wire
  // image (the fault injector / fuzzer mutation), decode, reassemble via
  // from_parts — exactly the router's raw-ingest path — and verify. Any
  // decodable mutant that changed signed bytes must fail; mutants that only
  // touched the basic header must still pass.
  CertificateAuthority ca;
  const Signer signer{ca.enroll(addr(1))};
  const auto original = SecuredMessage::sign(sample_gbc(1), signer);
  ASSERT_TRUE(original.verify(*ca.trust_store()));  // warm the verdict
  const net::Bytes wire = original.wire();
  const net::Bytes signed_bytes = net::Codec::encode_signed_portion(original.packet());
  int decodable = 0, signed_mutants = 0, benign_mutants = 0;
  for (std::size_t byte = 0; byte < wire.size(); ++byte) {
    net::Bytes mutant = wire;
    mutant[byte] ^= 0x04;
    const auto decoded = net::Codec::decode(mutant);
    if (!decoded.has_value()) continue;  // ingest rejects it before verify
    ++decodable;
    const auto reassembled =
        SecuredMessage::from_parts(*decoded, original.signer(), original.signature());
    // The oracle is the signed portion of what actually decoded: flips in
    // the basic header (RHL, lifetime) or in wire fields the decoder
    // normalizes away (a circle's unused half-axis/azimuth doubles) leave
    // it untouched and must keep verifying; anything else must fail.
    if (net::Codec::encode_signed_portion(*decoded) == signed_bytes) {
      ++benign_mutants;
      EXPECT_TRUE(reassembled.verify(*ca.trust_store())) << "byte " << byte;
    } else {
      ++signed_mutants;
      EXPECT_FALSE(reassembled.verify(*ca.trust_store())) << "byte " << byte;
    }
  }
  EXPECT_GT(decodable, 0);
  EXPECT_GT(signed_mutants, 0);
  EXPECT_GT(benign_mutants, 0);
}

// --- TrustStore last verdict -----------------------------------------------

TEST(TrustStore, VerifyMemoHitsOnRepeatAndRhlRewrite) {
  CertificateAuthority ca;
  const auto msg = SecuredMessage::sign(sample_gbc(1), Signer{ca.enroll(addr(1))});
  const TrustStore& trust = *ca.trust_store();

  const auto first = msg.verify_detailed(trust);
  EXPECT_TRUE(first.ok);
  EXPECT_FALSE(first.from_memo);

  const auto second = msg.verify_detailed(trust);
  EXPECT_TRUE(second.ok);
  EXPECT_TRUE(second.from_memo);

  // An RHL-rewritten forward asks the same question: identical signed
  // portion, signer and signature.
  const auto hop = msg.with_remaining_hop_limit(2).verify_detailed(trust);
  EXPECT_TRUE(hop.ok);
  EXPECT_TRUE(hop.from_memo);
}

TEST(TrustStore, LastVerdictAnswersOnlyAnExactRepeat) {
  // verify_message answers a repeat of its previous question from that
  // call's verdict and computes every other question in full. Each call
  // below checks the verdict and whether it was answered (`from_memo`).
  CertificateAuthority ca;
  const Signer signer{ca.enroll(addr(1))};
  const Signer other{ca.enroll(addr(2))};
  const TrustStore& trust = *ca.trust_store();
  const auto msg = SecuredMessage::sign(sample_gbc(1), signer);
  const SignedPortionPtr portion = msg.signed_portion();
  const Certificate cert = msg.signer();
  const std::uint64_t sig = msg.signature();
  const auto check = [&](const Certificate& c, const SignedPortionPtr& p, std::uint64_t s,
                         bool ok, bool answered) {
    const VerifyResult got = trust.verify_message(c, p, s);
    EXPECT_EQ(got.ok, ok);
    EXPECT_EQ(got.from_memo, answered);
  };

  {
    SCOPED_TRACE("first call, then a repeat");
    check(cert, portion, sig, true, false);
    check(cert, portion, sig, true, true);
  }
  {
    SCOPED_TRACE("an RHL-rewritten copy shares the portion");
    const SecuredMessage hop = msg.with_remaining_hop_limit(2);
    check(hop.signer(), hop.signed_portion(), hop.signature(), true, true);
  }
  {
    SCOPED_TRACE("A, then B, then A again");
    const auto b = SecuredMessage::sign(sample_gbc(2), signer);
    check(cert, portion, sig, true, true);
    check(b.signer(), b.signed_portion(), b.signature(), true, false);
    // B's verdict replaced A's: A is a new question again.
    check(cert, portion, sig, true, false);
  }
  {
    SCOPED_TRACE("equal bytes in another object: computed, then answered");
    const auto twin = std::make_shared<const SignedPortion>(*portion);
    check(cert, twin, sig, true, false);
    check(cert, twin, sig, true, true);
  }
  {
    SCOPED_TRACE("another certificate, then a tampered signature");
    check(other.certificate(), portion, sig, false, false);
    check(other.certificate(), portion, sig, false, true);
    check(cert, portion, sig ^ 1U, false, false);
    check(cert, portion, sig, true, false);
  }
  {
    SCOPED_TRACE("a revoke, then an issue, between two calls");
    ca.revoke(cert.serial);
    check(cert, portion, sig, false, false);
    check(cert, portion, sig, false, true);
    ca.enroll(addr(3));
    check(cert, portion, sig, false, false);
  }
  {
    SCOPED_TRACE("a portion freed and replaced by a new one");
    const Signer third{ca.enroll(addr(4))};
    const auto first = std::make_shared<const SignedPortion>(*portion);
    const std::uint64_t third_sig = third.sign(first->bytes);
    check(third.certificate(), first, third_sig, true, false);
    auto twin = std::make_shared<const SignedPortion>(*first);
    check(third.certificate(), twin, third_sig, true, false);
    twin.reset();
    // Same size, other bytes: the allocator may hand it the address `twin`
    // had. It is a new question all the same.
    net::Bytes tampered = first->bytes;
    tampered.back() = static_cast<std::uint8_t>(tampered.back() ^ 0x01U);
    const auto replacement =
        std::make_shared<const SignedPortion>(SignedPortion{std::move(tampered)});
    check(third.certificate(), replacement, third_sig, false, false);
  }
}

TEST(TrustStore, DifferentMessagesNeverShareAVerdict) {
  // A second message from the same signer is a new question: its verdict is
  // computed in full, never answered from the first message's.
  CertificateAuthority ca;
  const Signer signer{ca.enroll(addr(1))};
  const auto a = SecuredMessage::sign(sample_gbc(1), signer);
  const auto b = SecuredMessage::sign(sample_gbc(2), signer);
  EXPECT_TRUE(a.verify(*ca.trust_store()));
  const VerifyResult vb = b.verify_detailed(*ca.trust_store());
  EXPECT_TRUE(vb.ok);
  EXPECT_FALSE(vb.from_memo);
  EXPECT_TRUE(a.verify(*ca.trust_store()));
}

TEST(TrustStore, RevocationInvalidatesWarmMemo) {
  // Revocation bumps the store generation, so a verdict reached before the
  // revocation can never answer for the revoked signer.
  CertificateAuthority ca;
  const auto id = ca.enroll(addr(1));
  const auto msg = SecuredMessage::sign(sample_gbc(1), Signer{id});
  ASSERT_TRUE(msg.verify(*ca.trust_store()));
  ASSERT_TRUE(msg.verify(*ca.trust_store()));  // warm
  const std::uint64_t gen_before = ca.trust_store()->generation();
  ca.revoke(id.certificate.serial);
  EXPECT_GT(ca.trust_store()->generation(), gen_before);
  EXPECT_FALSE(msg.verify(*ca.trust_store()));
}

TEST(TrustStore, EnrollmentAfterNegativeCacheIsVisible) {
  // The dual hazard: a *negative* verdict reached before the signer enrolled
  // (node churn re-enrollment) must not outlive the enrollment.
  CertificateAuthority ca;
  const auto id = ca.enroll(addr(1));
  const auto msg = SecuredMessage::sign(sample_gbc(1), Signer{id});
  CertificateAuthority other;  // different trust domain: verification fails
  ASSERT_FALSE(msg.verify(*other.trust_store()));
  ASSERT_FALSE(msg.verify(*other.trust_store()));  // negative verdict is warm
  other.enroll(addr(9));  // any issue bumps the generation
  // Still fails (wrong CA), but through a fresh computation, not the last
  // verdict.
  const auto v = msg.verify_detailed(*other.trust_store());
  EXPECT_FALSE(v.ok);
  EXPECT_FALSE(v.from_memo);
}

TEST(Pseudonym, RotationWrapsAroundPool) {
  CertificateAuthority ca;
  sim::Rng rng{8};
  PseudonymManager mgr{ca, 2, sim::Duration::seconds(1.0), rng};
  const auto t = sim::TimePoint::origin();
  const auto a0 = mgr.current_alias(t);
  const auto a2 = mgr.current_alias(t + sim::Duration::seconds(2.1));
  EXPECT_EQ(a0, a2);  // pool of 2 wraps after two rotations
}

}  // namespace
}  // namespace vgr::security
