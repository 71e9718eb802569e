// Hardened-ingest tests: the router must survive arbitrarily damaged wire
// images (every truncation, every single-byte corruption) and semantically
// absurd but well-formed packets, counting each rejection under exactly one
// cause and touching no router state on the way out.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>

#include "vgr/gn/router.hpp"
#include "vgr/net/codec.hpp"
#include "vgr/security/authority.hpp"

namespace vgr::gn {
namespace {

class RouterIngestTest : public ::testing::Test {
 protected:
  RouterIngestTest() : medium_{events_, phy::AccessTechnology::kDsrc} {
    const net::GnAddress self{net::GnAddress::StationType::kPassengerCar, net::MacAddress{0x10}};
    router_ = std::make_unique<Router>(events_, medium_, security::Signer{ca_.enroll(self)},
                                       ca_.trust_store(), mobility_, RouterConfig::for_technology(
                                       phy::AccessTechnology::kDsrc),
                                       486.0, sim::Rng{123});
    router_->set_delivery_handler([this](const Router::Delivery&) { ++deliveries_; });
    peer_ = net::GnAddress{net::GnAddress::StationType::kPassengerCar, net::MacAddress{0x20}};
    peer_signer_ = std::make_unique<security::Signer>(ca_.enroll(peer_));
  }

  net::LongPositionVector peer_pv() const {
    net::LongPositionVector pv;
    pv.address = peer_;
    pv.timestamp = events_.now();
    pv.position = {50.0, 0.0};
    pv.speed_mps = 20.0;
    pv.heading_rad = 0.0;
    return pv;
  }

  net::Packet valid_gbc(net::SequenceNumber sn = 1) const {
    net::Packet p;
    p.basic.remaining_hop_limit = 5;
    p.basic.lifetime = sim::Duration::seconds(3.0);
    p.common.type = net::CommonHeader::HeaderType::kGeoBroadcast;
    p.common.max_hop_limit = 10;
    p.extended = net::GbcHeader{sn, peer_pv(), geo::GeoArea::circle({3000.0, 0.0}, 50.0)};
    p.payload = {1, 2, 3, 4, 5, 6, 7, 8};
    return p;
  }

  /// Signed frame whose wire image (`raw`) the tests damage at will.
  phy::Frame frame_for(const net::Packet& p) const {
    phy::Frame f;
    f.src = peer_.mac();
    f.msg = security::share(security::SecuredMessage::sign(p, *peer_signer_));
    return f;
  }

  sim::EventQueue events_;
  phy::Medium medium_;
  security::CertificateAuthority ca_;
  StaticMobility mobility_{geo::Position{0.0, 0.0}};
  std::unique_ptr<Router> router_;
  net::GnAddress peer_{};
  std::unique_ptr<security::Signer> peer_signer_;
  int deliveries_{0};
};

TEST_F(RouterIngestTest, ValidFrameUpdatesLocationTable) {
  router_->ingest(frame_for(valid_gbc()));
  EXPECT_EQ(router_->location_table().raw_size(), 1u);
  EXPECT_EQ(router_->stats().ingest_drops(), 0u);
  EXPECT_EQ(router_->stats().auth_failures, 0u);
}

TEST_F(RouterIngestTest, EveryTruncatedPrefixIsCountedAndDropped) {
  const net::Packet p = valid_gbc();
  const net::Bytes wire = net::Codec::encode(p);
  phy::Frame f = frame_for(p);
  // Length 0 is excluded: an empty `raw` means "clean delivery" by the
  // Frame contract, not a zero-length wire image.
  for (std::size_t len = 1; len < wire.size(); ++len) {
    f.raw.assign(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(len));
    const std::uint64_t before = router_->stats().ingest_decode_failures;
    router_->ingest(f);
    ASSERT_EQ(router_->stats().ingest_decode_failures, before + 1)
        << "prefix of length " << len << " was not rejected at decode";
    ASSERT_EQ(router_->location_table().raw_size(), 0u)
        << "truncated frame of length " << len << " mutated the location table";
  }
  EXPECT_EQ(deliveries_, 0);
}

TEST_F(RouterIngestTest, EverySingleByteCorruptionIsSafe) {
  const net::Packet p = valid_gbc();
  const net::Bytes wire = net::Codec::encode(p);
  phy::Frame f = frame_for(p);

  std::uint64_t rejected = 0, accepted = 0;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    f.raw = wire;
    f.raw[i] ^= 0xFF;
    const std::uint64_t drops_before = router_->stats().ingest_drops();
    const std::uint64_t auth_before = router_->stats().auth_failures;
    const std::size_t table_before = router_->location_table().raw_size();
    router_->ingest(f);
    const std::uint64_t drop_delta = router_->stats().ingest_drops() - drops_before;
    const std::uint64_t auth_delta = router_->stats().auth_failures - auth_before;
    // Partition: at most one rejection cause fires per frame.
    ASSERT_LE(drop_delta + auth_delta, 1u) << "byte " << i << " tripped multiple counters";
    if (drop_delta == 1) {
      // Rejected before any state was touched.
      ASSERT_EQ(router_->location_table().raw_size(), table_before)
          << "rejected frame (byte " << i << ") mutated the location table";
      ++rejected;
    } else if (auth_delta == 1) {
      ++rejected;
    } else {
      // Decoded, validated and verified despite the flip: only possible for
      // bytes outside the signed portion (the mutable basic header — the
      // very gap the paper's RHL attack exploits).
      ++accepted;
    }
  }
  // The sweep must exercise all three outcomes: undecodable damage, signed-
  // portion damage (auth), and survivable basic-header damage.
  EXPECT_GT(router_->stats().ingest_decode_failures, 0u);
  EXPECT_GT(router_->stats().auth_failures, 0u);
  EXPECT_GT(accepted, 0u);
  EXPECT_EQ(rejected + accepted, wire.size());
}

TEST_F(RouterIngestTest, CorruptedRhlIsRejectedBySemanticCheck) {
  // RHL > MHL cannot happen on an honest channel; the basic header is
  // outside the signature, so this must be caught semantically.
  net::Packet p = valid_gbc();
  phy::Frame f = frame_for(p);
  p.basic.remaining_hop_limit = 200;  // > max_hop_limit (10)
  f.raw = net::Codec::encode(p);
  router_->ingest(f);
  EXPECT_EQ(router_->stats().ingest_invalid_rhl, 1u);
  EXPECT_EQ(router_->location_table().raw_size(), 0u);

  p.basic.remaining_hop_limit = 0;  // should have died a hop earlier
  f.raw = net::Codec::encode(p);
  router_->ingest(f);
  EXPECT_EQ(router_->stats().ingest_invalid_rhl, 2u);
}

TEST_F(RouterIngestTest, NonPositiveLifetimeIsRejected) {
  net::Packet p = valid_gbc();
  phy::Frame f = frame_for(p);
  p.basic.lifetime = sim::Duration::zero();
  f.raw = net::Codec::encode(p);
  router_->ingest(f);
  EXPECT_EQ(router_->stats().ingest_invalid_lifetime, 1u);
  EXPECT_EQ(router_->location_table().raw_size(), 0u);
  EXPECT_EQ(deliveries_, 0);
}

TEST_F(RouterIngestTest, StructuredNonFinitePvIsRejected) {
  // The structured path (no raw image) runs the same semantic validation:
  // an in-process attacker handing the router a NaN position must not
  // poison the location table or the forwarding geometry.
  net::Packet p = valid_gbc();
  net::LongPositionVector pv = peer_pv();
  pv.position.x = std::numeric_limits<double>::quiet_NaN();
  p.extended = net::GbcHeader{1, pv, geo::GeoArea::circle({3000.0, 0.0}, 50.0)};
  router_->ingest(frame_for(p));
  EXPECT_EQ(router_->stats().ingest_invalid_pv, 1u);
  EXPECT_EQ(router_->location_table().raw_size(), 0u);
}

TEST_F(RouterIngestTest, StructuredOversizedPayloadIsRejected) {
  net::Packet p = valid_gbc();
  p.payload = net::Bytes(net::kMaxPayloadBytes + 1, 0xAA);
  router_->ingest(frame_for(p));
  EXPECT_EQ(router_->stats().ingest_oversized_payload, 1u);
  EXPECT_EQ(router_->location_table().raw_size(), 0u);
}

TEST_F(RouterIngestTest, UndecodableGarbageNeverReachesHandlers) {
  phy::Frame f = frame_for(valid_gbc());
  f.raw = net::Bytes{0xDE, 0xAD, 0xBE, 0xEF};
  for (int i = 0; i < 10; ++i) router_->ingest(f);
  EXPECT_EQ(router_->stats().ingest_decode_failures, 10u);
  EXPECT_EQ(router_->location_table().raw_size(), 0u);
  EXPECT_EQ(deliveries_, 0);
}

}  // namespace
}  // namespace vgr::gn
