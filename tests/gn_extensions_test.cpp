// Tests for the transport extensions: SHB, TSB, the Location Service,
// ACK'd forwarding, and pseudonym rotation.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "vgr/attack/inter_area.hpp"
#include "vgr/gn/router.hpp"
#include "vgr/net/codec.hpp"
#include "vgr/security/authority.hpp"
#include "vgr/security/pseudonym.hpp"

namespace vgr::gn {
namespace {

using namespace vgr::sim::literals;

constexpr double kRange = 486.0;

struct Node {
  std::unique_ptr<StaticMobility> mobility;
  std::unique_ptr<Router> router;
  std::vector<Router::Delivery> deliveries;
};

class ExtensionsTest : public ::testing::Test {
 protected:
  ExtensionsTest() : medium_{events_, phy::AccessTechnology::kDsrc} {}

  Node& add_node(double x, RouterConfig cfg = RouterConfig{}, double range = kRange) {
    nodes_.push_back(std::make_unique<Node>());
    Node& n = *nodes_.back();
    n.mobility = std::make_unique<StaticMobility>(geo::Position{x, 0.0});
    const net::GnAddress addr{net::GnAddress::StationType::kPassengerCar,
                              net::MacAddress{0x300 + nodes_.size()}};
    cfg.cbf_dist_max_m = kRange;
    n.router = std::make_unique<Router>(events_, medium_, security::Signer{ca_.enroll(addr)},
                                        ca_.trust_store(), *n.mobility, cfg, range,
                                        rng_.fork());
    n.router->set_delivery_handler(
        [&n](const Router::Delivery& d) { n.deliveries.push_back(d); });
    return n;
  }

  void beacons() {
    for (auto& n : nodes_) n->router->send_beacon_now();
    run_for(100_ms);
  }
  void run_for(sim::Duration d) { events_.run_until(events_.now() + d); }

  sim::EventQueue events_;
  phy::Medium medium_;
  security::CertificateAuthority ca_;
  sim::Rng rng_{515};
  std::vector<std::unique_ptr<Node>> nodes_;
};

// --- Codec round trips for the new packet kinds ---------------------------

TEST(ExtensionCodec, NewHeaderTypesRoundTrip) {
  net::LongPositionVector pv;
  pv.address = net::GnAddress{net::GnAddress::StationType::kPassengerCar, net::MacAddress{9}};
  pv.position = {10.0, 20.0};

  std::vector<net::Packet> packets;
  {
    net::Packet p;
    p.common.type = net::CommonHeader::HeaderType::kTopoBroadcast;
    p.extended = net::TsbHeader{3, pv};
    p.payload = {1, 2};
    packets.push_back(p);
  }
  {
    net::Packet p;
    p.common.type = net::CommonHeader::HeaderType::kSingleHopBroadcast;
    p.extended = net::ShbHeader{pv};
    packets.push_back(p);
  }
  {
    net::Packet p;
    p.common.type = net::CommonHeader::HeaderType::kLsRequest;
    p.extended = net::LsRequestHeader{4, pv, net::GnAddress::from_bits(77)};
    packets.push_back(p);
  }
  {
    net::Packet p;
    p.common.type = net::CommonHeader::HeaderType::kLsReply;
    net::ShortPositionVector dest;
    dest.address = net::GnAddress::from_bits(88);
    dest.position = {5.0, 6.0};
    p.extended = net::LsReplyHeader{5, pv, dest};
    packets.push_back(p);
  }
  {
    net::Packet p;
    p.common.type = net::CommonHeader::HeaderType::kAck;
    p.extended = net::AckHeader{pv, net::GnAddress::from_bits(99), 42};
    packets.push_back(p);
  }
  for (const auto& p : packets) {
    const auto decoded = net::Codec::decode(net::Codec::encode(p));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, p);
  }
}

TEST(ExtensionCodec, DuplicateKeysForFloodedKinds) {
  net::Packet tsb;
  tsb.common.type = net::CommonHeader::HeaderType::kTopoBroadcast;
  tsb.extended = net::TsbHeader{3, {}};
  EXPECT_TRUE(tsb.duplicate_key().has_value());

  net::Packet shb;
  shb.common.type = net::CommonHeader::HeaderType::kSingleHopBroadcast;
  shb.extended = net::ShbHeader{};
  EXPECT_FALSE(shb.duplicate_key().has_value());

  net::Packet ack;
  ack.common.type = net::CommonHeader::HeaderType::kAck;
  ack.extended = net::AckHeader{};
  EXPECT_FALSE(ack.duplicate_key().has_value());
}

// --- SHB ---------------------------------------------------------------------

TEST_F(ExtensionsTest, ShbReachesOnlyDirectNeighbors) {
  Node& a = add_node(0.0);
  Node& b = add_node(400.0);
  Node& c = add_node(850.0);  // out of a's range
  beacons();
  a.router->send_single_hop_broadcast({'c', 'a', 'm'});
  run_for(100_ms);
  EXPECT_EQ(b.deliveries.size(), 1u);
  EXPECT_TRUE(c.deliveries.empty());
  EXPECT_EQ(a.router->stats().shb_sent, 1u);
  // b must not have re-broadcast it (single hop by definition).
  EXPECT_EQ(b.router->stats().tsb_forwards, 0u);
}

TEST_F(ExtensionsTest, ShbUpdatesLocationTableLikeACam) {
  Node& a = add_node(0.0);
  Node& b = add_node(400.0);
  a.router->send_single_hop_broadcast({'x'});
  run_for(100_ms);
  const auto entry = b.router->location_table().find(a.router->address(), events_.now());
  ASSERT_TRUE(entry.has_value());
  EXPECT_TRUE(entry->is_neighbor);
}

// --- TSB ---------------------------------------------------------------------

TEST_F(ExtensionsTest, TsbFloodsAcrossHops) {
  Node& a = add_node(0.0);
  Node& b = add_node(400.0);
  Node& c = add_node(800.0);
  Node& d = add_node(1200.0);
  beacons();
  a.router->send_topo_broadcast({'t'}, 5);
  run_for(1_s);
  EXPECT_EQ(b.deliveries.size(), 1u);
  EXPECT_EQ(c.deliveries.size(), 1u);
  EXPECT_EQ(d.deliveries.size(), 1u);
}

TEST_F(ExtensionsTest, TsbHonorsHopLimit) {
  Node& a = add_node(0.0);
  Node& b = add_node(400.0);
  Node& c = add_node(800.0);
  Node& d = add_node(1200.0);
  beacons();
  a.router->send_topo_broadcast({'t'}, 2);  // a -> b -> c, no further
  run_for(1_s);
  EXPECT_EQ(b.deliveries.size(), 1u);
  EXPECT_EQ(c.deliveries.size(), 1u);
  EXPECT_TRUE(d.deliveries.empty());
}

TEST_F(ExtensionsTest, TsbDuplicatesAreSuppressed) {
  Node& a = add_node(0.0);
  Node& b = add_node(100.0);
  Node& c = add_node(200.0);
  beacons();
  a.router->send_topo_broadcast({'t'}, 5);
  run_for(1_s);
  // b and c each deliver once despite hearing multiple rebroadcasts.
  EXPECT_EQ(b.deliveries.size(), 1u);
  EXPECT_EQ(c.deliveries.size(), 1u);
}

// --- Location service ---------------------------------------------------------

TEST_F(ExtensionsTest, LocationServiceResolvesUnknownDestination) {
  Node& a = add_node(0.0);
  Node& b = add_node(400.0);
  Node& c = add_node(800.0);  // unknown to a (out of range)
  beacons();
  ASSERT_FALSE(a.router->location_table().find(c.router->address(), events_.now()).has_value());

  a.router->send_geo_unicast_resolving(c.router->address(), {'l', 's'});
  run_for(2_s);

  EXPECT_EQ(a.router->stats().ls_requests_sent, 1u);
  EXPECT_EQ(c.router->stats().ls_replies_sent, 1u);
  EXPECT_EQ(a.router->stats().ls_resolved, 1u);
  ASSERT_EQ(c.deliveries.size(), 1u);
  EXPECT_EQ(c.deliveries[0].packet().payload, (net::Bytes{'l', 's'}));
  (void)b;
}

TEST_F(ExtensionsTest, LocationServiceSkipsLookupForKnownDestination) {
  Node& a = add_node(0.0);
  Node& b = add_node(400.0);
  beacons();
  a.router->send_geo_unicast_resolving(b.router->address(), {'k'});
  run_for(1_s);
  EXPECT_EQ(a.router->stats().ls_requests_sent, 0u);
  EXPECT_EQ(b.deliveries.size(), 1u);
}

TEST_F(ExtensionsTest, LocationServiceSharesOneLookupAcrossQueuedPackets) {
  Node& a = add_node(0.0);
  add_node(400.0);
  Node& c = add_node(800.0);
  beacons();
  a.router->send_geo_unicast_resolving(c.router->address(), {1});
  a.router->send_geo_unicast_resolving(c.router->address(), {2});
  run_for(2_s);
  EXPECT_EQ(a.router->stats().ls_requests_sent, 1u);
  EXPECT_EQ(c.deliveries.size(), 2u);
}

TEST_F(ExtensionsTest, LocationServiceGivesUpAfterRetries) {
  RouterConfig cfg;
  cfg.ls_retry_interval = 200_ms;
  cfg.ls_max_retries = 2;
  Node& a = add_node(0.0, cfg);
  beacons();
  const auto ghost =
      net::GnAddress{net::GnAddress::StationType::kPassengerCar, net::MacAddress{0xDEAD}};
  a.router->send_geo_unicast_resolving(ghost, {9});
  run_for(2_s);
  EXPECT_EQ(a.router->stats().ls_requests_sent, 2u);  // initial + one retry
  EXPECT_EQ(a.router->stats().ls_failures, 1u);
}

// --- ACK'd forwarding -----------------------------------------------------------

TEST_F(ExtensionsTest, AckConfirmsSuccessfulForward) {
  RouterConfig cfg;
  cfg.gf_ack = true;
  Node& a = add_node(0.0, cfg);
  Node& b = add_node(400.0, cfg);
  beacons();
  a.router->send_geo_unicast(b.router->address(), {400.0, 0.0}, {'a'});
  run_for(1_s);
  EXPECT_EQ(b.router->stats().acks_sent, 1u);
  EXPECT_EQ(a.router->stats().acks_received, 1u);
  EXPECT_EQ(a.router->stats().ack_retries, 0u);
  EXPECT_EQ(b.deliveries.size(), 1u);
}

TEST_F(ExtensionsTest, AckRetriesPastGhostNeighbor) {
  RouterConfig cfg;
  cfg.gf_ack = true;
  Node& a = add_node(0.0, cfg);
  Node& b = add_node(300.0, cfg);
  Node& ghost = add_node(450.0, cfg);
  Node& dest = add_node(700.0, cfg);
  beacons();
  // The "ghost" leaves the channel after beaconing (drove out of range /
  // powered off) but stays in a's location table as the best next hop.
  ghost.router->shutdown();

  a.router->send_geo_unicast(dest.router->address(), {700.0, 0.0}, {'r'});
  run_for(1_s);

  EXPECT_GE(a.router->stats().ack_retries, 1u);  // silent ghost, retried via b
  EXPECT_EQ(dest.deliveries.size(), 1u);
  EXPECT_GE(b.router->stats().gf_unicast_forwards, 1u);
}

TEST_F(ExtensionsTest, AckGivesUpWhenNobodyResponds) {
  RouterConfig cfg;
  cfg.gf_ack = true;
  cfg.gf_ack_max_retries = 1;
  Node& a = add_node(0.0, cfg);
  Node& ghost = add_node(400.0, cfg);
  beacons();
  ghost.router->shutdown();
  a.router->send_geo_unicast(ghost.router->address(), {400.0, 0.0}, {'x'});
  run_for(1_s);
  EXPECT_EQ(a.router->stats().ack_failures, 1u);
}

TEST_F(ExtensionsTest, AckDisabledMeansNoAckTraffic) {
  Node& a = add_node(0.0);
  Node& b = add_node(400.0);
  beacons();
  a.router->send_geo_unicast(b.router->address(), {400.0, 0.0}, {'n'});
  run_for(1_s);
  EXPECT_EQ(b.router->stats().acks_sent, 0u);
  EXPECT_EQ(a.router->stats().acks_received, 0u);
}

// --- Pseudonym rotation -----------------------------------------------------------

TEST_F(ExtensionsTest, RotationChangesAddressAndKeepsVerifying) {
  Node& a = add_node(0.0);
  Node& b = add_node(400.0);
  const net::GnAddress before = a.router->address();

  sim::Rng prng{99};
  security::PseudonymManager pool{ca_, 3, sim::Duration::seconds(10.0), prng};
  a.router->rotate_identity(pool.active(events_.now()));

  EXPECT_NE(a.router->address(), before);
  EXPECT_EQ(a.router->stats().identity_rotations, 1u);

  a.router->send_beacon_now();
  run_for(100_ms);
  // The peer accepts the pseudonymous beacon and lists the new alias.
  EXPECT_TRUE(b.router->location_table().find(a.router->address(), events_.now()).has_value());
  EXPECT_EQ(b.router->stats().auth_failures, 0u);
}

TEST_F(ExtensionsTest, RotationRebindsLinkLayerAddress) {
  RouterConfig cfg;
  Node& a = add_node(0.0, cfg);
  Node& b = add_node(400.0, cfg);
  beacons();

  sim::Rng prng{100};
  security::PseudonymManager pool{ca_, 2, sim::Duration::seconds(10.0), prng};
  a.router->rotate_identity(pool.active(events_.now()));
  a.router->send_beacon_now();
  run_for(100_ms);

  // b can unicast to the *new* alias; the frame is accepted under the new
  // MAC binding.
  b.router->send_geo_unicast(a.router->address(), {0.0, 0.0}, {'p'});
  run_for(1_s);
  EXPECT_EQ(a.deliveries.size(), 1u);
}

// --- Duplicate address detection ---------------------------------------------

TEST_F(ExtensionsTest, ReplayedOwnBeaconCountsAsAddressConflict) {
  Node& victim = add_node(0.0);
  attack::InterAreaInterceptor atk{events_, medium_, {100.0, 10.0}, 600.0};
  victim.router->send_beacon_now();
  run_for(100_ms);
  // The attacker replays the victim's own beacon back at it.
  EXPECT_GE(atk.beacons_replayed(), 1u);
  EXPECT_GE(victim.router->stats().dad_conflicts, 1u);
}

TEST_F(ExtensionsTest, DadHandlerFiresOnlyWhenEnabled) {
  RouterConfig cfg;
  Node& quiet = add_node(0.0, cfg);
  cfg.dad_enabled = true;
  Node& reactive = add_node(50.0, cfg);
  attack::InterAreaInterceptor atk{events_, medium_, {25.0, 10.0}, 600.0};
  int quiet_fires = 0, reactive_fires = 0;
  quiet.router->set_address_conflict_handler([&] { ++quiet_fires; });
  reactive.router->set_address_conflict_handler([&] { ++reactive_fires; });
  quiet.router->send_beacon_now();
  reactive.router->send_beacon_now();
  run_for(100_ms);
  EXPECT_EQ(quiet_fires, 0);       // disabled: counted but not acted on
  EXPECT_GE(reactive_fires, 1);    // enabled: handler invoked
  EXPECT_GE(quiet.router->stats().dad_conflicts, 1u);
  (void)atk;
}

TEST_F(ExtensionsTest, DadReAddressingAmplifiesTheAttack) {
  // A DAD-enabled victim that rotates identities on every conflict loses
  // its neighbours' location-table continuity — the replay attacker gains
  // a second denial vector for free.
  RouterConfig cfg;
  cfg.dad_enabled = true;
  Node& victim = add_node(0.0, cfg);
  Node& peer = add_node(300.0, cfg);
  attack::InterAreaInterceptor atk{events_, medium_, {150.0, 10.0}, 600.0};
  victim.router->set_address_conflict_handler([&] {
    const net::MacAddress alias{0x0200'0000'AAAAULL + victim.router->stats().dad_conflicts};
    victim.router->rotate_identity(ca_.issue_pseudonym(
        net::GnAddress{net::GnAddress::StationType::kPassengerCar, alias}));
  });
  for (int i = 0; i < 5; ++i) {
    victim.router->send_beacon_now();
    run_for(1_s);
  }
  EXPECT_GE(victim.router->stats().identity_rotations, 2u);
  (void)peer;
  (void)atk;
}

// --- Interference model ------------------------------------------------------------

TEST(Interference, OverlappingFramesDestroyEachOther) {
  sim::EventQueue events;
  phy::Medium medium{events, phy::AccessTechnology::kDsrc};
  medium.set_interference(true);

  int received = 0;
  auto add = [&](double x, std::uint64_t mac) {
    phy::Medium::NodeConfig cfg;
    cfg.mac = net::MacAddress{mac};
    cfg.position = [x] { return geo::Position{x, 0.0}; };
    cfg.tx_range_m = 400.0;
    return medium.add_node(std::move(cfg),
                           [&received](const phy::Frame&, phy::RadioId) { ++received; });
  };
  const auto tx1 = add(0.0, 1);
  const auto tx2 = add(200.0, 2);
  add(100.0, 3);  // receiver in range of both

  phy::Frame f1, f2;
  f1.src = net::MacAddress{1};
  f2.src = net::MacAddress{2};
  f1.msg = security::share(security::SecuredMessage{});
  f2.msg = security::share(security::SecuredMessage{});
  medium.transmit(tx1, f1);
  medium.transmit(tx2, f2);  // same instant: guaranteed overlap
  events.run_until(events.now() + sim::Duration::seconds(1.0));
  // Node 3 loses both colliding frames; the half-duplex transmitters are
  // deaf to each other while sending.
  EXPECT_EQ(received, 0);
  EXPECT_GE(medium.frames_collided(), 2u);
}

TEST(Interference, SequentialFramesBothArrive) {
  sim::EventQueue events;
  phy::Medium medium{events, phy::AccessTechnology::kDsrc};
  medium.set_interference(true);

  int received = 0;
  auto add = [&](double x, std::uint64_t mac) {
    phy::Medium::NodeConfig cfg;
    cfg.mac = net::MacAddress{mac};
    cfg.position = [x] { return geo::Position{x, 0.0}; };
    cfg.tx_range_m = 400.0;
    return medium.add_node(std::move(cfg),
                           [&received](const phy::Frame&, phy::RadioId) { ++received; });
  };
  const auto tx1 = add(0.0, 1);
  const auto tx2 = add(200.0, 2);
  add(100.0, 3);

  phy::Frame f1, f2;
  f1.src = net::MacAddress{1};
  f2.src = net::MacAddress{2};
  f1.msg = security::share(security::SecuredMessage{});
  f2.msg = security::share(security::SecuredMessage{});
  medium.transmit(tx1, f1);
  events.run_until(events.now() + sim::Duration::millis(5));  // frame airtime passed
  medium.transmit(tx2, f2);
  events.run_until(events.now() + sim::Duration::seconds(1.0));
  // Receiver 3 hears both; senders 1 and 2 each hear the other's frame.
  EXPECT_EQ(received, 4);
  EXPECT_EQ(medium.frames_collided(), 0u);
}

TEST(Interference, OffByDefault) {
  sim::EventQueue events;
  phy::Medium medium{events, phy::AccessTechnology::kDsrc};
  int received = 0;
  auto add = [&](double x, std::uint64_t mac) {
    phy::Medium::NodeConfig cfg;
    cfg.mac = net::MacAddress{mac};
    cfg.position = [x] { return geo::Position{x, 0.0}; };
    cfg.tx_range_m = 400.0;
    return medium.add_node(std::move(cfg),
                           [&received](const phy::Frame&, phy::RadioId) { ++received; });
  };
  const auto tx1 = add(0.0, 1);
  const auto tx2 = add(200.0, 2);
  add(100.0, 3);
  phy::Frame f1, f2;
  f1.src = net::MacAddress{1};
  f2.src = net::MacAddress{2};
  f1.msg = security::share(security::SecuredMessage{});
  f2.msg = security::share(security::SecuredMessage{});
  medium.transmit(tx1, f1);
  medium.transmit(tx2, f2);
  events.run_until(events.now() + sim::Duration::seconds(1.0));
  EXPECT_EQ(received, 4);  // no interference: everything lands
}

}  // namespace
}  // namespace vgr::gn
