#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "vgr/gn/router.hpp"
#include "vgr/security/authority.hpp"

namespace vgr::gn {
namespace {

using namespace vgr::sim::literals;

constexpr double kRange = 486.0;

/// A static station with a router and a delivery log, on a shared medium.
struct Node {
  std::unique_ptr<StaticMobility> mobility;
  std::unique_ptr<Router> router;
  std::vector<Router::Delivery> deliveries;
};

class RouterTest : public ::testing::Test {
 protected:
  RouterTest() : medium_{events_, phy::AccessTechnology::kDsrc} {}

  Node& add_node(double x, double range = kRange, RouterConfig cfg = default_config()) {
    nodes_.push_back(std::make_unique<Node>());
    Node& n = *nodes_.back();
    n.mobility = std::make_unique<StaticMobility>(geo::Position{x, 0.0});
    const net::GnAddress addr{net::GnAddress::StationType::kPassengerCar,
                              net::MacAddress{0x100 + nodes_.size()}};
    n.router = std::make_unique<Router>(events_, medium_, security::Signer{ca_.enroll(addr)},
                                        ca_.trust_store(), *n.mobility, cfg, range,
                                        rng_.fork());
    n.router->set_delivery_handler(
        [&n](const Router::Delivery& d) { n.deliveries.push_back(d); });
    return n;
  }

  static RouterConfig default_config() {
    RouterConfig cfg = RouterConfig::for_technology(phy::AccessTechnology::kDsrc);
    cfg.cbf_dist_max_m = kRange;
    return cfg;
  }

  void start_all() {
    for (auto& n : nodes_) n->router->start();
  }

  void exchange_beacons() {
    for (auto& n : nodes_) n->router->send_beacon_now();
    run_for(100_ms);
  }

  void run_for(sim::Duration d) { events_.run_until(events_.now() + d); }

  /// Raw injector for hand-crafted (possibly invalid) frames.
  phy::RadioId add_injector(double x, double range) {
    phy::Medium::NodeConfig cfg;
    cfg.mac = net::MacAddress{0xBADBAD};
    cfg.position = [x] { return geo::Position{x, 0.0}; };
    cfg.tx_range_m = range;
    cfg.promiscuous = true;
    return medium_.add_node(std::move(cfg), [](const phy::Frame&, phy::RadioId) {});
  }

  sim::EventQueue events_;
  phy::Medium medium_;
  security::CertificateAuthority ca_;
  sim::Rng rng_{99};
  std::vector<std::unique_ptr<Node>> nodes_;
};

TEST_F(RouterTest, BeaconsPopulateNeighborTables) {
  Node& a = add_node(0.0);
  Node& b = add_node(400.0);
  Node& c = add_node(850.0);  // out of a's range, in b's range
  exchange_beacons();

  const auto now = events_.now();
  EXPECT_TRUE(a.router->location_table().find(b.router->address(), now).has_value());
  EXPECT_FALSE(a.router->location_table().find(c.router->address(), now).has_value());
  EXPECT_TRUE(b.router->location_table().find(a.router->address(), now).has_value());
  EXPECT_TRUE(b.router->location_table().find(c.router->address(), now).has_value());
  EXPECT_TRUE(c.router->location_table().find(b.router->address(), now).has_value());
  EXPECT_TRUE(a.router->location_table()
                  .find(b.router->address(), now)
                  ->is_neighbor);
}

TEST_F(RouterTest, PeriodicBeaconingRunsAfterStart) {
  Node& a = add_node(0.0);
  Node& b = add_node(100.0);
  start_all();
  run_for(10_s);
  // ~3 s period + jitter: expect 2-4 beacons in 10 s, received by the peer.
  EXPECT_GE(a.router->stats().beacons_sent, 2u);
  EXPECT_LE(a.router->stats().beacons_sent, 5u);
  EXPECT_GE(b.router->stats().beacons_received, 2u);
}

TEST_F(RouterTest, GeoBroadcastFloodsDestinationArea) {
  // Chain of five nodes inside the area; each hop ~400 m.
  for (int i = 0; i < 5; ++i) add_node(i * 400.0);
  exchange_beacons();

  const auto area = geo::GeoArea::rectangle({800.0, 0.0}, 900.0, 50.0);
  nodes_[0]->router->send_geo_broadcast(area, {1, 2, 3});
  run_for(2_s);

  for (int i = 1; i < 5; ++i) {
    EXPECT_EQ(nodes_[static_cast<std::size_t>(i)]->deliveries.size(), 1u) << "node " << i;
  }
}

TEST_F(RouterTest, CbfSuppressesRedundantRebroadcasts) {
  // Dense cluster: 10 nodes all in mutual range. One broadcast + a single
  // contention winner should cover everyone; most buffers are suppressed.
  for (int i = 0; i < 10; ++i) add_node(i * 20.0);
  exchange_beacons();
  const auto area = geo::GeoArea::rectangle({100.0, 0.0}, 300.0, 50.0);
  nodes_[0]->router->send_geo_broadcast(area, {7});
  run_for(2_s);

  std::uint64_t rebroadcasts = 0, suppressed = 0;
  for (auto& n : nodes_) {
    rebroadcasts += n->router->stats().cbf_rebroadcasts;
    suppressed += n->router->stats().cbf_suppressed;
  }
  EXPECT_GE(rebroadcasts, 1u);
  EXPECT_LE(rebroadcasts, 3u);
  EXPECT_GE(suppressed, 6u);
  for (int i = 1; i < 10; ++i) {
    EXPECT_EQ(nodes_[static_cast<std::size_t>(i)]->deliveries.size(), 1u);
  }
}

TEST_F(RouterTest, FarthestReceiverWinsContention) {
  Node& src = add_node(0.0);
  Node& near = add_node(100.0);
  Node& far = add_node(450.0);
  exchange_beacons();
  src.router->send_geo_broadcast(geo::GeoArea::rectangle({250.0, 0.0}, 500.0, 50.0), {1});
  run_for(2_s);
  EXPECT_EQ(far.router->stats().cbf_rebroadcasts, 1u);
  EXPECT_EQ(near.router->stats().cbf_rebroadcasts, 0u);
  EXPECT_EQ(near.router->stats().cbf_suppressed, 1u);
}

TEST_F(RouterTest, GreedyForwardingReachesRemoteArea) {
  // Relay chain toward a destination area around x = 2000; hops ~400 m.
  for (int i = 0; i <= 5; ++i) add_node(i * 400.0);
  exchange_beacons();

  const auto area = geo::GeoArea::circle({2000.0, 0.0}, 60.0);
  nodes_[0]->router->send_geo_broadcast(area, {'h', 'i'});
  run_for(2_s);

  EXPECT_EQ(nodes_[5]->deliveries.size(), 1u);  // node at 2000, inside area
  EXPECT_TRUE(nodes_[2]->deliveries.empty());   // relay outside the area
  std::uint64_t unicasts = 0;
  for (auto& n : nodes_) unicasts += n->router->stats().gf_unicast_forwards;
  EXPECT_GE(unicasts, 4u);  // source + relays each picked a next hop
}

TEST_F(RouterTest, GfBuffersWhenNoNeighborOffersProgress) {
  Node& a = add_node(0.0);
  exchange_beacons();
  a.router->send_geo_broadcast(geo::GeoArea::circle({2000.0, 0.0}, 60.0), {1});
  run_for(100_ms);
  EXPECT_EQ(a.router->stats().gf_buffered, 1u);

  // A neighbour appearing later triggers the buffered retry.
  Node& b = add_node(400.0);
  b.router->send_beacon_now();
  run_for(2_s);
  EXPECT_EQ(a.router->stats().gf_unicast_forwards, 1u);
}

TEST_F(RouterTest, GfBroadcastFallbackWhenConfigured) {
  RouterConfig cfg = default_config();
  cfg.gf_fallback = GfFallback::kBroadcast;
  Node& a = add_node(0.0, kRange, cfg);
  exchange_beacons();
  a.router->send_geo_broadcast(geo::GeoArea::circle({2000.0, 0.0}, 60.0), {1});
  run_for(100_ms);
  EXPECT_EQ(a.router->stats().gf_broadcast_fallbacks, 1u);
}

TEST_F(RouterTest, GeoUnicastDeliversOnlyToDestination) {
  Node& a = add_node(0.0);
  Node& b = add_node(400.0);
  Node& c = add_node(800.0);
  exchange_beacons();
  a.router->send_geo_unicast(c.router->address(), {800.0, 0.0}, {'u'});
  run_for(2_s);
  EXPECT_EQ(c.deliveries.size(), 1u);
  EXPECT_TRUE(b.deliveries.empty());  // b only relayed
  EXPECT_GE(b.router->stats().gf_unicast_forwards, 1u);
}

TEST_F(RouterTest, HopLimitExhaustionStopsForwarding) {
  for (int i = 0; i <= 5; ++i) add_node(i * 400.0);
  exchange_beacons();
  // Two hops of budget cannot cross five 400 m hops.
  nodes_[0]->router->send_geo_broadcast(geo::GeoArea::circle({2000.0, 0.0}, 60.0), {1},
                                        /*hop_limit=*/2);
  run_for(2_s);
  EXPECT_TRUE(nodes_[5]->deliveries.empty());
  std::uint64_t exhausted = 0;
  for (auto& n : nodes_) exhausted += n->router->stats().rhl_exhausted;
  EXPECT_GE(exhausted, 1u);
}

TEST_F(RouterTest, DuplicateGbcIsNotDeliveredTwice) {
  Node& a = add_node(0.0);
  Node& b = add_node(100.0);
  Node& c = add_node(200.0);
  exchange_beacons();
  a.router->send_geo_broadcast(geo::GeoArea::rectangle({100.0, 0.0}, 300.0, 50.0), {1});
  run_for(2_s);
  // b hears the packet from a and again from c's rebroadcast (or vice
  // versa) but delivers exactly once.
  EXPECT_EQ(b.deliveries.size(), 1u);
  EXPECT_EQ(c.deliveries.size(), 1u);
}

TEST_F(RouterTest, ForgedFrameFailsAuthentication) {
  Node& a = add_node(0.0);
  const auto injector = add_injector(50.0, 200.0);

  net::Packet p;
  p.common.type = net::CommonHeader::HeaderType::kBeacon;
  net::LongPositionVector pv;
  pv.address = net::GnAddress{net::GnAddress::StationType::kPassengerCar, net::MacAddress{0x666}};
  pv.timestamp = events_.now();
  pv.position = {60.0, 0.0};
  p.extended = net::BeaconHeader{pv};

  phy::Frame frame;
  frame.src = net::MacAddress{0x666};
  frame.msg = security::share(security::SecuredMessage::from_parts(p, {}, 0xFFFF));  // garbage tag, no cert
  medium_.transmit(injector, frame);
  run_for(100_ms);

  EXPECT_EQ(a.router->stats().auth_failures, 1u);
  EXPECT_FALSE(a.router->location_table().find(pv.address, events_.now()).has_value());
}

TEST_F(RouterTest, StaleBeaconIsRejected) {
  Node& a = add_node(0.0);
  Node& b = add_node(100.0);
  run_for(10_s);  // advance time, no beacons yet

  // Capture-and-delay: a beacon whose PV timestamp is 5 s old fails the
  // freshness check even though its signature is valid.
  net::Packet p;
  p.common.type = net::CommonHeader::HeaderType::kBeacon;
  auto pv = b.router->self_pv();
  pv.timestamp = events_.now() - 5_s;
  p.extended = net::BeaconHeader{pv};
  const auto injector = add_injector(50.0, 200.0);
  phy::Frame frame;
  frame.src = b.router->mac();
  const auto identity_signed =
      security::SecuredMessage::sign(p, security::Signer{ca_.enroll(pv.address)});
  frame.msg = security::share(identity_signed);
  medium_.transmit(injector, frame);
  run_for(100_ms);

  EXPECT_EQ(a.router->stats().stale_pv_drops, 1u);
}

TEST_F(RouterTest, ShutdownStopsAllActivity) {
  Node& a = add_node(0.0);
  Node& b = add_node(100.0);
  start_all();
  run_for(5_s);
  const auto sent_before = a.router->stats().beacons_sent;
  a.router->shutdown();
  run_for(10_s);
  EXPECT_EQ(a.router->stats().beacons_sent, sent_before);
  (void)b;
}

TEST_F(RouterTest, SelfPvReflectsMobility) {
  Node& a = add_node(123.0);
  const auto pv = a.router->self_pv();
  EXPECT_DOUBLE_EQ(pv.position.x, 123.0);
  EXPECT_EQ(pv.address, a.router->address());
}

TEST_F(RouterTest, OwnReplayedPacketIsIgnored) {
  Node& a = add_node(0.0);
  Node& b = add_node(100.0);
  exchange_beacons();
  a.router->send_geo_broadcast(geo::GeoArea::rectangle({50.0, 0.0}, 200.0, 50.0), {1});
  run_for(2_s);
  // b's CBF rebroadcast reached a; a must not re-deliver or re-forward.
  EXPECT_EQ(a.deliveries.size(), 0u);  // originator does not self-deliver
  EXPECT_EQ(b.deliveries.size(), 1u);
}

TEST_F(RouterTest, ForwardingDoesNotMutateSharedFrame) {
  // Aliasing regression: the medium delivers ONE shared frame object to
  // every receiver. The forwarder's per-hop RHL rewrite must happen on a
  // private copy — a later delivery of the same transmission (the watcher,
  // placed farther from the source than the forwarder) has to observe the
  // original hop count and the original, still-valid signature.
  Node& a = add_node(0.0);
  Node& b = add_node(400.0);
  add_node(850.0);  // inside the destination area, reachable only via b
  exchange_beacons();

  struct Seen {
    net::MacAddress src;
    std::uint8_t rhl;
    std::uint64_t sig;
    bool verified;
  };
  std::vector<Seen> seen;
  phy::Medium::NodeConfig wcfg;
  wcfg.mac = net::MacAddress{0xEEE};
  wcfg.position = [] { return geo::Position{480.0, 0.0}; };
  wcfg.tx_range_m = 1.0;
  wcfg.promiscuous = true;
  medium_.add_node(std::move(wcfg), [&](const phy::Frame& f, phy::RadioId) {
    if (f.msg->packet().gbc() != nullptr) {
      seen.push_back({f.src, f.msg->packet().basic.remaining_hop_limit, f.msg->signature(),
                      f.msg->verify(*ca_.trust_store())});
    }
  });

  a.router->send_geo_broadcast(geo::GeoArea::circle({850.0, 0.0}, 100.0), {7});
  run_for(2_s);

  const net::MacAddress a_mac = a.router->address().mac();
  const net::MacAddress b_mac = b.router->address().mac();
  std::uint8_t origin_rhl = 0;
  std::uint64_t origin_sig = 0;
  bool saw_forward = false;
  for (const Seen& s : seen) {
    if (s.src == a_mac) {
      if (origin_sig == 0) {
        origin_rhl = s.rhl;
        origin_sig = s.sig;
      }
      // Every sighting of the origin's transmission carries the pristine
      // hop count — b's rewrite never leaked into the shared object.
      EXPECT_EQ(s.rhl, origin_rhl);
    }
    if (s.src == b_mac) {
      saw_forward = true;
      EXPECT_EQ(s.rhl, origin_rhl - 1);   // decremented on b's private copy
      EXPECT_EQ(s.sig, origin_sig);       // envelope otherwise untouched
    }
    EXPECT_TRUE(s.verified);
  }
  ASSERT_NE(origin_sig, 0u);
  EXPECT_TRUE(saw_forward);
}

TEST_F(RouterTest, VerifyMemoCountersSurfaceInStats) {
  // The same signed envelope crosses each router's ingest once per hop or
  // retransmission; a check that repeats the trust store's previous question
  // is answered from its last verdict, and the split is visible per router.
  Node& a = add_node(0.0);
  Node& b = add_node(100.0);
  exchange_beacons();
  a.router->send_geo_broadcast(geo::GeoArea::rectangle({50.0, 0.0}, 200.0, 50.0), {1});
  run_for(2_s);
  const RouterStats& sa = a.router->stats();
  const RouterStats& sb = b.router->stats();
  // Every verified ingest is classified exactly once as hit or miss.
  EXPECT_GT(sa.verify_memo_misses + sa.verify_memo_hits, 0u);
  EXPECT_GT(sb.verify_memo_misses, 0u);
  // b hears a's GBC, then a hears b's CBF rebroadcast of the *same* signed
  // portion and asks the shared store the question b just asked: a's
  // re-verification of its own flooded packet is a hit.
  EXPECT_GT(sa.verify_memo_hits, 0u);
}

TEST_F(RouterTest, SequenceNumbersIncrease) {
  Node& a = add_node(0.0);
  exchange_beacons();
  const auto area = geo::GeoArea::rectangle({0.0, 0.0}, 100.0, 50.0);
  const auto s1 = a.router->send_geo_broadcast(area, {1});
  const auto s2 = a.router->send_geo_broadcast(area, {2});
  EXPECT_EQ(s2, s1 + 1);
}

// Technology-derived router configuration defaults.

TEST(RouterConfig, DefaultsMatchStandardAndPaper) {
  const RouterConfig cfg;
  EXPECT_EQ(cfg.beacon_interval, sim::Duration::seconds(3.0));
  EXPECT_EQ(cfg.beacon_jitter, sim::Duration::millis(750));
  EXPECT_EQ(cfg.locte_ttl, sim::Duration::seconds(20.0));
  EXPECT_EQ(cfg.cbf_to_min, sim::Duration::millis(1));
  EXPECT_EQ(cfg.cbf_to_max, sim::Duration::millis(100));
  EXPECT_EQ(cfg.default_hop_limit, 10);
  EXPECT_FALSE(cfg.plausibility_check);
  EXPECT_FALSE(cfg.rhl_drop_check);
  EXPECT_FALSE(cfg.gf_ack);
  EXPECT_FALSE(cfg.dad_enabled);
  EXPECT_EQ(cfg.rhl_drop_threshold, 3);
}

TEST(RouterConfig, ForTechnologyPicksNlosMedian) {
  const auto dsrc = RouterConfig::for_technology(phy::AccessTechnology::kDsrc);
  EXPECT_DOUBLE_EQ(dsrc.cbf_dist_max_m, 486.0);
  EXPECT_DOUBLE_EQ(dsrc.plausibility_threshold_m, 486.0);
  const auto cv2x = RouterConfig::for_technology(phy::AccessTechnology::kCv2x);
  EXPECT_DOUBLE_EQ(cv2x.cbf_dist_max_m, 593.0);
  EXPECT_DOUBLE_EQ(cv2x.plausibility_threshold_m, 593.0);
}

}  // namespace
}  // namespace vgr::gn
