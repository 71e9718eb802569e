// Node-churn tests: deterministic crash/reboot scheduling at the scenario
// layer, inert-when-disabled semantics, and the duplicate-detector
// black-hole a rebooted station avoids by randomizing its initial
// sequence number (docs/robustness.md).

#include <gtest/gtest.h>

#include <memory>

#include "vgr/scenario/highway.hpp"
#include "vgr/security/authority.hpp"

namespace vgr::scenario {
namespace {

HighwayConfig churn_config() {
  HighwayConfig cfg;
  cfg.sim_duration = sim::Duration::seconds(20.0);
  cfg.seed = 5;
  cfg.churn.crash_rate_hz = 0.5;
  cfg.churn.downtime_s = 1.0;
  return cfg;
}

TEST(ChurnConfig, DisabledByDefault) {
  EXPECT_FALSE(ChurnConfig{}.enabled());
  ChurnConfig c;
  c.crash_rate_hz = 0.1;
  EXPECT_TRUE(c.enabled());
}

TEST(ScenarioChurn, CrashesAndRebootsHappenAndNetworkSurvives) {
  HighwayScenario scenario{churn_config()};
  const IntraAreaResult r = scenario.run_intra_area();
  EXPECT_GT(r.churn_crashes, 0u);
  EXPECT_GT(r.churn_reboots, 0u);
  EXPECT_LE(r.churn_reboots, r.churn_crashes);
  // The network keeps working through the churn.
  EXPECT_GT(r.overall_reception(), 0.0);
}

TEST(ScenarioChurn, ChurnRunsReplayBitIdentically) {
  HighwayScenario a{churn_config()};
  const IntraAreaResult ra = a.run_intra_area();
  HighwayScenario b{churn_config()};
  const IntraAreaResult rb = b.run_intra_area();
  EXPECT_EQ(ra.overall_reception(), rb.overall_reception());
  EXPECT_EQ(ra.churn_crashes, rb.churn_crashes);
  EXPECT_EQ(ra.churn_reboots, rb.churn_reboots);
  EXPECT_EQ(ra.floods.size(), rb.floods.size());
}

TEST(ScenarioChurn, DisabledChurnReportsNothing) {
  HighwayConfig cfg = churn_config();
  cfg.churn = ChurnConfig{};
  HighwayScenario scenario{cfg};
  const IntraAreaResult r = scenario.run_intra_area();
  EXPECT_EQ(r.churn_crashes, 0u);
  EXPECT_EQ(r.churn_reboots, 0u);
}

TEST(ScenarioChurn, NoRebootWhenRebootProbabilityZero) {
  HighwayConfig cfg = churn_config();
  cfg.churn.reboot_probability = 0.0;
  HighwayScenario scenario{cfg};
  const IntraAreaResult r = scenario.run_intra_area();
  EXPECT_GT(r.churn_crashes, 0u);
  EXPECT_EQ(r.churn_reboots, 0u);
}

// --- The reboot black-hole (and its fix) --------------------------------
//
// Peers remember (source address, sequence number) pairs. A station that
// reboots with the same address and a sequence counter restarting at 0
// replays numbers its peers have already recorded: its first packets are
// silently swallowed as duplicates. Randomizing the post-reboot starting
// sequence (as HighwayScenario::reboot_station does) avoids the overlap.

class RebootSequenceTest : public ::testing::Test {
 protected:
  RebootSequenceTest() : medium_{events_, phy::AccessTechnology::kDsrc} {
    addr_a_ = net::GnAddress{net::GnAddress::StationType::kPassengerCar, net::MacAddress{0xAA}};
    const net::GnAddress addr_b{net::GnAddress::StationType::kPassengerCar,
                                net::MacAddress{0xBB}};
    b_router_ = std::make_unique<gn::Router>(
        events_, medium_, security::Signer{ca_.enroll(addr_b)}, ca_.trust_store(), b_mobility_,
        cfg(), 500.0, sim::Rng{2});
    b_router_->set_delivery_handler([this](const gn::Router::Delivery&) { ++b_delivered_; });
    a_router_ = make_a();
  }

  static gn::RouterConfig cfg() {
    return gn::RouterConfig::for_technology(phy::AccessTechnology::kDsrc);
  }

  std::unique_ptr<gn::Router> make_a() {
    return std::make_unique<gn::Router>(events_, medium_,
                                        security::Signer{ca_.enroll(addr_a_)},
                                        ca_.trust_store(), a_mobility_, cfg(), 500.0,
                                        sim::Rng{3});
  }

  void send_from_a() {
    // Both stations sit inside the target area, so A broadcasts immediately
    // and B delivers on reception.
    a_router_->send_geo_broadcast(geo::GeoArea::circle({50.0, 0.0}, 200.0), {0x42});
    events_.run_until(events_.now() + sim::Duration::seconds(0.5));
  }

  sim::EventQueue events_;
  phy::Medium medium_;
  security::CertificateAuthority ca_;
  gn::StaticMobility a_mobility_{geo::Position{0.0, 0.0}};
  gn::StaticMobility b_mobility_{geo::Position{100.0, 0.0}};
  net::GnAddress addr_a_{};
  std::unique_ptr<gn::Router> a_router_;
  std::unique_ptr<gn::Router> b_router_;
  int b_delivered_{0};
};

TEST_F(RebootSequenceTest, RebootAtSequenceZeroIsBlackholed) {
  send_from_a();  // sequence 0
  ASSERT_EQ(b_delivered_, 1);

  // Crash and reboot A without sequence randomization: it reuses sequence 0,
  // which B has already recorded for A's address.
  a_router_->shutdown();
  a_router_ = make_a();
  send_from_a();
  EXPECT_EQ(b_delivered_, 1) << "expected the rebooted station's packet to be black-holed";
  EXPECT_GE(b_router_->stats().duplicates, 1u);
}

TEST_F(RebootSequenceTest, RandomizedSequenceSurvivesReboot) {
  send_from_a();  // sequence 0
  ASSERT_EQ(b_delivered_, 1);

  a_router_->shutdown();
  a_router_ = make_a();
  a_router_->seed_sequence_number(1000);  // what reboot_station() does
  send_from_a();
  EXPECT_EQ(b_delivered_, 2) << "randomized post-reboot sequence must not be black-holed";
}

// --- Neighbour staleness under churn (docs/robustness.md) ----------------
//
// The 20 s LocTE TTL keeps a crashed neighbour attractive to greedy
// forwarding long after it went silent. With the soft-state monitor on, two
// missed beacon periods quarantine the hop (greedy skips it while the table
// entry is still live) and four evict it outright; the station's first
// beacon after reboot re-learns it immediately.

class StaleNeighborTest : public ::testing::Test {
 protected:
  StaleNeighborTest() : medium_{events_, phy::AccessTechnology::kDsrc} {
    addr_b_ = net::GnAddress{net::GnAddress::StationType::kPassengerCar, net::MacAddress{0xB0}};
    const net::GnAddress addr_a{net::GnAddress::StationType::kPassengerCar,
                                net::MacAddress{0xA0}};
    gn::RouterConfig cfg = gn::RouterConfig::for_technology(phy::AccessTechnology::kDsrc);
    cfg.nbr_monitor = true;  // quarantine after 2 misses, evict after 4
    a_router_ = std::make_unique<gn::Router>(events_, medium_,
                                             security::Signer{ca_.enroll(addr_a)},
                                             ca_.trust_store(), a_mobility_, cfg, 500.0,
                                             sim::Rng{7});
    b_router_ = make_b();
  }

  std::unique_ptr<gn::Router> make_b() {
    return std::make_unique<gn::Router>(
        events_, medium_, security::Signer{ca_.enroll(addr_b_)}, ca_.trust_store(),
        b_mobility_, gn::RouterConfig::for_technology(phy::AccessTechnology::kDsrc), 500.0,
        sim::Rng{8});
  }

  void run_for(sim::Duration d) { events_.run_until(events_.now() + d); }

  sim::EventQueue events_;
  phy::Medium medium_;
  security::CertificateAuthority ca_;
  gn::StaticMobility a_mobility_{geo::Position{0.0, 0.0}};
  gn::StaticMobility b_mobility_{geo::Position{400.0, 0.0}};
  net::GnAddress addr_b_{};
  std::unique_ptr<gn::Router> a_router_;
  std::unique_ptr<gn::Router> b_router_;
};

TEST_F(StaleNeighborTest, CrashedNeighborIsQuarantinedLongBeforeTtl) {
  b_router_->send_beacon_now();
  run_for(sim::Duration::millis(10));
  ASSERT_TRUE(a_router_->next_hop_toward({1000.0, 0.0}).has_value());

  b_router_->shutdown();  // crash: the radio goes silent mid-protocol
  // Two beacon periods (2 x 3.75 s) later the hop is quarantined: the
  // location-table entry is still live (TTL 20 s), greedy skips it anyway.
  run_for(sim::Duration::seconds(8.0));
  EXPECT_TRUE(a_router_->location_table().find(addr_b_, events_.now()).has_value());
  EXPECT_FALSE(a_router_->next_hop_toward({1000.0, 0.0}).has_value());
  EXPECT_EQ(a_router_->neighbor_monitor().quarantined(events_.now()), 1u);
}

TEST_F(StaleNeighborTest, CrashedNeighborIsEvictedByTheMonitorSweep) {
  a_router_->start();  // schedules the periodic monitor sweep
  b_router_->send_beacon_now();
  run_for(sim::Duration::millis(10));
  b_router_->shutdown();

  // Four missed periods (4 x 3.75 s = 15 s) + one sweep tick, still well
  // inside the 20 s TTL: the entry is gone from the table entirely.
  run_for(sim::Duration::seconds(19.0));
  EXPECT_FALSE(a_router_->location_table().find(addr_b_, events_.now()).has_value());
  EXPECT_GE(a_router_->stats().neighbor_evictions, 1u);
  EXPECT_EQ(a_router_->neighbor_monitor().tracked(), 0u);
}

TEST_F(StaleNeighborTest, RebootedStationIsRelearnedFromItsFirstBeacon) {
  b_router_->send_beacon_now();
  run_for(sim::Duration::millis(10));
  b_router_->shutdown();
  run_for(sim::Duration::seconds(8.0));
  ASSERT_FALSE(a_router_->next_hop_toward({1000.0, 0.0}).has_value());

  b_router_ = make_b();  // reboot with the same address
  b_router_->send_beacon_now();
  run_for(sim::Duration::millis(10));
  const auto hop = a_router_->next_hop_toward({1000.0, 0.0});
  ASSERT_TRUE(hop.has_value());
  EXPECT_EQ(hop->next_hop.address, addr_b_);
  EXPECT_GE(a_router_->neighbor_monitor().stats().revivals, 1u);
}

TEST(ScenarioChurnRecovery, RecoveryUnderChurnReplaysBitIdentically) {
  HighwayConfig cfg = churn_config();
  cfg.recovery.scf = true;
  cfg.recovery.retx = true;
  cfg.recovery.nbr_monitor = true;
  HighwayScenario a{cfg};
  const IntraAreaResult ra = a.run_intra_area();
  HighwayScenario b{cfg};
  const IntraAreaResult rb = b.run_intra_area();
  EXPECT_EQ(ra.overall_reception(), rb.overall_reception());
  EXPECT_EQ(ra.churn_crashes, rb.churn_crashes);
  EXPECT_EQ(ra.churn_reboots, rb.churn_reboots);
  // The network still works with the recovery layer on under churn.
  EXPECT_GT(ra.overall_reception(), 0.0);
}

}  // namespace
}  // namespace vgr::scenario
