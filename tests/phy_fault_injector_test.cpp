// Fault-injector tests: determinism, the Gilbert–Elliott burst model,
// corruption mechanics, and the medium-level delivery contract (dropped /
// duplicated / corrupted frames as receivers see them). The VGR_FAULT_*
// knobs are tested with the run-config knob list (scenario_knobs_test).

#include "vgr/phy/fault_injector.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "vgr/net/codec.hpp"
#include "vgr/phy/medium.hpp"

namespace vgr::phy {
namespace {

TEST(FaultConfig, DefaultIsDisabled) {
  EXPECT_FALSE(FaultConfig{}.enabled());
  FaultConfig c;
  c.drop_probability = 0.1;
  EXPECT_TRUE(c.enabled());
  c = FaultConfig{};
  c.max_extra_delay_s = 0.001;
  EXPECT_TRUE(c.enabled());
}

TEST(FaultInjector, DisabledInjectorIsInert) {
  FaultInjector inj{FaultConfig{}, sim::Rng{1}};
  for (int i = 0; i < 1000; ++i) {
    const auto d = inj.on_frame();
    EXPECT_FALSE(d.drop);
    EXPECT_FALSE(d.duplicate);
    EXPECT_EQ(d.extra_delay, sim::Duration::zero());
    EXPECT_FALSE(inj.drop_delivery());
    EXPECT_FALSE(inj.corrupt_delivery());
  }
  EXPECT_EQ(inj.stats().frames_dropped, 0u);
  EXPECT_EQ(inj.stats().deliveries_dropped, 0u);
}

TEST(FaultInjector, SameSeedSameDecisionSequence) {
  FaultConfig c;
  c.drop_probability = 0.3;
  c.duplicate_probability = 0.2;
  c.max_extra_delay_s = 0.005;
  c.link_loss_probability = 0.25;
  FaultInjector a{c, sim::Rng{42}};
  FaultInjector b{c, sim::Rng{42}};
  for (int i = 0; i < 2000; ++i) {
    const auto da = a.on_frame();
    const auto db = b.on_frame();
    ASSERT_EQ(da.drop, db.drop);
    ASSERT_EQ(da.duplicate, db.duplicate);
    ASSERT_EQ(da.extra_delay, db.extra_delay);
    ASSERT_EQ(a.drop_delivery(), b.drop_delivery());
  }
  EXPECT_EQ(a.stats().frames_dropped, b.stats().frames_dropped);
}

TEST(FaultInjector, CertainDropDropsEveryFrame) {
  FaultConfig c;
  c.drop_probability = 1.0;
  FaultInjector inj{c, sim::Rng{7}};
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(inj.on_frame().drop);
  EXPECT_EQ(inj.stats().frames_dropped, 100u);
  EXPECT_EQ(inj.stats().frames_dropped_burst, 0u);  // i.i.d., not burst
}

TEST(FaultInjector, GilbertElliottEntersAndLeavesBurstState) {
  FaultConfig c;
  c.ge_p_good_to_bad = 1.0;  // enter the bad state on the first frame
  c.ge_p_bad_to_good = 0.0;  // and never leave
  c.ge_loss_bad = 1.0;
  FaultInjector inj{c, sim::Rng{7}};
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(inj.on_frame().drop);
  EXPECT_TRUE(inj.burst_state_bad());
  EXPECT_EQ(inj.stats().frames_dropped, 50u);
  EXPECT_EQ(inj.stats().frames_dropped_burst, 50u);
}

TEST(FaultInjector, GilbertElliottGoodStateIsLossFreeByDefault) {
  FaultConfig c;
  c.ge_p_good_to_bad = 1e-12;  // chain active but (almost) never flips
  FaultInjector inj{c, sim::Rng{7}};
  std::uint64_t drops = 0;
  for (int i = 0; i < 500; ++i) drops += inj.on_frame().drop ? 1u : 0u;
  EXPECT_EQ(drops, 0u);
}

TEST(FaultInjector, CorruptBytesFlipsBetweenOneAndFourBits) {
  FaultConfig c;
  c.corrupt_probability = 1.0;
  FaultInjector inj{c, sim::Rng{9}};
  for (int rep = 0; rep < 200; ++rep) {
    const net::Bytes original(32, 0x00);
    net::Bytes wire = original;
    inj.corrupt_bytes(wire);
    int flipped = 0;
    for (std::size_t i = 0; i < wire.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        flipped += ((wire[i] ^ original[i]) >> bit) & 1;
      }
    }
    ASSERT_GE(flipped, 1);
    ASSERT_LE(flipped, 4);
  }
  EXPECT_EQ(inj.stats().deliveries_corrupted, 200u);
}

TEST(FaultInjector, ExtraDelayIsBounded) {
  FaultConfig c;
  c.max_extra_delay_s = 0.003;
  FaultInjector inj{c, sim::Rng{11}};
  for (int i = 0; i < 500; ++i) {
    const auto d = inj.on_frame();
    EXPECT_GE(d.extra_delay, sim::Duration::zero());
    EXPECT_LE(d.extra_delay, sim::Duration::seconds(0.003));
  }
}

// --- Medium-level delivery contract ------------------------------------

class FaultMediumTest : public ::testing::Test {
 protected:
  FaultMediumTest() : medium_{events_, AccessTechnology::kDsrc} {
    tx_ = add(0.0);
    rx_ = add(100.0);
  }

  RadioId add(double x) {
    Medium::NodeConfig cfg;
    cfg.mac = net::MacAddress{0xA0 + static_cast<std::uint64_t>(x)};
    cfg.position = [x] { return geo::Position{x, 0.0}; };
    cfg.tx_range_m = 500.0;
    return medium_.add_node(std::move(cfg), [this](const Frame& f, RadioId) {
      received_.push_back(f);
    });
  }

  void install(FaultConfig cfg) {
    medium_.set_fault_injector(std::make_unique<FaultInjector>(cfg, sim::Rng{77}));
  }

  void send(int frames) {
    for (int i = 0; i < frames; ++i) {
      Frame f;
      f.msg = security::share(security::SecuredMessage{});
      medium_.transmit(tx_, std::move(f));
      events_.run_until(events_.now() + sim::Duration::seconds(0.1));
    }
  }

  sim::EventQueue events_;
  Medium medium_;
  RadioId tx_{}, rx_{};
  std::vector<Frame> received_;
};

TEST_F(FaultMediumTest, CertainFrameDropReachesNobody) {
  FaultConfig c;
  c.drop_probability = 1.0;
  install(c);
  send(20);
  EXPECT_TRUE(received_.empty());
  EXPECT_EQ(medium_.fault_injector()->stats().frames_dropped, 20u);
  // The frames still count as sent: the transmitter's radio was busy.
  EXPECT_EQ(medium_.frames_sent(), 20u);
}

TEST_F(FaultMediumTest, CertainLinkLossDropsEveryDelivery) {
  FaultConfig c;
  c.link_loss_probability = 1.0;
  install(c);
  send(20);
  EXPECT_TRUE(received_.empty());
  EXPECT_EQ(medium_.fault_injector()->stats().deliveries_dropped, 20u);
}

TEST_F(FaultMediumTest, CorruptedDeliveryCarriesDamagedWireImage) {
  FaultConfig c;
  c.corrupt_probability = 1.0;
  install(c);
  send(10);
  ASSERT_EQ(received_.size(), 10u);
  for (const Frame& f : received_) {
    ASSERT_FALSE(f.raw.empty());
    // Damaged, not identical: at least one bit differs from the clean wire.
    EXPECT_NE(f.raw, net::Codec::encode(f.msg->packet()));
  }
}

TEST_F(FaultMediumTest, CleanPathLeavesRawEmpty) {
  send(5);
  ASSERT_EQ(received_.size(), 5u);
  for (const Frame& f : received_) EXPECT_TRUE(f.raw.empty());
}

TEST_F(FaultMediumTest, DuplicationDeliversTheFrameTwice) {
  FaultConfig c;
  c.duplicate_probability = 1.0;
  install(c);
  send(5);
  // Every original plus one duplicate (duplicates are exempt from further
  // duplication draws, so exactly 2x).
  EXPECT_EQ(received_.size(), 10u);
  EXPECT_EQ(medium_.fault_injector()->stats().frames_duplicated, 5u);
  EXPECT_EQ(medium_.frames_sent(), 10u);
}

}  // namespace
}  // namespace vgr::phy
