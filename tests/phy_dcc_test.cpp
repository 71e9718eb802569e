// Reactive DCC state machine (ETSI TS 102 687 style, docs/robustness.md):
// CBR band ladder, sliding-window smoothing and per-state Toff. The
// VGR_DCC_* knobs are tested with the run-config knob list
// (scenario_knobs_test).

#include <gtest/gtest.h>

#include "vgr/phy/dcc.hpp"

namespace vgr::phy {
namespace {

using namespace vgr::sim::literals;

Dcc make_dcc(std::size_t window = 1) {
  DccConfig cfg;
  cfg.enabled = true;
  cfg.window_samples = window;
  return Dcc{cfg};
}

TEST(Dcc, StateLadderFollowsThresholdBands) {
  // window = 1 makes each sample the window average, so the ladder reacts
  // instantly and every band edge can be probed directly.
  Dcc dcc = make_dcc(1);
  EXPECT_EQ(dcc.state(), Dcc::State::kRelaxed);

  dcc.on_sample(0.29);
  EXPECT_EQ(dcc.state(), Dcc::State::kRelaxed);
  dcc.on_sample(0.30);
  EXPECT_EQ(dcc.state(), Dcc::State::kActive1);
  dcc.on_sample(0.40);
  EXPECT_EQ(dcc.state(), Dcc::State::kActive2);
  dcc.on_sample(0.50);
  EXPECT_EQ(dcc.state(), Dcc::State::kActive3);
  dcc.on_sample(0.62);
  EXPECT_EQ(dcc.state(), Dcc::State::kRestrictive);
  dcc.on_sample(0.05);
  EXPECT_EQ(dcc.state(), Dcc::State::kRelaxed);
  EXPECT_EQ(dcc.state_changes(), 5u);
  EXPECT_EQ(dcc.samples(), 6u);
}

TEST(Dcc, ToffGrowsWithState) {
  Dcc dcc = make_dcc(1);
  EXPECT_EQ(dcc.toff(), 60_ms);
  dcc.on_sample(0.35);
  EXPECT_EQ(dcc.toff(), 100_ms);
  dcc.on_sample(0.45);
  EXPECT_EQ(dcc.toff(), 180_ms);
  dcc.on_sample(0.55);
  EXPECT_EQ(dcc.toff(), 260_ms);
  dcc.on_sample(0.90);
  EXPECT_EQ(dcc.toff(), 460_ms);
}

TEST(Dcc, WindowAverageSmoothsBursts) {
  // One attacker burst inside a 4-sample window must not flip the ladder:
  // avg(0.9, 0, 0, 0) = 0.225 < 0.30 stays Relaxed once the window fills.
  Dcc dcc = make_dcc(4);
  dcc.on_sample(0.9);
  // A part-filled window averages over what it has — a single high sample
  // IS the average right after startup.
  EXPECT_EQ(dcc.state(), Dcc::State::kRestrictive);
  dcc.on_sample(0.0);
  dcc.on_sample(0.0);
  dcc.on_sample(0.0);
  EXPECT_DOUBLE_EQ(dcc.cbr(), 0.225);
  EXPECT_EQ(dcc.state(), Dcc::State::kRelaxed);
  // The burst leaves the window entirely after 4 fresh samples.
  dcc.on_sample(0.0);
  EXPECT_DOUBLE_EQ(dcc.cbr(), 0.0);
}

TEST(Dcc, PeakTracksRawSamplesNotTheAverage) {
  Dcc dcc = make_dcc(10);
  dcc.on_sample(0.8);
  for (int i = 0; i < 9; ++i) dcc.on_sample(0.1);
  EXPECT_DOUBLE_EQ(dcc.peak_cbr(), 0.8);
  EXPECT_LT(dcc.cbr(), 0.30);
}

TEST(Dcc, SamplesAreClampedToUnitInterval) {
  // Busy time accounted at transmit can spill past a sample edge, producing
  // a ratio slightly above 1; the ladder input must stay a true ratio.
  Dcc dcc = make_dcc(1);
  dcc.on_sample(1.7);
  EXPECT_DOUBLE_EQ(dcc.cbr(), 1.0);
  EXPECT_DOUBLE_EQ(dcc.peak_cbr(), 1.0);
  dcc.on_sample(-0.5);
  EXPECT_DOUBLE_EQ(dcc.cbr(), 0.0);
}

TEST(Dcc, WindowIsClampedToRingCapacity) {
  DccConfig cfg;
  cfg.window_samples = 1000;  // silently clamped to the 64-entry ring
  Dcc dcc{cfg};
  for (int i = 0; i < 200; ++i) dcc.on_sample(0.5);
  EXPECT_DOUBLE_EQ(dcc.cbr(), 0.5);
  EXPECT_EQ(dcc.config().window_samples, 64u);
}

TEST(Dcc, StateNamesAreStable) {
  EXPECT_STREQ(name(Dcc::State::kRelaxed), "relaxed");
  EXPECT_STREQ(name(Dcc::State::kRestrictive), "restrictive");
}

}  // namespace
}  // namespace vgr::phy
