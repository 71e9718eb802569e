#include <gtest/gtest.h>

#include <algorithm>
#include <type_traits>

#include "vgr/scenario/ab_runner.hpp"
#include "vgr/scenario/curve.hpp"
#include "vgr/scenario/hazard.hpp"
#include "vgr/scenario/highway.hpp"
#include "vgr/scenario/vulnerability.hpp"

namespace vgr::scenario {
namespace {

using namespace vgr::sim::literals;

// --- Fig 6 geometry ---------------------------------------------------------

TEST(AttackGeometry, FullyCoveredWidthMatchesPaper) {
  // Paper §IV-A: 500 m attacker vs 486 m DSRC vehicles ->
  // (500 - 486) * 2 = 28 m fully covered area.
  const AttackGeometry g{2000.0, 500.0, 486.0};
  const auto iv = g.fully_covered();
  ASSERT_TRUE(iv.has_value());
  EXPECT_NEAR(iv->second - iv->first, 28.0, 1e-9);
  EXPECT_TRUE(g.in_fully_covered(2000.0));
  EXPECT_FALSE(g.in_fully_covered(2020.0));
}

TEST(AttackGeometry, WorstNlosHasNoFullyCoveredArea) {
  const AttackGeometry g{2000.0, 327.0, 486.0};
  EXPECT_FALSE(g.fully_covered().has_value());
}

TEST(AttackGeometry, DirectionalVulnerability) {
  const AttackGeometry g{2000.0, 327.0, 486.0};
  // Eastbound vulnerable up to 2000 + 327 - 486 = 1841.
  EXPECT_TRUE(g.eastbound_vulnerable(1841.0));
  EXPECT_FALSE(g.eastbound_vulnerable(1842.0));
  // Westbound mirrored: from 2159 up.
  EXPECT_TRUE(g.westbound_vulnerable(2159.0));
  EXPECT_FALSE(g.westbound_vulnerable(2158.0));
  // The middle band is safe in both directions.
  EXPECT_FALSE(g.vulnerable(2000.0));
  EXPECT_TRUE(g.vulnerable(100.0));
  EXPECT_TRUE(g.vulnerable(3900.0));
}

TEST(AttackGeometry, LargeAttackRangeCoversEverySource) {
  const AttackGeometry g{2000.0, 1283.0, 486.0};
  for (double x = 0.0; x <= 4000.0; x += 100.0) {
    EXPECT_TRUE(g.vulnerable(x)) << x;
  }
  const auto iv = g.fully_covered();
  ASSERT_TRUE(iv.has_value());
  EXPECT_NEAR(iv->second - iv->first, 2.0 * (1283.0 - 486.0), 1e-9);
}

// --- Highway config resolution ----------------------------------------------

TEST(HighwayConfig, ResolvesTechnologyDefaults) {
  HighwayConfig cfg;
  cfg.tech = phy::AccessTechnology::kCv2x;
  EXPECT_DOUBLE_EQ(cfg.resolved_vehicle_range(), 593.0);
  cfg.vehicle_range_m = 450.0;
  EXPECT_DOUBLE_EQ(cfg.resolved_vehicle_range(), 450.0);
  EXPECT_DOUBLE_EQ(cfg.resolved_attacker_x(), 2000.0);
  cfg.attacker_x_m = 1200.0;
  EXPECT_DOUBLE_EQ(cfg.resolved_attacker_x(), 1200.0);
}

// --- Small smoke runs (reduced road so they finish in seconds) --------------

HighwayConfig small_config() {
  HighwayConfig cfg;
  cfg.road_length_m = 1500.0;
  cfg.lanes_per_direction = 1;
  cfg.prefill_spacing_m = 100.0;
  cfg.entry_spacing_m = 100.0;
  cfg.sim_duration = 30_s;
  cfg.attack_range_m = 327.0;
  return cfg;
}

TEST(HighwayScenario, AttackerFreeInterAreaDeliversMostPackets) {
  HighwayConfig cfg = small_config();
  cfg.attack = AttackKind::kNone;
  HighwayScenario scenario{cfg};
  const InterAreaResult r = scenario.run_inter_area();
  ASSERT_GT(r.packets.size(), 10u);
  // Attacker-free GF is imperfect even in the paper (~67% at full scale):
  // ghost entries of exited vehicles linger in location tables for a TTL.
  EXPECT_GT(r.overall_reception(), 0.45);
  EXPECT_EQ(r.beacons_replayed, 0u);
}

TEST(HighwayScenario, InterAreaAttackReducesReception) {
  HighwayConfig cfg = small_config();
  cfg.attack_range_m = 600.0;  // > vehicle range: strong attacker
  cfg.attacker_x_m = 750.0;

  cfg.attack = AttackKind::kNone;
  const double baseline = HighwayScenario{cfg}.run_inter_area().overall_reception();
  cfg.attack = AttackKind::kInterArea;
  const InterAreaResult attacked = HighwayScenario{cfg}.run_inter_area();

  EXPECT_GT(attacked.beacons_replayed, 0u);
  EXPECT_LT(attacked.overall_reception(), baseline * 0.5);
}

TEST(HighwayScenario, AttackerFreeIntraAreaReachesAlmostEveryone) {
  HighwayConfig cfg = small_config();
  HighwayScenario scenario{cfg};
  const IntraAreaResult r = scenario.run_intra_area();
  ASSERT_GT(r.floods.size(), 10u);
  EXPECT_GT(r.overall_reception(), 0.95);
}

TEST(HighwayScenario, IntraAreaAttackBlocksPartOfTheRoad) {
  HighwayConfig cfg = small_config();
  cfg.attack_range_m = 500.0;
  cfg.attacker_x_m = 750.0;

  cfg.attack = AttackKind::kNone;
  const double baseline = HighwayScenario{cfg}.run_intra_area().overall_reception();
  cfg.attack = AttackKind::kIntraArea;
  const IntraAreaResult attacked = HighwayScenario{cfg}.run_intra_area();

  EXPECT_GT(attacked.packets_replayed, 0u);
  EXPECT_LT(attacked.overall_reception(), baseline - 0.1);
}

TEST(HighwayScenario, SameSeedIsDeterministic) {
  HighwayConfig cfg = small_config();
  cfg.sim_duration = 15_s;
  const InterAreaResult a = HighwayScenario{cfg}.run_inter_area();
  const InterAreaResult b = HighwayScenario{cfg}.run_inter_area();
  ASSERT_EQ(a.packets.size(), b.packets.size());
  for (std::size_t i = 0; i < a.packets.size(); ++i) {
    EXPECT_EQ(a.packets[i].received, b.packets[i].received);
    EXPECT_DOUBLE_EQ(a.packets[i].source_x, b.packets[i].source_x);
  }
}

TEST(HighwayScenario, PairedWorkloadsMatchAcrossArms) {
  // The A/B pair must generate identical (time, source, direction)
  // workloads so gamma compares like with like.
  HighwayConfig cfg = small_config();
  cfg.sim_duration = 15_s;
  cfg.attack = AttackKind::kNone;
  const InterAreaResult a = HighwayScenario{cfg}.run_inter_area();
  cfg.attack = AttackKind::kInterArea;
  const InterAreaResult b = HighwayScenario{cfg}.run_inter_area();
  ASSERT_EQ(a.packets.size(), b.packets.size());
  for (std::size_t i = 0; i < a.packets.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.packets[i].source_x, b.packets[i].source_x);
    EXPECT_EQ(a.packets[i].target, b.packets[i].target);
  }
}

TEST(AbRunner, ProducesConsistentAggregates) {
  HighwayConfig cfg = small_config();
  cfg.sim_duration = 15_s;
  cfg.attack_range_m = 600.0;
  cfg.attacker_x_m = 750.0;
  Fidelity f;
  f.runs = 1;
  const AbResult r = run_inter_area_ab(cfg, f);
  EXPECT_EQ(r.runs, 1u);
  EXPECT_GE(r.attack_rate, 0.0);
  EXPECT_LE(r.attack_rate, 1.0);
  EXPECT_GE(r.baseline_reception, r.attacked_reception);
}

// --- Run counters ------------------------------------------------------------

/// Counters with a distinct value in every field, starting at `first`.
RunCounters distinct_counters(std::uint64_t first) {
  RunCounters c;
  for_each_counter([&first](const char*, Merge, auto& field) {
    field = static_cast<std::remove_reference_t<decltype(field)>>(first++);
  }, c);
  return c;
}

TEST(RunCounters, MergeFollowsEachFieldsRule) {
  const RunCounters a = distinct_counters(10);
  const RunCounters b = distinct_counters(3);
  RunCounters merged = a;
  merged.merge(b);
  for_each_counter(
      [](const char* key, Merge rule, auto m, auto x, auto y) {
        EXPECT_EQ(m, rule == Merge::kMax ? std::max(x, y) : x + y) << key;
      },
      merged, a, b);
  EXPECT_EQ(merged.peak_cbr, a.peak_cbr);  // the one max-merged counter
}

TEST(Fidelity, EnvOverridesAreParsed) {
  setenv("VGR_RUNS", "7", 1);
  setenv("VGR_SIM_SECONDS", "42.5", 1);
  const Fidelity f = Fidelity::from_env(3);
  EXPECT_EQ(f.runs, 7u);
  EXPECT_DOUBLE_EQ(f.sim_seconds, 42.5);
  unsetenv("VGR_RUNS");
  unsetenv("VGR_SIM_SECONDS");
  const Fidelity d = Fidelity::from_env(3);
  EXPECT_EQ(d.runs, 3u);
  EXPECT_LT(d.sim_seconds, 0.0);
}

TEST(HighwayScenario, AblationKnobsPlumbThrough) {
  // interference / ACK / pseudonym switches must reach the stack without
  // breaking a short run.
  HighwayConfig cfg = small_config();
  cfg.sim_duration = 10_s;
  cfg.interference = true;
  cfg.gf_ack = true;
  cfg.pseudonym_period_s = 3.0;
  const InterAreaResult r = HighwayScenario{cfg}.run_inter_area();
  EXPECT_GT(r.packets.size(), 3u);
}

TEST(HighwayScenario, LatencyHistogramTracksDeliveries) {
  HighwayConfig cfg = small_config();
  cfg.sim_duration = 20_s;
  const InterAreaResult r = HighwayScenario{cfg}.run_inter_area();
  const auto lat = r.latency();
  std::size_t received = 0;
  for (const auto& p : r.packets) received += p.received ? 1 : 0;
  EXPECT_EQ(lat.count(), received);
  if (!lat.empty()) {
    EXPECT_GE(lat.min(), 0.0);
    EXPECT_LE(lat.median(), lat.quantile(0.95));
  }
}

// --- Hazard scenario (Fig 12) ------------------------------------------------

TEST(HazardScenario, CbfNotificationClosesEntranceQuickly) {
  HazardConfig cfg;
  cfg.mode = HazardConfig::Case::kCbfFlood;
  cfg.road_length_m = 2000.0;
  cfg.hazard_x_m = 1800.0;
  cfg.sim_duration = 30_s;
  const HazardResult r = HazardScenario{cfg}.run();
  EXPECT_TRUE(r.entrance_notified);
  EXPECT_LT(r.notified_at_s, 8.0);  // flood crosses 2 km in milliseconds
}

TEST(HazardScenario, BlockedCbfNotificationKeepsEntranceOpen) {
  HazardConfig cfg;
  cfg.mode = HazardConfig::Case::kCbfFlood;
  cfg.road_length_m = 2000.0;
  cfg.hazard_x_m = 1800.0;
  cfg.sim_duration = 30_s;
  cfg.attacked = true;
  const HazardResult r = HazardScenario{cfg}.run();
  EXPECT_FALSE(r.entrance_notified);
}

TEST(HazardScenario, AttackCausesMoreVehiclesOnRoad) {
  HazardConfig base;
  base.mode = HazardConfig::Case::kCbfFlood;
  base.road_length_m = 2000.0;
  base.hazard_x_m = 1800.0;
  base.sim_duration = 60_s;
  const HazardResult benign = HazardScenario{base}.run();
  HazardConfig atk = base;
  atk.attacked = true;
  const HazardResult attacked = HazardScenario{atk}.run();
  EXPECT_GT(attacked.final_vehicle_count, benign.final_vehicle_count);
}

// --- Curve scenario (Fig 13) ---------------------------------------------------

TEST(CurveScenario, BenignRunDeliversWarningAndAvoidsCollision) {
  CurveConfig cfg;
  const CurveResult r = run_curve_scenario(cfg);
  EXPECT_TRUE(r.warning_delivered);
  EXPECT_FALSE(r.collision);
  EXPECT_GT(r.min_gap_m, 4.5);
  ASSERT_FALSE(r.profile.empty());
}

TEST(CurveScenario, WarningArrivesViaRelayWithinContentionBound) {
  CurveConfig cfg;
  const CurveResult r = run_curve_scenario(cfg);
  ASSERT_TRUE(r.warning_delivered);
  // Warning sent at t=2; R1's CBF contention adds at most TO_MAX = 100 ms.
  EXPECT_LT(r.warning_delivered_at_s, cfg.warn_time_s + 0.15);
}

TEST(CurveScenario, AttackedRunSuppressesWarningAndCollides) {
  CurveConfig cfg;
  cfg.attacked = true;
  const CurveResult r = run_curve_scenario(cfg);
  EXPECT_FALSE(r.warning_delivered);
  EXPECT_TRUE(r.collision);
  EXPECT_GT(r.collision_time_s, 0.0);
}

TEST(CurveScenario, SpeedProfilesDivergeAfterWarning) {
  CurveConfig cfg;
  const CurveResult benign = run_curve_scenario(cfg);
  cfg.attacked = true;
  const CurveResult attacked = run_curve_scenario(cfg);
  // Shortly after the warning, the warned V2 is slower than the unwarned.
  auto speed_at = [](const CurveResult& r, double t) {
    for (const auto& s : r.profile) {
      if (s.t >= t) return s.v2_speed;
    }
    return r.profile.back().v2_speed;
  };
  EXPECT_LT(speed_at(benign, 4.0), speed_at(attacked, 4.0));
}

}  // namespace
}  // namespace vgr::scenario
