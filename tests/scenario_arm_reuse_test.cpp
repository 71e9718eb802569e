// In-process arm reuse of the A/B runner (docs/performance.md "Arm reuse"):
// an arm served from the calling thread's memo must merge to exactly the
// bits a fresh simulation gives, the memo must key on every field that can
// change an arm's outcome, it must never keep a host-dependent outcome, and
// it keeps runs by seed: a window that overlaps its seeds simulates only
// the new ones, and one that shares none starts it afresh.

#include <gtest/gtest.h>

#include <vector>

#include "vgr/scenario/ab_runner.hpp"

namespace vgr::scenario {
namespace {

HighwayConfig quick_config() {
  HighwayConfig cfg;
  cfg.sim_duration = sim::Duration::seconds(10.0);
  cfg.prefill_spacing_m = 90.0;
  cfg.entry_spacing_m = 90.0;
  return cfg;
}

Fidelity window(std::uint64_t first_run, std::uint64_t runs) {
  Fidelity f;
  f.first_run = first_run;
  f.runs = runs;
  f.threads = 2;
  return f;
}

void expect_counts(std::uint64_t simulated, std::uint64_t reused) {
  const ArmReuseCounts c = arm_reuse_counts();
  EXPECT_EQ(c.simulated, simulated);
  EXPECT_EQ(c.reused, reused);
}

TEST(ArmReuse, MemoHitIsBitIdenticalToAFreshSimulation) {
  HighwayConfig cfg = quick_config();
  cfg.attack = AttackKind::kInterArea;
  HighwayConfig flood = quick_config();
  flood.attack_range_m = 500.0;
  const Fidelity f = window(0, 3);

  for (const bool inter : {true, false}) {
    SCOPED_TRACE(inter ? "inter-area" : "intra-area");
    const auto run = [inter, &f](const HighwayConfig& c) {
      return inter ? run_inter_area_ab(c, f) : run_intra_area_ab(c, f);
    };
    const HighwayConfig& row = inter ? cfg : flood;
    clear_arm_reuse();
    (void)run(row);
    const AbResult served = run(row);  // both arms from the memo
    expect_counts(6, 6);
    clear_arm_reuse();
    const AbResult fresh = run(row);
    expect_counts(6, 0);
    EXPECT_EQ(served, fresh);
    EXPECT_GT(fresh.baseline_reception, 0.0);
  }

  // A partial hit: the intra-area A arm comes from another attack range's
  // row, the B arm is simulated now.
  HighwayConfig near = flood;
  near.attack_range_m = 327.0;
  clear_arm_reuse();
  (void)run_intra_area_ab(near, f);
  const AbResult mixed = run_intra_area_ab(flood, f);
  expect_counts(9, 3);
  clear_arm_reuse();
  EXPECT_EQ(mixed, run_intra_area_ab(flood, f));
}

/// The fig9_sweep settings: Fig 9 a-e plus the source-location split's
/// 500 m DSRC row.
std::vector<HighwayConfig> fig9_rows() {
  std::vector<HighwayConfig> rows;
  for (const phy::AccessTechnology tech :
       {phy::AccessTechnology::kDsrc, phy::AccessTechnology::kCv2x}) {
    const phy::RangeTable r = phy::range_table(tech);
    for (const double range : {r.nlos_worst_m, r.nlos_median_m, 500.0, r.los_median_m}) {
      HighwayConfig cfg;
      cfg.tech = tech;
      cfg.attack_range_m = range;
      rows.push_back(cfg);
    }
  }
  HighwayConfig mn;
  mn.attack_range_m = phy::range_table(mn.tech).nlos_median_m;
  for (const double ttl : {20.0, 10.0, 5.0}) {
    HighwayConfig cfg = mn;
    cfg.locte_ttl = sim::Duration::seconds(ttl);
    rows.push_back(cfg);
  }
  for (const double spacing : {30.0, 100.0, 300.0}) {
    HighwayConfig cfg = mn;
    cfg.entry_spacing_m = spacing;
    cfg.prefill_spacing_m = spacing;
    rows.push_back(cfg);
  }
  for (const bool two_way : {false, true}) {
    HighwayConfig cfg = mn;
    cfg.two_way = two_way;
    rows.push_back(cfg);
  }
  HighwayConfig split;
  split.attack_range_m = 500.0;
  rows.push_back(split);
  return rows;
}

TEST(ArmReuse, Fig9SettingsAreTwentyDistinctArmsPerRun) {
  // 17 rows x 2 arms = 34 arms per run, of which 20 are distinct: one
  // baseline per (tech, TTL, density, directions) and the attacked arms of
  // the TTL 20 s, 30 m, single-direction and split rows repeat 9a's.
  const std::vector<HighwayConfig> rows = fig9_rows();
  ASSERT_EQ(rows.size(), 17u);
  for (const std::uint64_t runs : {1u, 4u}) {
    SCOPED_TRACE(runs);
    clear_arm_reuse();
    Fidelity f = window(0, runs);
    f.sim_seconds = 2.0;  // the count depends on the settings, not the horizon
    for (const HighwayConfig& row : rows) (void)run_intra_area_ab(row, f);
    expect_counts(20 * runs, 14 * runs);
  }
}

TEST(ArmReuse, IntraAreaBaselineDropsTheAttackerButNothingElse) {
  // Attack range, attacker position and blocker mode only shape the
  // attacker: all four settings share one attacker-free simulation, and
  // that shared outcome is what each setting's own attacker-free world
  // gives when simulated directly, down to every flood record a reader
  // may classify by its own geometry (Fig 9's source split).
  const HighwayConfig base = quick_config();
  std::vector<HighwayConfig> rows(4, base);
  rows[1].attack_range_m = 500.0;
  rows[2].attacker_x_m = 1200.0;
  rows[3].blocker.mode = attack::IntraAreaBlocker::Mode::kTargetedReplay;
  clear_arm_reuse();
  std::vector<AbResult> results;
  for (const HighwayConfig& row : rows) results.push_back(run_intra_area_ab(row, window(0, 1)));
  expect_counts(1 + 4, 3);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    SCOPED_TRACE(i);
    HighwayConfig own = rows[i];
    own.seed = 1;
    const IntraAreaResult direct = HighwayScenario{own}.run_intra_area();
    EXPECT_EQ(results[i].baseline, direct.binned(kBinWidth));
    EXPECT_EQ(results[i].baseline_reception, results[0].baseline_reception);
    const std::vector<IntraAreaFloodRecord> shared =
        run_arms({{Experiment::kIntraArea, rows[i]}}, window(0, 1)).front().intra.front().floods;
    ASSERT_FALSE(shared.empty());
    EXPECT_EQ(shared, direct.floods);
  }
  expect_counts(1 + 4, 3 + 4);
}

TEST(ArmReuse, PlausibilityThresholdIsKeyedAsTheRouterResolvesIt) {
  // A threshold <= 0 keeps the router's own, the DSRC NLoS median: ablation
  // 3's 486 m row, ablation 4's extrapolation-on row and ablation 5's
  // plausibility-check row are one simulated arm per seed, equal to a
  // direct world at -1.
  HighwayConfig defaulted = quick_config();
  defaulted.attack_range_m = phy::range_table(defaulted.tech).nlos_median_m;
  defaulted.attack = AttackKind::kInterArea;
  defaulted.mitigation = mitigation::Profile::kPlausibilityCheck;
  HighwayConfig explicit_486 = defaulted;
  explicit_486.mitigation_params.plausibility_threshold_m = 486.0;
  HighwayConfig extrapolating = defaulted;
  extrapolating.mitigation_params.extrapolate = true;
  const Fidelity f = window(0, 2);
  clear_arm_reuse();
  const std::vector<ArmRuns> runs =
      run_arms({{Experiment::kInterArea, explicit_486},
                {Experiment::kInterArea, extrapolating},
                {Experiment::kInterArea, defaulted}},
               f);
  expect_counts(2, 4);
  for (std::uint64_t run = 0; run < f.runs; ++run) {
    SCOPED_TRACE(run);
    HighwayConfig own = defaulted;
    own.seed = run + 1;
    const InterAreaResult direct = HighwayScenario{own}.run_inter_area();
    ASSERT_FALSE(direct.packets.empty());
    for (const ArmRuns& arm : runs) EXPECT_EQ(arm.inter[run], direct);
  }
}

TEST(ArmReuse, EachArmRunIsADirectWorldFieldForField) {
  HighwayConfig inter = quick_config();
  inter.attack = AttackKind::kInterArea;
  HighwayConfig intra = quick_config();
  intra.attack = AttackKind::kIntraArea;
  const Fidelity f = window(1, 2);  // seeds 2 and 3
  clear_arm_reuse();
  const std::vector<ArmRuns> runs =
      run_arms({{Experiment::kInterArea, inter}, {Experiment::kIntraArea, intra}}, f);
  expect_counts(4, 0);
  ASSERT_EQ(runs[0].inter.size(), 2u);
  ASSERT_EQ(runs[1].intra.size(), 2u);
  EXPECT_TRUE(runs[0].intra.empty());
  EXPECT_TRUE(runs[1].inter.empty());
  for (std::uint64_t run = 0; run < f.runs; ++run) {
    SCOPED_TRACE(run);
    inter.seed = intra.seed = f.first_run + run + 1;
    EXPECT_EQ(runs[0].inter[run], HighwayScenario{inter}.run_inter_area());
    EXPECT_EQ(runs[1].intra[run], HighwayScenario{intra}.run_intra_area());
  }

  // An arm's reception and counters are what the A/B merge reports for it.
  const AbResult inter_ab = run_inter_area_ab(inter, f);
  const AbResult intra_ab = run_intra_area_ab(intra, f);
  EXPECT_EQ(runs[0].reception(), inter_ab.attacked_reception);
  EXPECT_EQ(runs[0].totals(), inter_ab.attacked_totals);
  EXPECT_EQ(runs[1].reception(), intra_ab.attacked_reception);
  EXPECT_EQ(runs[1].totals(), intra_ab.attacked_totals);
  EXPECT_GT(runs[0].totals().frames_sent, 0u);
}

TEST(ArmReuse, ArmsOfOneCallThatShareAKeyAreSimulatedOnce) {
  // Fig 14b's attacker-free arms at wN and mN geometry: the flood workload
  // ignores the geometry, so they are one arm.
  const phy::RangeTable ranges = phy::range_table(phy::AccessTechnology::kDsrc);
  HighwayConfig wn = quick_config();
  wn.attack_range_m = ranges.nlos_worst_m;
  HighwayConfig mn = quick_config();
  mn.attack_range_m = ranges.nlos_median_m;
  clear_arm_reuse();
  const std::vector<ArmRuns> runs =
      run_arms({{Experiment::kIntraArea, wn}, {Experiment::kIntraArea, mn}}, window(0, 3));
  expect_counts(3, 3);
  EXPECT_EQ(runs[0].intra, runs[1].intra);
}

TEST(ArmReuse, InterAreaBaselineKeepsTheAttackGeometry) {
  // The flood rate only drives the congestion flooder: one baseline.
  HighwayConfig flood = quick_config();
  flood.attack = AttackKind::kCongestionFlood;
  flood.flood_rate_hz = 500.0;
  HighwayConfig faster = flood;
  faster.flood_rate_hz = 900.0;
  clear_arm_reuse();
  const AbResult slow_r = run_inter_area_ab(flood, window(0, 1));
  const AbResult fast_r = run_inter_area_ab(faster, window(0, 1));
  expect_counts(3, 1);
  EXPECT_EQ(slow_r.baseline, fast_r.baseline);

  // The attack range defines which packets are vulnerable, i.e. the
  // workload itself: two ranges, two baselines.
  HighwayConfig near = quick_config();
  HighwayConfig far = near;
  far.attack_range_m = 500.0;
  clear_arm_reuse();
  (void)run_inter_area_ab(near, window(0, 1));
  (void)run_inter_area_ab(far, window(0, 1));
  expect_counts(4, 0);
}

TEST(ArmReuse, WallClockTripsAreSimulatedAgainEventTripsAreReused) {
  HighwayConfig cfg = quick_config();
  cfg.attack = AttackKind::kInterArea;

  Fidelity wall = window(0, 2);
  wall.run_wall_budget_s = 1e-9;  // trips at the first check
  clear_arm_reuse();
  const AbResult first = run_inter_area_ab(cfg, wall);
  EXPECT_EQ(first.timed_out_wall, 4u);
  (void)run_inter_area_ab(cfg, wall);
  expect_counts(8, 0);

  Fidelity events = window(0, 2);
  events.run_max_events = 50;
  clear_arm_reuse();
  const AbResult tripped = run_inter_area_ab(cfg, events);
  EXPECT_EQ(tripped.timed_out_events, 4u);
  EXPECT_EQ(tripped, run_inter_area_ab(cfg, events));
  expect_counts(4, 4);
}

TEST(ArmReuse, OverlappingWindowsSimulateOnlyTheirNewSeeds) {
  HighwayConfig cfg = quick_config();
  cfg.attack = AttackKind::kIntraArea;
  clear_arm_reuse();
  (void)run_intra_area_ab(cfg, window(0, 2));
  const AbResult wider = run_intra_area_ab(cfg, window(0, 4));  // seeds 3 and 4 are new
  expect_counts(8, 4);
  const AbResult one_seed = run_intra_area_ab(cfg, window(2, 1));  // inside: all served
  expect_counts(8, 6);
  clear_arm_reuse();
  EXPECT_EQ(wider, run_intra_area_ab(cfg, window(0, 4)));
  clear_arm_reuse();
  EXPECT_EQ(one_seed, run_intra_area_ab(cfg, window(2, 1)));

  // A window that starts before the held seeds widens them at the front.
  clear_arm_reuse();
  (void)run_intra_area_ab(cfg, window(2, 2));
  const AbResult earlier = run_intra_area_ab(cfg, window(1, 2));  // seed 2 is new
  expect_counts(6, 2);
  clear_arm_reuse();
  EXPECT_EQ(earlier, run_intra_area_ab(cfg, window(1, 2)));
}

TEST(ArmReuse, Fig9SourceSplitServesItsRowsSeeds) {
  // bench_fig9_intra_area's source split reads the 500 m row's two arms
  // over three times the row's runs: the row's seeds are served.
  HighwayConfig split;
  split.attack_range_m = 500.0;
  HighwayConfig attacked = split;
  attacked.attack = AttackKind::kIntraArea;
  Fidelity row = window(0, 4);
  row.sim_seconds = 10.0;
  Fidelity extra = row;
  extra.runs = 3 * row.runs;
  clear_arm_reuse();
  const AbResult r = run_intra_area_ab(split, row);
  expect_counts(8, 0);
  const std::vector<ArmRuns> runs =
      run_arms({{Experiment::kIntraArea, split}, {Experiment::kIntraArea, attacked}}, extra);
  expect_counts(8 + 16, 8);
  ASSERT_EQ(runs[1].intra.size(), extra.runs);
  ArmRuns first_four = runs[1];
  first_four.intra.resize(row.runs);
  EXPECT_EQ(first_four.reception(), r.attacked_reception);
}

TEST(ArmReuse, DisjointSeedWindowRestartsTheMemo) {
  // perfbench's fig9_sweep walks its table seeds in disjoint 4-seed windows
  // and wraps: each window starts the memo afresh, so coming back to an
  // earlier one simulates it again.
  HighwayConfig cfg = quick_config();
  cfg.attack = AttackKind::kIntraArea;
  const std::vector<Arm> arm{{Experiment::kIntraArea, cfg}};
  const auto walk_window = [](std::uint64_t first_run) {
    Fidelity f = window(first_run, 4);
    f.sim_seconds = 2.0;
    return f;
  };
  clear_arm_reuse();
  const ArmRuns first = run_arms(arm, walk_window(0)).front();
  for (const std::uint64_t first_run : {4u, 8u, 12u}) (void)run_arms(arm, walk_window(first_run));
  expect_counts(16, 0);
  const ArmRuns again = run_arms(arm, walk_window(0)).front();
  expect_counts(20, 0);
  EXPECT_EQ(first.intra, again.intra);
  (void)run_arms(arm, walk_window(0));
  expect_counts(20, 4);
}

}  // namespace
}  // namespace vgr::scenario
