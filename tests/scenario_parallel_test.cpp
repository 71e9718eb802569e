// Determinism of the parallel experiment harness: dispatching independent
// runs across a thread pool and merging in seed order must reproduce the
// serial path bit for bit — every AbResult field, compared exactly by its
// defaulted operator== (merging in seed order preserves the floating-point
// accumulation order). This is the contract that lets VGR_THREADS be a pure
// performance knob.

#include <gtest/gtest.h>

#include <cstdlib>

#include "vgr/scenario/ab_runner.hpp"
#include "vgr/sim/thread_pool.hpp"

namespace vgr::scenario {
namespace {

HighwayConfig quick_config(AttackKind attack) {
  HighwayConfig cfg;
  cfg.attack = attack;
  cfg.sim_duration = sim::Duration::seconds(15.0);
  // Thinner traffic keeps the 4-runs-x-2-arms suite fast while still
  // exercising spawns, exits, forwarding, and the attacker.
  cfg.prefill_spacing_m = 90.0;
  cfg.entry_spacing_m = 90.0;
  return cfg;
}

Fidelity with_threads(std::size_t threads) {
  Fidelity f;
  f.runs = 4;
  f.threads = threads;
  return f;
}

// The arm memo would serve a repeated call from the first call's arms, so
// the second call of each comparison runs after clear_arm_reuse() and must
// simulate every arm on the pool.
void expect_every_arm_simulated(const Fidelity& f) {
  const ArmReuseCounts counts = arm_reuse_counts();
  EXPECT_EQ(counts.simulated, 2 * f.runs);
  EXPECT_EQ(counts.reused, 0u);
}

TEST(ParallelHarness, InterAreaSerialAndParallelAreBitIdentical) {
  const HighwayConfig cfg = quick_config(AttackKind::kInterArea);
  const AbResult serial = run_inter_area_ab(cfg, with_threads(1));
  clear_arm_reuse();
  const AbResult parallel = run_inter_area_ab(cfg, with_threads(4));
  expect_every_arm_simulated(with_threads(4));
  EXPECT_EQ(serial, parallel);
  // Sanity: the attack actually bites, so we are not comparing zeros.
  EXPECT_GT(serial.baseline_reception, 0.0);
}

TEST(ParallelHarness, IntraAreaSerialAndParallelAreBitIdentical) {
  const HighwayConfig cfg = quick_config(AttackKind::kIntraArea);
  const AbResult serial = run_intra_area_ab(cfg, with_threads(1));
  clear_arm_reuse();
  const AbResult parallel = run_intra_area_ab(cfg, with_threads(4));
  expect_every_arm_simulated(with_threads(4));
  EXPECT_EQ(serial, parallel);
  EXPECT_GT(serial.baseline_reception, 0.0);
}

TEST(ParallelHarness, MacDccCongestionArmIsBitIdentical) {
  // The contention layer runs entirely inside each run's event loop with a
  // private RNG stream, so a MAC+DCC fleet under the congestion flooder is
  // as thread-count-invariant as the classic experiments — including every
  // MAC drop counter and the peak CBR in the merged arm totals.
  HighwayConfig cfg = quick_config(AttackKind::kCongestionFlood);
  cfg.sim_duration = sim::Duration::seconds(10.0);
  cfg.flood_rate_hz = 2500.0;
  cfg.beacon_interval = sim::Duration::seconds(0.1);
  cfg.packet_interval = sim::Duration::seconds(0.1);
  cfg.mac.enabled = true;
  cfg.dcc.enabled = true;
  Fidelity f1 = with_threads(1);
  Fidelity f4 = with_threads(4);
  f1.runs = f4.runs = 2;
  const AbResult serial = run_inter_area_ab(cfg, f1);
  clear_arm_reuse();
  const AbResult parallel = run_inter_area_ab(cfg, f4);
  expect_every_arm_simulated(f4);
  EXPECT_EQ(serial, parallel);

  // The attack plumbing engaged: frames were flooded and beacons gated.
  EXPECT_GT(serial.attacked_totals.frames_flooded, 0u);
  EXPECT_GT(serial.attacked_totals.mac.dcc_gated_drops, 0u);
  EXPECT_GT(serial.attacked_totals.peak_cbr, 0.3);
  // The A-arm is attacker-free: nothing flooded there.
  EXPECT_EQ(serial.baseline_totals.frames_flooded, 0u);
}

TEST(ParallelHarness, SpatialIndexDoesNotChangeResults) {
  // The medium's spatial index must be a pure accelerator: a full A/B
  // experiment with the index disabled reproduces the indexed results.
  HighwayConfig cfg = quick_config(AttackKind::kInterArea);
  const AbResult indexed = run_inter_area_ab(cfg, with_threads(2));
  cfg.spatial_index = false;
  const AbResult scanned = run_inter_area_ab(cfg, with_threads(2));
  EXPECT_EQ(indexed, scanned);
}

TEST(Fidelity, FromEnvRejectsMalformedTokensWhole) {
  ::setenv("VGR_RUNS", "5", 1);
  ::setenv("VGR_SIM_SECONDS", "12.5", 1);
  ::setenv("VGR_THREADS", "2", 1);
  Fidelity f = Fidelity::from_env(3);
  EXPECT_EQ(f.runs, 5u);
  EXPECT_DOUBLE_EQ(f.sim_seconds, 12.5);
  EXPECT_EQ(f.threads, 0u);  // auto: the pool reads VGR_THREADS
  EXPECT_EQ(sim::ThreadPool::default_thread_count(), 2u);

  // "5x" used to be accepted as 5 (strtol prefix parse) and "abc" silently
  // became the default; both are now rejected whole-token with a warning.
  ::setenv("VGR_RUNS", "5x", 1);
  ::setenv("VGR_SIM_SECONDS", "abc", 1);
  ::setenv("VGR_THREADS", "-2", 1);  // parses, but non-positive: ignored
  f = Fidelity::from_env(3);
  EXPECT_EQ(f.runs, 3u);
  EXPECT_DOUBLE_EQ(f.sim_seconds, -1.0);
  EXPECT_EQ(sim::ThreadPool::default_thread_count(), sim::ThreadPool::hardware_threads());

  ::unsetenv("VGR_RUNS");
  ::unsetenv("VGR_SIM_SECONDS");
  ::unsetenv("VGR_THREADS");
  f = Fidelity::from_env(7);
  EXPECT_EQ(f.runs, 7u);
}

// --- Per-run watchdog (docs/robustness.md) --------------------------------

TEST(Fidelity, WatchdogKnobsParseFromEnv) {
  ::setenv("VGR_RUN_TIMEOUT_S", "2.5", 1);
  ::setenv("VGR_RUN_MAX_EVENTS", "5000", 1);
  Fidelity f = Fidelity::from_env(3);
  EXPECT_DOUBLE_EQ(f.run_wall_budget_s, 2.5);
  EXPECT_EQ(f.run_max_events, 5000u);

  ::setenv("VGR_RUN_TIMEOUT_S", "-1", 1);   // non-positive: ignored
  ::setenv("VGR_RUN_MAX_EVENTS", "12x", 1); // malformed: rejected whole-token
  f = Fidelity::from_env(3);
  EXPECT_DOUBLE_EQ(f.run_wall_budget_s, 0.0);
  EXPECT_EQ(f.run_max_events, 0u);

  ::unsetenv("VGR_RUN_TIMEOUT_S");
  ::unsetenv("VGR_RUN_MAX_EVENTS");
}

TEST(ParallelHarness, TinyEventBudgetReportsRunsAsTimedOut) {
  // An event budget far below what a run needs trips the circuit breaker in
  // every run; all of them are reported as timed out in the merged result
  // instead of hanging or silently passing truncated data off as complete.
  const HighwayConfig cfg = quick_config(AttackKind::kInterArea);
  Fidelity f = with_threads(2);
  f.runs = 2;
  f.run_max_events = 50;
  const AbResult r = run_inter_area_ab(cfg, f);
  EXPECT_EQ(r.timed_out_runs, r.runs);
}

TEST(ParallelHarness, NoWatchdogMeansNoTimedOutRuns) {
  const HighwayConfig cfg = quick_config(AttackKind::kInterArea);
  Fidelity f = with_threads(2);
  f.runs = 2;
  const AbResult r = run_inter_area_ab(cfg, f);
  EXPECT_EQ(r.timed_out_runs, 0u);
}

}  // namespace
}  // namespace vgr::scenario
