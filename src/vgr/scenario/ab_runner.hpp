#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "vgr/scenario/highway.hpp"

namespace vgr::scenario {

/// Which paired experiment an A/B call runs.
enum class Experiment : std::uint8_t { kInterArea, kIntraArea };

/// Width of the reception-rate bins every A/B timeline is merged over.
inline constexpr sim::Duration kBinWidth = sim::Duration::seconds(5.0);

/// Paired A/B experiment results: the attacker-free baseline, the attacked
/// timeline, and the paper's headline metric (gamma for inter-area
/// interception, lambda for intra-area blockage — the average relative
/// reception drop over 5 s bins).
struct AbResult {
  sim::BinnedRate baseline;
  sim::BinnedRate attacked;
  double attack_rate{0.0};          ///< gamma / lambda
  double baseline_reception{0.0};   ///< overall rate, attacker-free
  double attacked_reception{0.0};   ///< overall rate, attacked
  /// Per-arm counters over every run of the arm, each merged under its
  /// RunCounters rule (docs/robustness.md).
  RunCounters baseline_totals{};
  RunCounters attacked_totals{};
  /// Packet-weighted accumulators behind baseline_reception /
  /// attacked_reception in the inter-area experiment (the intra-area one
  /// derives receptions from the merged bins and leaves these at zero).
  /// Exposed so sweep shards (vgr/sweep) merge receptions exactly instead
  /// of re-weighting already-divided ratios.
  double reception_base_hits{0.0};
  double reception_base_trials{0.0};
  double reception_atk_hits{0.0};
  double reception_atk_trials{0.0};
  std::uint64_t runs{0};
  /// Runs (seed-paired A/B executions) where at least one arm tripped the
  /// per-run watchdog (`Fidelity::run_wall_budget_s` / `run_max_events`) and
  /// stopped before its horizon. Such runs still contribute their partial
  /// timelines; a non-zero count flags the sweep as degraded.
  std::uint64_t timed_out_runs{0};
  /// `timed_out_runs` split by cause, counted per *arm* (a run where both
  /// arms trip contributes twice here but once above): the event-budget trip
  /// is deterministic, the wall-clock one is host-dependent, and the sweep
  /// supervisor's retry/degrade ladder keys off the distinction.
  std::uint64_t timed_out_events{0};
  std::uint64_t timed_out_wall{0};

  /// Folds in `later`, the next runs or seed-range shard of the same point
  /// (same bin geometry): bins, counters, reception operands, runs and
  /// timeout counts accumulate, then attack_rate and both receptions are
  /// derived again from the merged accumulators. The A/B runner merges its
  /// runs and the sweep codec its shards through this one function, in seed
  /// order, so shards of one seed each reproduce one call over the whole
  /// seed range bit for bit.
  void merge(const AbResult& later);

  /// Every field, compared exactly: reuse, thread count and sharding must
  /// not move a single bit.
  friend bool operator==(const AbResult&, const AbResult&) = default;
};

/// Experiment fidelity, environment-overridable so the same benches run in
/// minutes on a laptop or at full paper fidelity (100 runs x 200 s):
///   VGR_RUNS         — runs per setting (default `default_runs`)
///   VGR_SIM_SECONDS  — simulated seconds per run (default from config)
///   VGR_THREADS      — worker threads for run-level parallelism
///                      (default: all hardware threads; 1 = serial)
///   VGR_RUN_TIMEOUT_S   — per-run wall-clock watchdog, seconds (0 = off)
///   VGR_RUN_MAX_EVENTS  — per-run event-count circuit breaker (0 = off)
/// The resilience knobs (`VGR_FAULT_*`, `VGR_CHURN_*`, `VGR_SCF*`,
/// `VGR_RETX*`, `VGR_NBR_MONITOR`, `VGR_MAC*`, `VGR_DCC*`; see
/// docs/robustness.md) are likewise applied to every run's config by
/// apply_fidelity(), so any experiment can be replayed under channel
/// faults, node churn, with the recovery layer enabled, or on a contended
/// CSMA/CA + DCC channel. Malformed values are rejected whole-token with a
/// stderr warning rather than silently parsed as a prefix or as 0.
struct Fidelity {
  std::uint64_t runs{3};
  /// Seed-range offset for sweep shards (vgr/sweep): the runs executed are
  /// seeded `first_run+1 .. first_run+runs`, so a sweep point can be cut
  /// into seed-range shards whose merged result equals the monolithic run.
  /// 0 (the default, not env-overridable) keeps historical behaviour.
  std::uint64_t first_run{0};
  double sim_seconds{-1.0};  ///< <= 0 keeps the config's duration
  /// Worker threads for independent arms; 0 = auto (VGR_THREADS or all
  /// hardware threads). Results are bit-identical for every value because
  /// arms are merged in seed order (see ab_runner.cpp).
  std::size_t threads{0};
  /// Per-run watchdog (see HighwayConfig): 0 disables either bound.
  double run_wall_budget_s{0.0};
  std::uint64_t run_max_events{0};

  static Fidelity from_env(std::uint64_t default_runs = 3);
};

/// Applies `fidelity` to one run's config: the simulated seconds (when
/// set), the resilience and MAC/DCC knobs from the environment, and both
/// watchdog budgets. Every A/B run goes through it; a bench that loops over
/// HighwayScenario runs itself calls it too, so the same knobs reach those
/// rows. With no VGR_* variable set only the duration and budgets change.
void apply_fidelity(HighwayConfig& config, const Fidelity& fidelity);

/// Runs `runs` paired (attacker-free, attacked) inter-area experiments with
/// seeds first_run+1 .. first_run+runs and merges the binned reception
/// timelines in seed order, A before B. `config.attack` selects the attacker
/// for the B-arm (kNone keeps the classic kInterArea interceptor); the A-arm
/// always clears it.
///
/// Each arm of each run is one thread-pool task. Arms are memoised per
/// calling thread (docs/performance.md "Arm reuse"): an arm whose whole
/// config (after the fidelity and env overrides) and seed an earlier call in
/// the same seed window already simulated is merged from the memo instead of
/// simulated again. The attacker-free arm is keyed with every field only an
/// attacker reads reset to its default, so settings that differ only in the
/// attacker share one baseline. A call with another (first_run, runs) window
/// drops the memo first, and an arm that tripped the wall-clock budget is
/// never stored. Results are bit-identical whether or not the memo hit.
AbResult run_inter_area_ab(HighwayConfig config, const Fidelity& fidelity);

/// Same pairing and memo for the intra-area (CBF flood) experiment. Here the
/// attacker-free arm also drops the attack geometry (`attack_range_m`,
/// `attacker_x_m`): the flood workload never reads it.
AbResult run_intra_area_ab(HighwayConfig config, const Fidelity& fidelity);

/// Arms the calling thread has simulated and merged from its memo since the
/// last clear_arm_reuse().
struct ArmReuseCounts {
  std::uint64_t simulated{0};
  std::uint64_t reused{0};
};
ArmReuseCounts arm_reuse_counts();

/// Empties the calling thread's arm memo and zeroes its counts, so the next
/// call simulates every arm.
void clear_arm_reuse();

}  // namespace vgr::scenario
