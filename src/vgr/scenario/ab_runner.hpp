#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "vgr/scenario/highway.hpp"
#include "vgr/sim/env.hpp"

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
  /// timelines; the sweep supervisor quarantines a seed whose runs trip.
  std::uint64_t timed_out_runs{0};
  /// `timed_out_runs` split by cause, counted per *arm* (a run where both
  /// arms trip contributes twice here but once above): the event-budget trip
  /// is deterministic, the wall-clock one is host-dependent, and the sweep
  /// supervisor's quarantine names the cause.
  std::uint64_t timed_out_events{0};
  std::uint64_t timed_out_wall{0};

  /// Folds in `later`, the next runs or one-seed shard of the same point
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

/// Experiment fidelity, environment-overridable (see for_each_knob below)
/// so the same benches run in minutes on a laptop or at full paper fidelity
/// (100 runs x 200 s). The run-config knobs (highway.hpp's for_each_knob:
/// faults, churn, recovery, MAC/DCC) are likewise applied to every arm's
/// config by run_arms(), so any experiment can be replayed under channel
/// faults, node churn, with the recovery layer enabled, or on a contended
/// CSMA/CA + DCC channel.
struct Fidelity {
  std::uint64_t runs{3};
  /// Seed-window offset: the runs executed are seeded `first_run+1 ..
  /// first_run+runs`, so a sweep point can run one seed per shard (vgr/sweep)
  /// and merge to the result of one call over its whole window. 0 (the
  /// default, not env-overridable) keeps historical behaviour.
  std::uint64_t first_run{0};
  double sim_seconds{-1.0};  ///< <= 0 keeps the config's duration
  /// Worker threads for independent arms; 0 = auto (VGR_THREADS, read by
  /// ThreadPool::default_thread_count(), or all hardware threads). Results
  /// are bit-identical for every value because arms are merged in seed
  /// order (see ab_runner.cpp).
  std::size_t threads{0};
  /// Per-run watchdog (see HighwayConfig): 0 disables either bound.
  double run_wall_budget_s{0.0};
  std::uint64_t run_max_events{0};

  /// Simulated length of a run of `config` under this fidelity.
  [[nodiscard]] sim::Duration horizon(const HighwayConfig& config) const;

  /// `default_runs` runs, then the knobs below from the environment.
  static Fidelity from_env(std::uint64_t default_runs = 3);

  friend bool operator==(const Fidelity&, const Fidelity&) = default;
};

/// Calls `fn(name, field, range)` once per fidelity knob (sim/env.hpp;
/// docs/performance.md and docs/robustness.md have the tables).
template <typename Fn>
constexpr void for_each_knob(Fn&& fn, Fidelity& f) {
  constexpr sim::Range kSeconds{.lo = 0.0, .hi = sim::kMaxKnobSeconds, .lo_open = true};
  fn("VGR_RUNS", f.runs, sim::Range{.lo = 1});
  fn("VGR_SIM_SECONDS", f.sim_seconds, kSeconds);
  fn("VGR_RUN_TIMEOUT_S", f.run_wall_budget_s, kSeconds);
  fn("VGR_RUN_MAX_EVENTS", f.run_max_events, sim::Range{.lo = 1});
}

/// One arm: an experiment and its config, attacker as deployed (kNone is
/// attacker-free). The fidelity's seed window sets the seed.
struct Arm {
  Experiment experiment{Experiment::kInterArea};
  HighwayConfig config;
  friend bool operator==(const Arm&, const Arm&) = default;
};

/// One arm's run results in seed order (element i ran seed first_run+i+1):
/// `inter` for an inter-area arm, `intra` for an intra-area one.
struct ArmRuns {
  std::vector<InterAreaResult> inter;
  std::vector<IntraAreaResult> intra;

  /// Reception over every run, merged as AbResult merges an arm:
  /// packet-weighted (inter-area) or the merged bins' overall rate.
  [[nodiscard]] double reception() const;
  /// Every run's counters, each merged under its RunCounters rule.
  [[nodiscard]] RunCounters totals() const;
};

/// Runs every arm over the seeds first_run+1 .. first_run+runs and returns
/// each arm's results in the order given. Arm-runs are memoised per calling
/// thread by arm and seed (docs/performance.md "Arm reuse"), keyed and
/// simulated after the fidelity and env overrides, with defaults resolved:
/// a plausibility threshold <= 0 becomes the router's own, and an
/// attacker-free arm drops every field only an attacker reads (intra-area:
/// the geometry too). The runs the memo lacks go out as one thread-pool
/// fan-out, one world per arm-run. A window that shares a seed with the
/// memo's widens it, and one that shares none starts it afresh; a run that
/// tripped the wall-clock budget is never kept. Results are bit-identical
/// at any thread count and whether or not the memo hit.
std::vector<ArmRuns> run_arms(const std::vector<Arm>& arms, const Fidelity& fidelity);

/// The paired (attacker-free, attacked) experiment: two arms on run_arms(),
/// each seed's pair merged in seed order, A before B. `config.attack`
/// selects the B arm's attacker (kNone: the experiment's classic one); the
/// A arm clears it. An inter-area A arm keeps the attack geometry, which
/// defines the vulnerable-packet workload (see AttackKind).
AbResult run_ab(Experiment experiment, HighwayConfig config, const Fidelity& fidelity);

/// run_ab's seeds one by one: element i is what run_ab returns for seed
/// first_run+i+1 alone, and merging them in order (AbResult::merge) gives
/// run_ab's result over the whole window bit for bit. The sweep supervisor
/// takes each seed's first shard attempt from one such call.
std::vector<AbResult> run_ab_seeds(Experiment experiment, HighwayConfig config,
                                   const Fidelity& fidelity);

inline AbResult run_inter_area_ab(HighwayConfig config, const Fidelity& fidelity) {
  return run_ab(Experiment::kInterArea, std::move(config), fidelity);
}

inline AbResult run_intra_area_ab(HighwayConfig config, const Fidelity& fidelity) {
  return run_ab(Experiment::kIntraArea, std::move(config), fidelity);
}

/// Arm-runs the calling thread has simulated and served from its memo since
/// the last clear_arm_reuse().
struct ArmReuseCounts {
  std::uint64_t simulated{0};
  std::uint64_t reused{0};
};
ArmReuseCounts arm_reuse_counts();

/// Empties the calling thread's arm memo and zeroes its counts, so the next
/// call simulates every arm.
void clear_arm_reuse();

}  // namespace vgr::scenario
