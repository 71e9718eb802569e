#include "vgr/scenario/ab_runner.hpp"

#include <array>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "vgr/sim/env.hpp"
#include "vgr/sim/thread_pool.hpp"

namespace vgr::scenario {
namespace {

/// What the A/B merge reads from one arm of one run. It is reduced inside
/// the arm's task, so the world and its per-packet records die there, and it
/// is what the memo stores.
struct ArmOutcome {
  sim::BinnedRate binned;
  RunCounters counters;
  bool timed_out{false};
  sim::BudgetTrip timed_out_cause{sim::BudgetTrip::kNone};
  /// Inter-area only: overall_reception() * packets and packets, the
  /// operands of the packet-weighted receptions.
  double reception_hits{0.0};
  double reception_trials{0.0};
};

template <typename Result>
ArmOutcome reduce(const Result& r) {
  ArmOutcome o{r.binned(kBinWidth), static_cast<const RunCounters&>(r), r.timed_out,
               r.timed_out_cause};
  if constexpr (std::is_same_v<Result, InterAreaResult>) {
    o.reception_hits = r.overall_reception() * static_cast<double>(r.packets.size());
    o.reception_trials = static_cast<double>(r.packets.size());
  }
  return o;
}

/// Runs one arm in a world of its own, destroyed before the task returns.
template <Experiment kExperiment>
ArmOutcome simulate(const HighwayConfig& config) {
  HighwayScenario scenario{config};
  if constexpr (kExperiment == Experiment::kInterArea) {
    return reduce(scenario.run_inter_area());
  } else {
    return reduce(scenario.run_intra_area());
  }
}

/// One seed's A/B pair as a one-run result, ready for AbResult::merge.
AbResult pair_result(const ArmOutcome& base, const ArmOutcome& atk) {
  AbResult r{base.binned, atk.binned};
  r.baseline_totals = base.counters;
  r.attacked_totals = atk.counters;
  r.reception_base_hits = base.reception_hits;
  r.reception_base_trials = base.reception_trials;
  r.reception_atk_hits = atk.reception_hits;
  r.reception_atk_trials = atk.reception_trials;
  r.runs = 1;
  r.timed_out_runs = base.timed_out || atk.timed_out ? 1 : 0;
  for (const sim::BudgetTrip cause : {base.timed_out_cause, atk.timed_out_cause}) {
    if (cause == sim::BudgetTrip::kEvents) ++r.timed_out_events;
    if (cause == sim::BudgetTrip::kWall) ++r.timed_out_wall;
  }
  return r;
}

/// The unseeded config of one arm, which is also its memo key. The attacked
/// arm deploys the configured attacker, or the experiment's classic one when
/// none is set (historical call sites pass kNone; the congestion sweeps pair
/// "no attacker" against a flooder). The attacker-free arm resets every
/// field only an attacker reads, so settings that differ only there share
/// one baseline simulation.
HighwayConfig arm_config(Experiment experiment, HighwayConfig c, bool attacked) {
  c.seed = 0;
  if (attacked) {
    if (c.attack == AttackKind::kNone) {
      c.attack = experiment == Experiment::kInterArea ? AttackKind::kInterArea
                                                      : AttackKind::kIntraArea;
    }
    return c;
  }
  const HighwayConfig defaults{};
  c.attack = AttackKind::kNone;
  c.blocker = defaults.blocker;
  c.flood_rate_hz = defaults.flood_rate_hz;
  c.attacker_y_m = defaults.attacker_y_m;
  if (experiment == Experiment::kIntraArea) {
    // The flood workload ignores the attack geometry; it only feeds
    // IntraAreaFloodRecord::source_fully_covered, which no AbResult reads.
    // The inter-area workload is defined by it (see AttackKind), so there
    // the geometry stays in the key.
    c.attack_range_m = defaults.attack_range_m;
    c.attacker_x_m = defaults.attacker_x_m;
  }
  return c;
}

/// The calling thread's arm memo: every distinct arm of one seed window and
/// the outcome of each of its runs (slot i is seed first_run + i + 1).
struct ArmMemo {
  struct Arm {
    Experiment experiment;
    HighwayConfig config;
    std::vector<std::optional<ArmOutcome>> runs;
  };

  std::uint64_t first_run{0};
  std::uint64_t runs{0};
  std::vector<Arm> arms;
  ArmReuseCounts counts{};

  /// Index of `config`'s entry, added empty on first sight.
  std::size_t find_or_add(Experiment experiment, const HighwayConfig& config) {
    for (std::size_t i = 0; i < arms.size(); ++i) {
      if (arms[i].experiment == experiment && arms[i].config == config) return i;
    }
    arms.push_back({experiment, config, std::vector<std::optional<ArmOutcome>>(runs)});
    return arms.size() - 1;
  }
};

thread_local ArmMemo t_memo;

/// Simulates the arms of `config` the memo lacks, one thread-pool task per
/// arm, then merges every run in strict seed order, A before B. Each task
/// owns its whole world (event queue, medium, RNG stream seeded from the run
/// index) and writes only its own slot, so merging in seed order keeps every
/// floating-point accumulation in the order of a serial loop: the output is
/// bit-identical for any VGR_THREADS, and whether or not the memo hit.
template <Experiment kExperiment>
AbResult run_ab(HighwayConfig config, const Fidelity& fidelity) {
  apply_fidelity(config, fidelity);
  const std::array<HighwayConfig, 2> arms{arm_config(kExperiment, config, false),
                                          arm_config(kExperiment, config, true)};

  ArmMemo& memo = t_memo;
  if (memo.first_run != fidelity.first_run || memo.runs != fidelity.runs) {
    memo.arms.clear();
    memo.first_run = fidelity.first_run;
    memo.runs = fidelity.runs;
  }
  const std::array<std::size_t, 2> entry{memo.find_or_add(kExperiment, arms[0]),
                                          memo.find_or_add(kExperiment, arms[1])};
  // Slot run * 2 + arm: run `run`'s A (arm 0) or B (arm 1) outcome.
  const auto stored = [&](std::size_t slot) -> std::optional<ArmOutcome>& {
    return memo.arms[entry[slot % 2]].runs[slot / 2];
  };

  const std::size_t runs = static_cast<std::size_t>(fidelity.runs);
  std::vector<std::optional<ArmOutcome>> fresh(2 * runs);
  std::vector<std::size_t> missing;
  for (std::size_t slot = 0; slot < 2 * runs; ++slot) {
    if (!stored(slot)) missing.push_back(slot);
  }
  if (!missing.empty()) {
    sim::ThreadPool pool{fidelity.threads};
    pool.parallel_for(missing.size(), [&](std::size_t i) {
      const std::size_t slot = missing[i];
      HighwayConfig arm = arms[slot % 2];
      arm.seed = fidelity.first_run + slot / 2 + 1;
      fresh[slot].emplace(simulate<kExperiment>(arm));
    });
  }
  memo.counts.simulated += missing.size();
  memo.counts.reused += 2 * runs - missing.size();
  const auto outcome = [&](std::size_t slot) -> const ArmOutcome& {
    return fresh[slot] ? *fresh[slot] : *stored(slot);
  };

  AbResult out{sim::BinnedRate{kBinWidth, config.sim_duration},
               sim::BinnedRate{kBinWidth, config.sim_duration}};
  for (std::size_t run = 0; run < runs; ++run) {
    out.merge(pair_result(outcome(2 * run), outcome(2 * run + 1)));
  }

  // A wall-clock trip depends on the host, so it is never stored: the sweep
  // supervisor's retry must simulate that arm again.
  for (const std::size_t slot : missing) {
    if (fresh[slot]->timed_out_cause != sim::BudgetTrip::kWall) {
      stored(slot) = std::move(fresh[slot]);
    }
  }
  return out;
}

double ratio(double hits, double trials) { return trials > 0.0 ? hits / trials : 0.0; }

}  // namespace

void AbResult::merge(const AbResult& later) {
  baseline.merge(later.baseline);
  attacked.merge(later.attacked);
  baseline_totals.merge(later.baseline_totals);
  attacked_totals.merge(later.attacked_totals);
  reception_base_hits += later.reception_base_hits;
  reception_base_trials += later.reception_base_trials;
  reception_atk_hits += later.reception_atk_hits;
  reception_atk_trials += later.reception_atk_trials;
  runs += later.runs;
  timed_out_runs += later.timed_out_runs;
  timed_out_events += later.timed_out_events;
  timed_out_wall += later.timed_out_wall;

  attack_rate = sim::BinnedRate::average_drop(baseline, attacked);
  if (reception_base_trials > 0.0 || reception_atk_trials > 0.0) {
    // Inter-area: packet-weighted averages over the runs.
    baseline_reception = ratio(reception_base_hits, reception_base_trials);
    attacked_reception = ratio(reception_atk_hits, reception_atk_trials);
  } else {
    // Intra-area (or no packet at all): overall rate of the merged bins.
    baseline_reception = baseline.overall();
    attacked_reception = attacked.overall();
  }
}

void apply_fidelity(HighwayConfig& config, const Fidelity& fidelity) {
  if (fidelity.sim_seconds > 0.0) {
    config.sim_duration = sim::Duration::seconds(fidelity.sim_seconds);
  }
  // Absent variables leave the programmatic config untouched and the runs
  // bit-identical.
  config.faults = config.faults.with_env_overrides();
  config.churn = config.churn.with_env_overrides();
  config.recovery = config.recovery.with_env_overrides();
  config.mac = config.mac.with_env_overrides();
  config.dcc = config.dcc.with_env_overrides();
  config.run_wall_budget_s = fidelity.run_wall_budget_s;
  config.run_max_events = fidelity.run_max_events;
}

Fidelity Fidelity::from_env(std::uint64_t default_runs) {
  Fidelity f;
  f.runs = default_runs;
  if (const auto v = sim::env_int("VGR_RUNS"); v.has_value() && *v > 0) {
    f.runs = static_cast<std::uint64_t>(*v);
  }
  if (const auto v = sim::env_double("VGR_SIM_SECONDS"); v.has_value() && *v > 0.0) {
    f.sim_seconds = *v;
  }
  if (const auto v = sim::env_int("VGR_THREADS"); v.has_value() && *v > 0) {
    f.threads = static_cast<std::size_t>(*v);
  }
  if (const auto v = sim::env_double("VGR_RUN_TIMEOUT_S"); v.has_value() && *v > 0.0) {
    f.run_wall_budget_s = *v;
  }
  if (const auto v = sim::env_int("VGR_RUN_MAX_EVENTS"); v.has_value() && *v > 0) {
    f.run_max_events = static_cast<std::uint64_t>(*v);
  }
  return f;
}

AbResult run_inter_area_ab(HighwayConfig config, const Fidelity& fidelity) {
  return run_ab<Experiment::kInterArea>(std::move(config), fidelity);
}

AbResult run_intra_area_ab(HighwayConfig config, const Fidelity& fidelity) {
  return run_ab<Experiment::kIntraArea>(std::move(config), fidelity);
}

ArmReuseCounts arm_reuse_counts() { return t_memo.counts; }

void clear_arm_reuse() { t_memo = ArmMemo{}; }

}  // namespace vgr::scenario
