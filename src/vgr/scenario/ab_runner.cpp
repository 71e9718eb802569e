#include "vgr/scenario/ab_runner.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "vgr/sim/env.hpp"
#include "vgr/sim/thread_pool.hpp"

namespace vgr::scenario {
namespace {

void apply_fidelity(HighwayConfig& config, const Fidelity& fidelity) {
  if (fidelity.sim_seconds > 0.0) {
    config.sim_duration = sim::Duration::seconds(fidelity.sim_seconds);
  }
  // Resilience knobs (VGR_FAULT_*, VGR_CHURN_*, VGR_SCF*, VGR_RETX*,
  // VGR_NBR_MONITOR) apply to every run of every experiment binary, so any
  // existing sweep can be re-run under channel faults, node churn, or with
  // the recovery layer enabled without a rebuild. Absent variables leave the
  // programmatic config untouched and the runs bit-identical.
  config.faults = config.faults.with_env_overrides();
  config.churn = config.churn.with_env_overrides();
  config.recovery = config.recovery.with_env_overrides();
  config.mac = config.mac.with_env_overrides();
  config.dcc = config.dcc.with_env_overrides();
  config.run_wall_budget_s = fidelity.run_wall_budget_s;
  config.run_max_events = fidelity.run_max_events;
}

/// What the A/B merge reads from one arm of one run. It is reduced inside
/// the arm's task, so the world and its per-packet records die there, and it
/// is what the memo stores.
struct ArmOutcome {
  sim::BinnedRate binned;
  AbResult::ArmTotals totals;
  bool timed_out{false};
  sim::BudgetTrip timed_out_cause{sim::BudgetTrip::kNone};
  /// Inter-area only: overall_reception() * packets and packets, the
  /// operands of the packet-weighted receptions.
  double reception_hits{0.0};
  double reception_trials{0.0};
};

template <typename Result>
ArmOutcome reduce(const Result& r) {
  ArmOutcome o{r.binned(kBinWidth),
               {.mac_queue_overflow = r.mac.queue_overflow_drops,
                .mac_retry_exhausted = r.mac.retry_exhausted_drops,
                .mac_dcc_gated = r.mac.dcc_gated_drops,
                .mac_backoff_retries = r.mac.backoff_retries,
                .mac_transmitted = r.mac.transmitted,
                .ingest_drops = r.ingest_drops,
                .frames_flooded = r.frames_flooded,
                .peak_cbr = r.peak_cbr},
               r.timed_out,
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

void accumulate(AbResult::ArmTotals& sum, const AbResult::ArmTotals& run) {
  sum.mac_queue_overflow += run.mac_queue_overflow;
  sum.mac_retry_exhausted += run.mac_retry_exhausted;
  sum.mac_dcc_gated += run.mac_dcc_gated;
  sum.mac_backoff_retries += run.mac_backoff_retries;
  sum.mac_transmitted += run.mac_transmitted;
  sum.ingest_drops += run.ingest_drops;
  sum.frames_flooded += run.frames_flooded;
  sum.peak_cbr = std::max(sum.peak_cbr, run.peak_cbr);
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
  out.runs = fidelity.runs;
  for (std::size_t run = 0; run < runs; ++run) {
    const ArmOutcome& base = outcome(2 * run);
    const ArmOutcome& atk = outcome(2 * run + 1);
    out.baseline.merge(base.binned);
    out.attacked.merge(atk.binned);
    accumulate(out.baseline_totals, base.totals);
    accumulate(out.attacked_totals, atk.totals);
    if (base.timed_out || atk.timed_out) ++out.timed_out_runs;
    for (const sim::BudgetTrip cause : {base.timed_out_cause, atk.timed_out_cause}) {
      if (cause == sim::BudgetTrip::kEvents) ++out.timed_out_events;
      if (cause == sim::BudgetTrip::kWall) ++out.timed_out_wall;
    }
    out.reception_base_hits += base.reception_hits;
    out.reception_base_trials += base.reception_trials;
    out.reception_atk_hits += atk.reception_hits;
    out.reception_atk_trials += atk.reception_trials;
  }
  out.attack_rate = sim::BinnedRate::average_drop(out.baseline, out.attacked);
  if constexpr (kExperiment == Experiment::kInterArea) {
    out.baseline_reception = out.reception_base_trials > 0.0
                                 ? out.reception_base_hits / out.reception_base_trials
                                 : 0.0;
    out.attacked_reception =
        out.reception_atk_trials > 0.0 ? out.reception_atk_hits / out.reception_atk_trials : 0.0;
  } else {
    out.baseline_reception = out.baseline.overall();
    out.attacked_reception = out.attacked.overall();
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

}  // namespace

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
