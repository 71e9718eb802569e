#include "vgr/scenario/ab_runner.hpp"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "vgr/sim/env.hpp"
#include "vgr/sim/thread_pool.hpp"

namespace vgr::scenario {
namespace {

constexpr sim::Duration kBin = sim::Duration::seconds(5.0);

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

/// The attacker deployed in the B-arm: the configured attack when one is
/// set, else the experiment family's classic attacker (`fallback`). Keeps
/// historical call sites (config.attack == kNone) bit-identical while
/// letting the congestion sweeps pair "no attacker" against a flooder.
AttackKind b_arm_attack(const HighwayConfig& config, AttackKind fallback) {
  return config.attack == AttackKind::kNone ? fallback : config.attack;
}

template <typename Result>
void count_timeouts(AbResult& out, const Result& baseline, const Result& attacked) {
  if (baseline.timed_out || attacked.timed_out) ++out.timed_out_runs;
  for (const sim::BudgetTrip cause : {baseline.timed_out_cause, attacked.timed_out_cause}) {
    if (cause == sim::BudgetTrip::kEvents) ++out.timed_out_events;
    if (cause == sim::BudgetTrip::kWall) ++out.timed_out_wall;
  }
}

template <typename Result>
void accumulate_totals(AbResult::ArmTotals& totals, const Result& r) {
  totals.mac_queue_overflow += r.mac.queue_overflow_drops;
  totals.mac_retry_exhausted += r.mac.retry_exhausted_drops;
  totals.mac_dcc_gated += r.mac.dcc_gated_drops;
  totals.mac_backoff_retries += r.mac.backoff_retries;
  totals.mac_transmitted += r.mac.transmitted;
  totals.ingest_drops += r.ingest_drops;
  totals.frames_flooded += r.frames_flooded;
  totals.peak_cbr = std::max(totals.peak_cbr, r.peak_cbr);
}

/// Dispatches `fidelity.runs` independent runs across a thread pool and
/// hands each per-run result to `merge` in strict seed order. Each run is a
/// self-contained `HighwayScenario` (own event queue, medium, RNG stream
/// seeded from the run index), so the only cross-thread state is the result
/// slot each run writes once. Merging in seed order keeps every floating-
/// point accumulation in the exact order of the serial loop, which is what
/// makes the output bit-identical for any VGR_THREADS.
template <typename RunResult, typename RunFn, typename MergeFn>
void for_each_run_in_order(const Fidelity& fidelity, RunFn run_fn, MergeFn merge) {
  const std::size_t runs = static_cast<std::size_t>(fidelity.runs);
  std::vector<std::optional<RunResult>> results(runs);
  sim::ThreadPool pool{fidelity.threads};
  pool.parallel_for(runs, [&](std::size_t run) { results[run].emplace(run_fn(run)); });
  for (std::size_t run = 0; run < runs; ++run) merge(*results[run]);
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
  apply_fidelity(config, fidelity);
  AbResult out{sim::BinnedRate{kBin, config.sim_duration},
               sim::BinnedRate{kBin, config.sim_duration}};
  double base_hits = 0.0, base_total = 0.0, atk_hits = 0.0, atk_total = 0.0;

  struct RunResult {
    InterAreaResult baseline;
    InterAreaResult attacked;
  };
  for_each_run_in_order<RunResult>(
      fidelity,
      [&config, first = fidelity.first_run](std::size_t run) {
        HighwayConfig a = config;
        a.seed = first + run + 1;
        a.attack = AttackKind::kNone;
        HighwayConfig b = config;
        b.seed = first + run + 1;
        b.attack = b_arm_attack(config, AttackKind::kInterArea);
        return RunResult{HighwayScenario{a}.run_inter_area(),
                         HighwayScenario{b}.run_inter_area()};
      },
      [&](const RunResult& r) {
        out.baseline.merge(r.baseline.binned(kBin));
        out.attacked.merge(r.attacked.binned(kBin));
        accumulate_totals(out.baseline_totals, r.baseline);
        accumulate_totals(out.attacked_totals, r.attacked);
        count_timeouts(out, r.baseline, r.attacked);
        // vgr-lint: begin float-accum-ok (merge runs in strict seed order, so
        // the summation order below is fixed for any VGR_THREADS)
        base_hits += r.baseline.overall_reception() *
                     static_cast<double>(r.baseline.packets.size());
        base_total += static_cast<double>(r.baseline.packets.size());
        atk_hits += r.attacked.overall_reception() *
                    static_cast<double>(r.attacked.packets.size());
        atk_total += static_cast<double>(r.attacked.packets.size());
        // vgr-lint: end
      });

  out.runs = fidelity.runs;
  out.attack_rate = sim::BinnedRate::average_drop(out.baseline, out.attacked);
  out.baseline_reception = base_total > 0.0 ? base_hits / base_total : 0.0;
  out.attacked_reception = atk_total > 0.0 ? atk_hits / atk_total : 0.0;
  out.reception_base_hits = base_hits;
  out.reception_base_trials = base_total;
  out.reception_atk_hits = atk_hits;
  out.reception_atk_trials = atk_total;
  return out;
}

AbResult run_intra_area_ab(HighwayConfig config, const Fidelity& fidelity) {
  apply_fidelity(config, fidelity);
  AbResult out{sim::BinnedRate{kBin, config.sim_duration},
               sim::BinnedRate{kBin, config.sim_duration}};

  struct RunResult {
    IntraAreaResult baseline;
    IntraAreaResult attacked;
  };
  for_each_run_in_order<RunResult>(
      fidelity,
      [&config, first = fidelity.first_run](std::size_t run) {
        HighwayConfig a = config;
        a.seed = first + run + 1;
        a.attack = AttackKind::kNone;
        HighwayConfig b = config;
        b.seed = first + run + 1;
        b.attack = b_arm_attack(config, AttackKind::kIntraArea);
        return RunResult{HighwayScenario{a}.run_intra_area(),
                         HighwayScenario{b}.run_intra_area()};
      },
      [&](const RunResult& r) {
        out.baseline.merge(r.baseline.binned(kBin));
        out.attacked.merge(r.attacked.binned(kBin));
        accumulate_totals(out.baseline_totals, r.baseline);
        accumulate_totals(out.attacked_totals, r.attacked);
        count_timeouts(out, r.baseline, r.attacked);
      });

  out.runs = fidelity.runs;
  out.attack_rate = sim::BinnedRate::average_drop(out.baseline, out.attacked);
  out.baseline_reception = out.baseline.overall();
  out.attacked_reception = out.attacked.overall();
  return out;
}

sim::BinnedRate run_inter_area_arm(HighwayConfig config, const Fidelity& fidelity) {
  apply_fidelity(config, fidelity);
  sim::BinnedRate merged{kBin, config.sim_duration};
  for_each_run_in_order<sim::BinnedRate>(
      fidelity,
      [&config, first = fidelity.first_run](std::size_t run) {
        HighwayConfig c = config;
        c.seed = first + run + 1;
        return HighwayScenario{c}.run_inter_area().binned(kBin);
      },
      [&](const sim::BinnedRate& r) { merged.merge(r); });
  return merged;
}

sim::BinnedRate run_intra_area_arm(HighwayConfig config, const Fidelity& fidelity) {
  apply_fidelity(config, fidelity);
  sim::BinnedRate merged{kBin, config.sim_duration};
  for_each_run_in_order<sim::BinnedRate>(
      fidelity,
      [&config, first = fidelity.first_run](std::size_t run) {
        HighwayConfig c = config;
        c.seed = first + run + 1;
        return HighwayScenario{c}.run_intra_area().binned(kBin);
      },
      [&](const sim::BinnedRate& r) { merged.merge(r); });
  return merged;
}

}  // namespace vgr::scenario
