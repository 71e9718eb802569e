#include "vgr/scenario/ab_runner.hpp"

#include <algorithm>
#include <array>
#include <type_traits>
#include <utility>
#include <vector>

#include "vgr/sim/env.hpp"
#include "vgr/sim/thread_pool.hpp"

namespace vgr::scenario {
namespace {

/// How many knobs highway.hpp's run-config list declares.
constexpr std::size_t kRunKnobCount = [] {
  HighwayConfig c;
  std::size_t n = 0;
  for_each_knob([&n](const char*, auto&, const sim::Range&) { ++n; }, c);
  return n;
}();

/// The run-config knobs (highway.hpp's for_each_knob) the environment
/// sets, read once per run_arms call: a rejected value warns once, however
/// many arms the call has.
class RunKnobs {
 public:
  RunKnobs() {
    std::size_t i = 0;
    for_each_knob([&](const char* name, auto& field, const sim::Range& range) {
      read_[i++] = sim::read_knob(name, field, range) ? &field : nullptr;
    }, values_);
  }
  RunKnobs(const RunKnobs&) = delete;
  RunKnobs& operator=(const RunKnobs&) = delete;

  /// Sets every knob the environment sets on `config`, a value equal to
  /// the default included; unset and rejected knobs leave it alone.
  void apply(HighwayConfig& config) const {
    std::size_t i = 0;
    for_each_knob([&](const char*, auto& field, const sim::Range&) {
      using Field = std::remove_reference_t<decltype(field)>;
      if (read_[i] != nullptr) field = *static_cast<const Field*>(read_[i]);
      ++i;
    }, config);
  }

 private:
  HighwayConfig values_;
  /// Per knob, in list order: its field in values_ when the environment
  /// set it, else null.
  std::array<const void*, kRunKnobCount> read_{};
};

/// The arm as the memo keys and simulates it: the fidelity applied (the
/// simulated seconds and both watchdog budgets) and the run-config knobs
/// the environment sets, the seed cleared and each default two spellings
/// share resolved.
Arm memo_key(Arm arm, const Fidelity& fidelity, const RunKnobs& knobs) {
  HighwayConfig& c = arm.config;
  c.sim_duration = fidelity.horizon(c);
  knobs.apply(c);
  c.run_wall_budget_s = fidelity.run_wall_budget_s;
  c.run_max_events = fidelity.run_max_events;
  c.seed = 0;
  if (c.mitigation_params.plausibility_threshold_m <= 0.0) {  // keep the router's
    c.mitigation_params.plausibility_threshold_m =
        gn::RouterConfig::for_technology(c.tech).plausibility_threshold_m;
  }
  if (c.attack != AttackKind::kNone) return arm;
  const HighwayConfig defaults{};
  c.blocker = defaults.blocker;
  c.flood_rate_hz = defaults.flood_rate_hz;
  c.attacker_y_m = defaults.attacker_y_m;
  if (arm.experiment == Experiment::kIntraArea) {
    // The flood workload ignores the attack geometry; a reader that splits
    // floods by it (Fig 9's source split) applies its own to `source_x`.
    // The inter-area workload is defined by it (see AttackKind).
    c.attack_range_m = defaults.attack_range_m;
    c.attacker_x_m = defaults.attacker_x_m;
  }
  return arm;
}

/// The calling thread's arm memo: every distinct arm it has run and the
/// result of each of its runs over the seeds it holds, first_run+1 ..
/// first_run+runs (slot i is seed first_run + i + 1).
struct ArmMemo {
  struct Entry {
    Arm key;
    ArmRuns runs;
    std::vector<bool> kept;  ///< slot i may serve a later call

    /// `size` slots, the held ones moved `front` slots up.
    void widen(std::size_t front, std::size_t size) {
      const auto widen_slots = [front, size](auto& slots) {
        std::remove_reference_t<decltype(slots)> wider(size);
        std::move(slots.begin(), slots.end(), wider.begin() + static_cast<std::ptrdiff_t>(front));
        slots.swap(wider);
      };
      if (key.experiment == Experiment::kInterArea) {
        widen_slots(runs.inter);
      } else {
        widen_slots(runs.intra);
      }
      widen_slots(kept);
    }
  };

  std::uint64_t first_run{0};
  std::uint64_t runs{0};
  std::vector<Entry> entries;
  ArmReuseCounts counts{};

  /// Makes the held seeds cover `f`'s window: their union with it when the
  /// two share a seed, else the window alone, the memo started afresh.
  void cover(const Fidelity& f) {
    const std::uint64_t lo = std::min(first_run, f.first_run);
    const std::uint64_t hi = std::max(first_run + runs, f.first_run + f.runs);
    if (hi - lo >= runs + f.runs) {  // no seed in common
      *this = ArmMemo{f.first_run, f.runs, {}, counts};
    } else if (hi - lo > runs) {
      for (Entry& entry : entries) entry.widen(first_run - lo, hi - lo);
      first_run = lo;
      runs = hi - lo;
    }
  }

  /// Index of `key`'s entry, added with empty slots on first sight.
  std::size_t find_or_add(const Arm& key) {
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].key == key) return i;
    }
    entries.push_back(Entry{key, {}, {}});
    entries.back().widen(0, runs);
    return entries.size() - 1;
  }
};

thread_local ArmMemo t_memo;

double ratio(double hits, double trials) { return trials > 0.0 ? hits / trials : 0.0; }

/// An inter-area run's packet-weighted reception operand. It is
/// overall_reception() * packets, not the hit count: the two can differ in
/// the last bit, and the sweep artifact prints 17 digits.
double reception_hits(const InterAreaResult& r) {
  return r.overall_reception() * static_cast<double>(r.packets.size());
}

/// One seed's A/B pair as a one-run result, ready for AbResult::merge.
template <typename Result>
AbResult pair_result(const Result& base, const Result& atk) {
  AbResult r{base.binned(kBinWidth), atk.binned(kBinWidth)};
  r.baseline_totals = base;
  r.attacked_totals = atk;
  if constexpr (std::is_same_v<Result, InterAreaResult>) {
    r.reception_base_hits = reception_hits(base);
    r.reception_base_trials = static_cast<double>(base.packets.size());
    r.reception_atk_hits = reception_hits(atk);
    r.reception_atk_trials = static_cast<double>(atk.packets.size());
  }
  r.runs = 1;
  r.timed_out_runs = base.timed_out || atk.timed_out ? 1 : 0;
  for (const sim::BudgetTrip cause : {base.timed_out_cause, atk.timed_out_cause}) {
    if (cause == sim::BudgetTrip::kEvents) ++r.timed_out_events;
    if (cause == sim::BudgetTrip::kWall) ++r.timed_out_wall;
  }
  return r;
}

}  // namespace

std::vector<ArmRuns> run_arms(const std::vector<Arm>& arms, const Fidelity& fidelity) {
  ArmMemo& memo = t_memo;
  memo.cover(fidelity);
  const std::size_t offset = fidelity.first_run - memo.first_run;
  const RunKnobs knobs;
  std::vector<std::size_t> entry;
  for (const Arm& arm : arms) entry.push_back(memo.find_or_add(memo_key(arm, fidelity, knobs)));

  // Each (entry, run) the memo lacks, once however many arms share it, run
  // by run in the arms' order: an A/B call queues A then B per seed.
  std::vector<std::size_t> wanted;
  for (const std::size_t e : entry) {
    if (std::find(wanted.begin(), wanted.end(), e) == wanted.end()) wanted.push_back(e);
  }
  std::vector<std::pair<std::size_t, std::size_t>> missing;
  for (std::size_t run = offset; run < offset + fidelity.runs; ++run) {
    for (const std::size_t e : wanted) {
      if (!memo.entries[e].kept[run]) missing.emplace_back(e, run);
    }
  }
  if (!missing.empty()) {
    // Each task owns one world, seeded from its run index and destroyed
    // before it returns, and writes only its own slot of an entry sized
    // before the fan-out: the results do not depend on the thread count.
    sim::ThreadPool pool{fidelity.threads};
    pool.parallel_for(missing.size(), [&](std::size_t i) {
      const auto [e, run] = missing[i];
      ArmMemo::Entry& slot = memo.entries[e];
      HighwayConfig config = slot.key.config;
      config.seed = memo.first_run + run + 1;
      HighwayScenario world{config};
      if (slot.key.experiment == Experiment::kInterArea) {
        slot.runs.inter[run] = world.run_inter_area();
      } else {
        slot.runs.intra[run] = world.run_intra_area();
      }
    });
  }
  for (const auto& [e, run] : missing) {
    // A wall-clock trip depends on the host, so it is never kept: the sweep
    // supervisor's retry must simulate that run again.
    ArmMemo::Entry& slot = memo.entries[e];
    const RunResult& r = slot.key.experiment == Experiment::kInterArea
                             ? static_cast<const RunResult&>(slot.runs.inter[run])
                             : slot.runs.intra[run];
    slot.kept[run] = r.timed_out_cause != sim::BudgetTrip::kWall;
  }
  memo.counts.simulated += missing.size();
  memo.counts.reused += arms.size() * fidelity.runs - missing.size();

  const auto window = [offset, &fidelity](const auto& held) {  // the call's slots
    const auto first = held.begin() + static_cast<std::ptrdiff_t>(offset);
    return std::decay_t<decltype(held)>(first, first + static_cast<std::ptrdiff_t>(fidelity.runs));
  };
  std::vector<ArmRuns> out;
  for (const std::size_t e : entry) {
    const ArmMemo::Entry& held = memo.entries[e];
    out.push_back(held.key.experiment == Experiment::kInterArea
                      ? ArmRuns{window(held.runs.inter), {}}
                      : ArmRuns{{}, window(held.runs.intra)});
  }
  return out;
}

AbResult run_ab(Experiment experiment, HighwayConfig config, const Fidelity& fidelity) {
  const sim::Duration horizon = fidelity.horizon(config);
  AbResult out{sim::BinnedRate{kBinWidth, horizon}, sim::BinnedRate{kBinWidth, horizon}};
  for (const AbResult& seed : run_ab_seeds(experiment, std::move(config), fidelity)) {
    out.merge(seed);
  }
  return out;
}

std::vector<AbResult> run_ab_seeds(Experiment experiment, HighwayConfig config,
                                   const Fidelity& fidelity) {
  HighwayConfig baseline = config;
  baseline.attack = AttackKind::kNone;
  if (config.attack == AttackKind::kNone) {
    config.attack = experiment == Experiment::kInterArea ? AttackKind::kInterArea
                                                         : AttackKind::kIntraArea;
  }
  const std::vector<ArmRuns> arms =
      run_arms({{experiment, baseline}, {experiment, config}}, fidelity);
  const sim::Duration horizon = fidelity.horizon(config);
  std::vector<AbResult> seeds;
  for (std::size_t run = 0; run < fidelity.runs; ++run) {
    AbResult& seed = seeds.emplace_back(sim::BinnedRate{kBinWidth, horizon},
                                        sim::BinnedRate{kBinWidth, horizon});
    seed.merge(experiment == Experiment::kInterArea
                   ? pair_result(arms[0].inter[run], arms[1].inter[run])
                   : pair_result(arms[0].intra[run], arms[1].intra[run]));
  }
  return seeds;
}

double ArmRuns::reception() const {
  if (!intra.empty()) {
    sim::BinnedRate bins{kBinWidth, intra.front().horizon};
    for (const IntraAreaResult& r : intra) bins.merge(r.binned(kBinWidth));
    return bins.overall();
  }
  double hits = 0.0, trials = 0.0;
  // vgr-lint: begin float-accum-ok (seed order, as AbResult::merge sums)
  for (const InterAreaResult& r : inter) {
    hits += reception_hits(r);
    trials += static_cast<double>(r.packets.size());
  }
  // vgr-lint: end
  return ratio(hits, trials);
}

RunCounters ArmRuns::totals() const {
  RunCounters t;
  for (const InterAreaResult& r : inter) t.merge(r);
  for (const IntraAreaResult& r : intra) t.merge(r);
  return t;
}

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

sim::Duration Fidelity::horizon(const HighwayConfig& config) const {
  return sim_seconds > 0.0 ? sim::Duration::seconds(sim_seconds) : config.sim_duration;
}

Fidelity Fidelity::from_env(std::uint64_t default_runs) {
  Fidelity f;
  f.runs = default_runs;
  sim::read_knobs(f);
  return f;
}

ArmReuseCounts arm_reuse_counts() { return t_memo.counts; }

void clear_arm_reuse() { t_memo = ArmMemo{}; }

}  // namespace vgr::scenario
