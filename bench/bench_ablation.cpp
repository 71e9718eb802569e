// Ablation studies for the design choices DESIGN.md calls out:
//  1. RHL rewrite on/off for the intra-area blocker (why the attacker must
//     rewrite the unprotected hop limit when over-reaching).
//  2. Beacon period sweep (staleness of the GF picture vs overhead).
//  3. Plausibility-check threshold sweep around the paper's 486 m.
//  4. Plausibility check with and without PV extrapolation (the component
//     that also helps attacker-free traffic).

#include <cstdio>
#include <vector>

#include "bench_util.hpp"

using namespace vgr;
using scenario::AbResult;
using scenario::Fidelity;
using scenario::HighwayConfig;

namespace {

/// The inter-area arms of `configs` (attacker as configured), run in one
/// call to the A/B runner's arm memo.
std::vector<scenario::ArmRuns> inter_arms(const std::vector<HighwayConfig>& configs,
                                          const Fidelity& fidelity) {
  std::vector<scenario::Arm> arms;
  for (const HighwayConfig& cfg : configs) arms.push_back({scenario::Experiment::kInterArea, cfg});
  return scenario::run_arms(arms, fidelity);
}

/// The mN interceptor against the plausibility check at its defaults.
HighwayConfig checked_mn_attack() {
  HighwayConfig cfg;
  cfg.attack_range_m = phy::range_table(cfg.tech).nlos_median_m;
  cfg.attack = scenario::AttackKind::kInterArea;
  cfg.mitigation = mitigation::Profile::kPlausibilityCheck;
  return cfg;
}

}  // namespace

int main() {
  const Fidelity fidelity = Fidelity::from_env(2);
  bench::banner("Ablations", "design-choice studies beyond the paper's figures", fidelity);
  const phy::RangeTable ranges = phy::range_table(phy::AccessTechnology::kDsrc);

  // 1. RHL rewrite on/off. Without the rewrite, a full-power replay seeds
  //    fresh CBF contention among first-time receivers and the flood
  //    recovers; with it, they all exhaust the hop budget.
  std::printf("\nAblation 1 — intra-area blocker with and without the RHL rewrite (mN)\n");
  for (const bool rewrite : {true, false}) {
    HighwayConfig cfg;
    cfg.attack_range_m = ranges.nlos_median_m;
    cfg.blocker.mode = rewrite ? attack::IntraAreaBlocker::Mode::kRhlRewrite
                               : attack::IntraAreaBlocker::Mode::kTargetedReplay;
    cfg.blocker.targeted_range_m = -1.0;  // variant at full power, RHL intact
    const AbResult r = run_intra_area_ab(cfg, fidelity);
    bench::print_summary_row(rewrite ? "RHL rewritten to 1" : "RHL left intact", r, "lambda");
  }

  // 2. Beacon period sweep (attacker-free inter-area reception): longer
  //    periods mean staler neighbour tables and more GF losses.
  std::printf("\nAblation 2 — beacon period vs attacker-free GF reception\n");
  {
    const double periods[] = {1.0, 3.0, 6.0, 10.0};
    std::vector<HighwayConfig> configs;
    for (const double period : periods) {
      HighwayConfig cfg;
      cfg.attack_range_m = ranges.nlos_worst_m;
      cfg.beacon_interval = sim::Duration::seconds(period);
      configs.push_back(cfg);
    }
    const auto runs = inter_arms(configs, fidelity);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      std::printf("  beacon period %4.0f s: attacker-free reception = %.3f\n", periods[i],
                  runs[i].reception());
    }
  }

  // 3. Plausibility threshold sweep under the mN attacker. 486 m is the
  //    router's own threshold, so that row is the same arm as ablation 4's
  //    extrapolation-on row and ablation 5's plausibility-check row.
  std::printf("\nAblation 3 — plausibility threshold vs attacked reception (mN attacker)\n");
  {
    const double thresholds[] = {243.0, 400.0, 486.0, 600.0, 800.0};
    std::vector<HighwayConfig> configs;
    for (const double threshold : thresholds) {
      configs.push_back(checked_mn_attack());
      configs.back().mitigation_params.plausibility_threshold_m = threshold;
    }
    const auto runs = inter_arms(configs, fidelity);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      std::printf("  threshold %4.0f m: attacked reception = %.3f\n", thresholds[i],
                  runs[i].reception());
    }
  }

  // 4. Extrapolation on/off.
  std::printf("\nAblation 4 — plausibility check with / without PV extrapolation (mN)\n");
  for (const bool extrapolate : {true, false}) {
    HighwayConfig cfg = checked_mn_attack();
    cfg.mitigation_params.extrapolate = extrapolate;
    std::printf("  extrapolation %-3s: attacked reception = %.3f\n", extrapolate ? "on" : "off",
                inter_arms({cfg}, fidelity).front().reception());
  }

  // 5. The ACK alternative the paper's §V-A dismisses: per-hop
  //    acknowledgements also recover reception under attack, but at a
  //    measurable airtime cost. We report reception and channel overhead
  //    for {nothing, ACKs, plausibility check}.
  std::printf("\nAblation 5 — ACK'd forwarding vs plausibility check (mN attacker)\n");
  {
    const char* labels[] = {"no defense", "per-hop ACKs", "plausibility check"};
    HighwayConfig undefended = checked_mn_attack();
    undefended.mitigation = mitigation::Profile::kNone;
    HighwayConfig acked = undefended;
    acked.gf_ack = true;
    const auto runs = inter_arms({undefended, acked, checked_mn_attack()}, fidelity);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      std::printf("  %-20s attacked reception = %.3f, channel frames/run = %.0f\n", labels[i],
                  runs[i].reception(),
                  static_cast<double>(runs[i].totals().frames_sent) /
                      static_cast<double>(fidelity.runs));
    }
  }

  // 6. Co-channel interference: does the attacker's extra airtime or the
  //    CBF flood itself suffer when collisions are modelled?
  std::printf("\nAblation 6 — intra-area attack with interference modelled (mN)\n");
  for (const bool interference : {false, true}) {
    HighwayConfig cfg;
    cfg.attack_range_m = ranges.nlos_median_m;
    cfg.interference = interference;
    const AbResult r = run_intra_area_ab(cfg, fidelity);
    bench::print_summary_row(interference ? "interference on" : "interference off", r,
                             "lambda");
  }

  // 7. Pseudonym rotation: privacy does not equal security — the replay
  //    attacks never depend on linking identities.
  std::printf("\nAblation 7 — pseudonym rotation vs the inter-area attack (mN)\n");
  for (const double period : {-1.0, 30.0, 10.0}) {
    HighwayConfig cfg;
    cfg.attack_range_m = ranges.nlos_median_m;
    cfg.pseudonym_period_s = period;
    const AbResult r = run_inter_area_ab(cfg, fidelity);
    char label[64];
    if (period <= 0.0) {
      std::snprintf(label, sizeof label, "no rotation");
    } else {
      std::snprintf(label, sizeof label, "rotate every %.0f s", period);
    }
    bench::print_summary_row(label, r, "gamma");
  }

  return 0;
}
