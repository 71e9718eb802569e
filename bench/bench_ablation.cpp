// Ablation studies for the design choices DESIGN.md calls out:
//  1. RHL rewrite on/off for the intra-area blocker (why the attacker must
//     rewrite the unprotected hop limit when over-reaching).
//  2. Beacon period sweep (staleness of the GF picture vs overhead).
//  3. Plausibility-check threshold sweep around the paper's 486 m.
//  4. Plausibility check with and without PV extrapolation (the component
//     that also helps attacker-free traffic).

#include <cstdio>

#include "bench_util.hpp"
#include "vgr/scenario/highway.hpp"

using namespace vgr;
using scenario::AbResult;
using scenario::Fidelity;
using scenario::HighwayConfig;

namespace {

double inter_attacked_reception(HighwayConfig cfg, const Fidelity& fidelity) {
  scenario::apply_fidelity(cfg, fidelity);
  cfg.attack = scenario::AttackKind::kInterArea;
  double hits = 0.0, total = 0.0;
  for (std::uint64_t run = 0; run < fidelity.runs; ++run) {
    cfg.seed = run + 1;
    const auto r = scenario::HighwayScenario{cfg}.run_inter_area();
    hits += r.overall_reception() * static_cast<double>(r.packets.size());
    total += static_cast<double>(r.packets.size());
  }
  return total > 0.0 ? hits / total : 0.0;
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
  for (const double period : {1.0, 3.0, 6.0, 10.0}) {
    HighwayConfig cfg;
    scenario::apply_fidelity(cfg, fidelity);
    cfg.attack_range_m = ranges.nlos_worst_m;
    cfg.beacon_interval = sim::Duration::seconds(period);
    double hits = 0.0, total = 0.0;
    for (std::uint64_t run = 0; run < fidelity.runs; ++run) {
      cfg.seed = run + 1;
      const auto r = scenario::HighwayScenario{cfg}.run_inter_area();
      hits += r.overall_reception() * static_cast<double>(r.packets.size());
      total += static_cast<double>(r.packets.size());
    }
    std::printf("  beacon period %4.0f s: attacker-free reception = %.3f\n", period,
                total > 0.0 ? hits / total : 0.0);
  }

  // 3. Plausibility threshold sweep under the mN attacker.
  std::printf("\nAblation 3 — plausibility threshold vs attacked reception (mN attacker)\n");
  for (const double threshold : {243.0, 400.0, 486.0, 600.0, 800.0}) {
    HighwayConfig cfg;
    cfg.attack_range_m = ranges.nlos_median_m;
    cfg.mitigation = mitigation::Profile::kPlausibilityCheck;
    cfg.mitigation_params.plausibility_threshold_m = threshold;
    std::printf("  threshold %4.0f m: attacked reception = %.3f\n", threshold,
                inter_attacked_reception(cfg, fidelity));
  }

  // 4. Extrapolation on/off.
  std::printf("\nAblation 4 — plausibility check with / without PV extrapolation (mN)\n");
  for (const bool extrapolate : {true, false}) {
    HighwayConfig cfg;
    cfg.attack_range_m = ranges.nlos_median_m;
    cfg.mitigation = mitigation::Profile::kPlausibilityCheck;
    cfg.mitigation_params.extrapolate = extrapolate;
    std::printf("  extrapolation %-3s: attacked reception = %.3f\n", extrapolate ? "on" : "off",
                inter_attacked_reception(cfg, fidelity));
  }

  // 5. The ACK alternative the paper's §V-A dismisses: per-hop
  //    acknowledgements also recover reception under attack, but at a
  //    measurable airtime cost. We report reception and channel overhead
  //    for {nothing, ACKs, plausibility check}.
  std::printf("\nAblation 5 — ACK'd forwarding vs plausibility check (mN attacker)\n");
  {
    struct Arm {
      const char* label;
      bool ack;
      mitigation::Profile profile;
    } arms[] = {
        {"no defense", false, mitigation::Profile::kNone},
        {"per-hop ACKs", true, mitigation::Profile::kNone},
        {"plausibility check", false, mitigation::Profile::kPlausibilityCheck},
    };
    for (const auto& arm : arms) {
      HighwayConfig cfg;
      scenario::apply_fidelity(cfg, fidelity);
      cfg.attack_range_m = ranges.nlos_median_m;
      cfg.attack = scenario::AttackKind::kInterArea;
      cfg.gf_ack = arm.ack;
      cfg.mitigation = arm.profile;
      double hits = 0.0, total = 0.0, frames = 0.0;
      for (std::uint64_t run = 0; run < fidelity.runs; ++run) {
        cfg.seed = run + 1;
        scenario::HighwayScenario scn{cfg};
        const auto r = scn.run_inter_area();
        hits += r.overall_reception() * static_cast<double>(r.packets.size());
        total += static_cast<double>(r.packets.size());
        frames += static_cast<double>(scn.medium().frames_sent());
      }
      std::printf("  %-20s attacked reception = %.3f, channel frames/run = %.0f\n",
                  arm.label, total > 0.0 ? hits / total : 0.0,
                  frames / static_cast<double>(fidelity.runs));
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
