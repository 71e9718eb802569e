// Reproduces paper Figure 14: effectiveness of the standard-compatible
// mitigations — (a) the GF plausibility check (threshold = DSRC NLoS
// median) against the inter-area interception attack at three attack
// ranges, including the attacker-free bonus the paper highlights; (b) the
// CBF RHL-drop check (threshold 3) against the intra-area blockage attack.

#include <cstdio>

#include "bench_util.hpp"
#include "vgr/scenario/highway.hpp"

using namespace vgr;
using scenario::Fidelity;
using scenario::HighwayConfig;

namespace {

/// Merged reception over `runs` paired seeds for one (attack, mitigation)
/// arm of the inter-area experiment.
double inter_arm(HighwayConfig cfg, const Fidelity& fidelity, bool attacked, bool mitigated) {
  scenario::apply_fidelity(cfg, fidelity);
  cfg.attack = attacked ? scenario::AttackKind::kInterArea : scenario::AttackKind::kNone;
  cfg.mitigation =
      mitigated ? mitigation::Profile::kPlausibilityCheck : mitigation::Profile::kNone;
  double hits = 0.0, total = 0.0;
  for (std::uint64_t run = 0; run < fidelity.runs; ++run) {
    cfg.seed = run + 1;
    const auto r = scenario::HighwayScenario{cfg}.run_inter_area();
    hits += r.overall_reception() * static_cast<double>(r.packets.size());
    total += static_cast<double>(r.packets.size());
  }
  return total > 0.0 ? hits / total : 0.0;
}

double intra_arm(HighwayConfig cfg, const Fidelity& fidelity, bool attacked, bool mitigated) {
  scenario::apply_fidelity(cfg, fidelity);
  cfg.attack = attacked ? scenario::AttackKind::kIntraArea : scenario::AttackKind::kNone;
  cfg.mitigation = mitigated ? mitigation::Profile::kRhlDropCheck : mitigation::Profile::kNone;
  double hits = 0.0, total = 0.0;
  for (std::uint64_t run = 0; run < fidelity.runs; ++run) {
    cfg.seed = run + 1;
    const auto r = scenario::HighwayScenario{cfg}.run_intra_area();
    for (const auto& fl : r.floods) {
      hits += static_cast<double>(fl.reached);
      total += static_cast<double>(fl.total);
    }
  }
  return total > 0.0 ? hits / total : 0.0;
}

}  // namespace

int main() {
  const Fidelity fidelity = Fidelity::from_env(3);
  bench::banner("Figure 14", "mitigation effectiveness (DSRC)", fidelity);

  const phy::RangeTable ranges = phy::range_table(phy::AccessTechnology::kDsrc);

  std::printf("\nFig 14a — GF plausibility check (threshold %.0f m, extrapolating)\n",
              ranges.nlos_median_m);
  struct Setting {
    const char* label;
    double range_m;
  } settings[] = {
      {"wN attacker", ranges.nlos_worst_m},
      {"mN attacker", ranges.nlos_median_m},
      {"mL attacker", ranges.los_median_m},
  };
  for (const auto& s : settings) {
    HighwayConfig cfg;
    cfg.attack_range_m = s.range_m;
    const double plain = inter_arm(cfg, fidelity, /*attacked=*/true, /*mitigated=*/false);
    const double fixed = inter_arm(cfg, fidelity, /*attacked=*/true, /*mitigated=*/true);
    std::printf("  %-14s recv (attacked) = %5.3f -> %5.3f with check  (+%.1f pp)\n", s.label,
                plain, fixed, (fixed - plain) * 100.0);
  }
  {
    HighwayConfig cfg;
    cfg.attack_range_m = ranges.nlos_worst_m;  // geometry only; no attacker deployed
    const double plain = inter_arm(cfg, fidelity, /*attacked=*/false, /*mitigated=*/false);
    const double fixed = inter_arm(cfg, fidelity, /*attacked=*/false, /*mitigated=*/true);
    std::printf("  %-14s recv (no attack) = %5.3f -> %5.3f with check  (+%.1f pp)\n",
                "attacker-free", plain, fixed, (fixed - plain) * 100.0);
  }

  std::printf("\nFig 14b — CBF RHL-drop check (threshold 3)\n");
  struct IntraSetting {
    const char* label;
    double range_m;
  } intra_settings[] = {
      {"wN attacker", ranges.nlos_worst_m},
      {"mN attacker", ranges.nlos_median_m},
  };
  for (const auto& s : intra_settings) {
    HighwayConfig cfg;
    cfg.attack_range_m = s.range_m;
    const double af = intra_arm(cfg, fidelity, /*attacked=*/false, /*mitigated=*/false);
    const double plain = intra_arm(cfg, fidelity, /*attacked=*/true, /*mitigated=*/false);
    const double fixed = intra_arm(cfg, fidelity, /*attacked=*/true, /*mitigated=*/true);
    std::printf("  %-14s recv: af = %5.3f, attacked = %5.3f, attacked+check = %5.3f\n",
                s.label, af, plain, fixed);
  }

  std::printf("\npaper reference: 14a recovers +53.7%% / +61.6%% / +53.4%% (wN/mN/mL) and\n"
              "+39.9%% attacker-free (to 94.3%%); 14b realigns attacked reception with the\n"
              "attacker-free curves.\n");
  return 0;
}
