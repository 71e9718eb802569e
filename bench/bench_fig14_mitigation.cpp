// Reproduces paper Figure 14: effectiveness of the standard-compatible
// mitigations — (a) the GF plausibility check (threshold = DSRC NLoS
// median) against the inter-area interception attack at three attack
// ranges, including the attacker-free bonus the paper highlights; (b) the
// CBF RHL-drop check (threshold 3) against the intra-area blockage attack.

#include <cstdio>
#include <vector>

#include "bench_util.hpp"

using namespace vgr;
using mitigation::Profile;
using scenario::AttackKind;
using scenario::Experiment;

namespace {

scenario::Arm arm(Experiment experiment, double range_m, AttackKind attack, Profile profile) {
  scenario::HighwayConfig cfg;
  cfg.attack_range_m = range_m;  // geometry only when no attacker is deployed
  cfg.attack = attack;
  cfg.mitigation = profile;
  return {experiment, cfg};
}

}  // namespace

int main() {
  const scenario::Fidelity fidelity = scenario::Fidelity::from_env(3);
  bench::banner("Figure 14", "mitigation effectiveness (DSRC)", fidelity);

  const phy::RangeTable ranges = phy::range_table(phy::AccessTechnology::kDsrc);
  struct Setting {
    const char* label;
    double range_m;
  };
  const Setting inter_settings[] = {
      {"wN attacker", ranges.nlos_worst_m},
      {"mN attacker", ranges.nlos_median_m},
      {"mL attacker", ranges.los_median_m},
  };
  const Setting intra_settings[] = {
      {"wN attacker", ranges.nlos_worst_m},
      {"mN attacker", ranges.nlos_median_m},
  };

  // Every arm of the figure, in the order the rows print them: per 14a
  // setting the attacked arm without and with the check, then the
  // attacker-free pair at wN geometry, then per 14b setting the
  // attacker-free, attacked and attacked+check arms.
  std::vector<scenario::Arm> arms;
  for (const Setting& s : inter_settings) {
    for (const Profile p : {Profile::kNone, Profile::kPlausibilityCheck}) {
      arms.push_back(arm(Experiment::kInterArea, s.range_m, AttackKind::kInterArea, p));
    }
  }
  for (const Profile p : {Profile::kNone, Profile::kPlausibilityCheck}) {
    arms.push_back(arm(Experiment::kInterArea, ranges.nlos_worst_m, AttackKind::kNone, p));
  }
  for (const Setting& s : intra_settings) {
    arms.push_back(arm(Experiment::kIntraArea, s.range_m, AttackKind::kNone, Profile::kNone));
    arms.push_back(arm(Experiment::kIntraArea, s.range_m, AttackKind::kIntraArea, Profile::kNone));
    arms.push_back(
        arm(Experiment::kIntraArea, s.range_m, AttackKind::kIntraArea, Profile::kRhlDropCheck));
  }
  const std::vector<scenario::ArmRuns> runs = scenario::run_arms(arms, fidelity);
  std::size_t next = 0;
  const auto reception = [&runs, &next] { return runs[next++].reception(); };

  std::printf("\nFig 14a — GF plausibility check (threshold %.0f m, extrapolating)\n",
              ranges.nlos_median_m);
  for (const Setting& s : inter_settings) {
    const double plain = reception();
    const double fixed = reception();
    std::printf("  %-14s recv (attacked) = %5.3f -> %5.3f with check  (+%.1f pp)\n", s.label,
                plain, fixed, (fixed - plain) * 100.0);
  }
  {
    const double plain = reception();
    const double fixed = reception();
    std::printf("  %-14s recv (no attack) = %5.3f -> %5.3f with check  (+%.1f pp)\n",
                "attacker-free", plain, fixed, (fixed - plain) * 100.0);
  }

  std::printf("\nFig 14b — CBF RHL-drop check (threshold 3)\n");
  for (const Setting& s : intra_settings) {
    const double af = reception();
    const double plain = reception();
    const double fixed = reception();
    std::printf("  %-14s recv: af = %5.3f, attacked = %5.3f, attacked+check = %5.3f\n",
                s.label, af, plain, fixed);
  }

  std::printf("\npaper reference: 14a recovers +53.7%% / +61.6%% / +53.4%% (wN/mN/mL) and\n"
              "+39.9%% attacker-free (to 94.3%%); 14b realigns attacked reception with the\n"
              "attacker-free curves.\n");
  return 0;
}
