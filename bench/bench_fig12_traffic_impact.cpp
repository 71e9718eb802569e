// Reproduces paper Figure 12: number of vehicles on the road over time when
// a hazard blocks both eastbound lanes at 3,600 m (t = 5 s) and the hazard
// notification toward the entrance is (a) Greedy-Forwarded and suppressed by
// the inter-area interception attack, (b) CBF-flooded and suppressed by the
// intra-area blockage attack.

#include <cstdio>

#include "vgr/scenario/ab_runner.hpp"
#include "vgr/scenario/hazard.hpp"

using namespace vgr;
using scenario::Fidelity;
using scenario::HazardConfig;
using scenario::HazardResult;
using scenario::HazardScenario;

namespace {

void run_case(HazardConfig::Case mode, const char* title, const Fidelity& fidelity) {
  HazardConfig cfg;
  cfg.mode = mode;
  // Case 1 needs a longer horizon in this substrate: the GF notification
  // only starts getting through once the eastbound column reaches the
  // reporter's neighbourhood and outweighs the stale oncoming-vehicle
  // entries (see EXPERIMENTS.md; the paper observed ~60 s, we observe
  // ~150-190 s).
  const double default_secs = mode == HazardConfig::Case::kGreedyForwarding ? 300.0 : 200.0;
  cfg.sim_duration =
      sim::Duration::seconds(fidelity.sim_seconds > 0.0 ? fidelity.sim_seconds : default_secs);

  cfg.attacked = false;
  const HazardResult af = HazardScenario{cfg}.run();
  cfg.attacked = true;
  const HazardResult atk = HazardScenario{cfg}.run();

  std::printf("\n%s\n", title);
  std::printf("  entrance notified: af=%s (t=%.0f s), atk=%s%s\n",
              af.entrance_notified ? "yes" : "no", af.notified_at_s,
              atk.entrance_notified ? "yes" : "no",
              atk.entrance_notified
                  ? (" (t=" + std::to_string(atk.notified_at_s) + " s)").c_str()
                  : "");
  std::printf("  %-8s %-10s %-10s\n", "t (s)", "af", "atk");
  for (std::size_t i = 0; i < af.vehicles_over_time.size(); i += 10) {
    const double atk_n =
        i < atk.vehicles_over_time.size() ? atk.vehicles_over_time[i].second : 0.0;
    std::printf("  %-8.0f %-10.0f %-10.0f\n", af.vehicles_over_time[i].first,
                af.vehicles_over_time[i].second, atk_n);
  }
  std::printf("  final on-road count: af=%.0f, atk=%.0f (+%.0f vehicles jammed)\n",
              af.final_vehicle_count, atk.final_vehicle_count,
              atk.final_vehicle_count - af.final_vehicle_count);
}

}  // namespace

int main() {
  std::printf("==========================================================================\n");
  std::printf("Figure 12 — traffic-efficiency impact of both attacks (hazard @3,600 m)\n");
  std::printf("==========================================================================\n");

  // Only the simulated seconds apply: each case is one attacker-free and
  // one attacked run.
  const Fidelity fidelity = Fidelity::from_env();
  run_case(HazardConfig::Case::kGreedyForwarding,
           "Fig 12a — case 1: GF notification vs inter-area interception (mN attacker)",
           fidelity);
  run_case(HazardConfig::Case::kCbfFlood,
           "Fig 12b — case 2: CBF notification vs intra-area blockage (500 m attacker)",
           fidelity);

  std::printf("\npaper reference: af curves plateau once the entrance learns of the hazard\n"
              "(~65 s for GF across two-direction traffic, immediately for CBF); attacked\n"
              "curves keep climbing (195 / 201 vehicles at 200 s vs 140 / 125).\n");
  return 0;
}
