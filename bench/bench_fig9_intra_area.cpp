// Reproduces paper Figure 9: effectiveness of the intra-area blockage
// attack — (a) DSRC / (b) C-V2X attack-range sweeps including the paper's
// 500 m optimum, (c) LocTE TTL sweep (no effect expected), (d) density
// sweep, (e) road directions — plus the source-location split (fully
// covered area vs elsewhere) reported in §IV-A, then Figure 10: the
// accumulated blockage rate over time of seven of those DSRC rows, read
// from their merged bins.

#include <cstdio>
#include <vector>

#include "bench_util.hpp"

using namespace vgr;
using scenario::AbResult;
using scenario::Fidelity;
using scenario::HighwayConfig;

namespace {

/// Runs and prints one attack-range subfigure; returns its rows in order.
std::vector<AbResult> range_sweep(phy::AccessTechnology tech, const char* name,
                                  const Fidelity& fidelity) {
  const phy::RangeTable ranges = phy::range_table(tech);
  struct Setting {
    const char* label;
    const char* key;
    double range_m;
  } settings[] = {
      {"wN (worst NLoS)", "wN", ranges.nlos_worst_m},
      {"mN (median NLoS)", "mN", ranges.nlos_median_m},
      {"500 m (optimum)", "500", 500.0},
      {"mL (median LoS)", "mL", ranges.los_median_m},
  };
  std::printf("\nFig 9%s — %s, attack range sweep\n", name, phy::name(tech));
  std::vector<AbResult> rows;
  for (const auto& s : settings) {
    HighwayConfig cfg;
    cfg.tech = tech;
    cfg.attack_range_m = s.range_m;
    const AbResult r = run_intra_area_ab(cfg, fidelity);
    bench::print_summary_row(s.label, r, "lambda");
    bench::maybe_export(std::string{"fig9"} + name + "_" + s.key, r);
    if (bench::verbose()) bench::print_ab_series(r);
    rows.push_back(r);
  }
  return rows;
}

}  // namespace

int main() {
  const Fidelity fidelity = Fidelity::from_env(3);
  bench::banner("Figure 9", "intra-area blockage attack effectiveness", fidelity);

  const std::vector<AbResult> dsrc = range_sweep(phy::AccessTechnology::kDsrc, "a", fidelity);
  range_sweep(phy::AccessTechnology::kCv2x, "b", fidelity);
  std::vector<bench::CumulativeColumn> fig10{
      {"wN_dflt", dsrc[0]}, {"mN_dflt", dsrc[1]}, {"500_dflt", dsrc[2]}, {"mL_dflt", dsrc[3]}};

  std::printf("\nFig 9c — DSRC, mN attacker, LocTE TTL sweep (CBF should not care)\n");
  for (const double ttl : {20.0, 10.0, 5.0}) {
    HighwayConfig cfg;
    cfg.attack_range_m = phy::range_table(cfg.tech).nlos_median_m;
    cfg.locte_ttl = sim::Duration::seconds(ttl);
    const AbResult r = run_intra_area_ab(cfg, fidelity);
    bench::print_summary_row("TTL " + std::to_string(static_cast<int>(ttl)) + " s", r,
                             "lambda");
    if (ttl == 5.0) fig10.push_back({"mN_ttl5", r});
  }

  std::printf("\nFig 9d — DSRC, mN attacker, inter-vehicle space sweep\n");
  for (const double spacing : {30.0, 100.0, 300.0}) {
    HighwayConfig cfg;
    cfg.attack_range_m = phy::range_table(cfg.tech).nlos_median_m;
    cfg.entry_spacing_m = spacing;
    cfg.prefill_spacing_m = spacing;
    const AbResult r = run_intra_area_ab(cfg, fidelity);
    bench::print_summary_row("i = " + std::to_string(static_cast<int>(spacing)) + " m", r,
                             "lambda");
    if (spacing == 100.0) fig10.push_back({"mN_i100", r});
  }

  std::printf("\nFig 9e — DSRC, mN attacker, road directions\n");
  for (const bool two_way : {false, true}) {
    HighwayConfig cfg;
    cfg.attack_range_m = phy::range_table(cfg.tech).nlos_median_m;
    cfg.two_way = two_way;
    const AbResult r = run_intra_area_ab(cfg, fidelity);
    bench::print_summary_row(two_way ? "two directions" : "single direction", r, "lambda");
    if (two_way) fig10.push_back({"mN_2dir", r});
  }

  // Source-location split (paper: 62.8% blockage for sources inside the
  // fully covered area vs 37.2% outside; 500 m attacker vs 486 m DSRC).
  std::printf("\nSource-location split — DSRC, 500 m attacker (fully covered width 28 m)\n");
  {
    HighwayConfig split;
    split.attack_range_m = 500.0;
    HighwayConfig attacked = split;
    attacked.attack = scenario::AttackKind::kIntraArea;
    Fidelity extra = fidelity;
    extra.runs = fidelity.runs * 3;  // extra runs: 28 m is rare
    const std::vector<scenario::ArmRuns> runs = scenario::run_arms(
        {{scenario::Experiment::kIntraArea, split}, {scenario::Experiment::kIntraArea, attacked}},
        extra);
    // An arm's runs with only the floods whose source was (or was not) in
    // this row's fully covered area.
    const scenario::AttackGeometry geometry = split.attack_geometry();
    const auto sources = [&geometry](scenario::ArmRuns arm, bool inside) {
      for (scenario::IntraAreaResult& run : arm.intra) {
        std::erase_if(run.floods, [&](const scenario::IntraAreaFloodRecord& f) {
          return geometry.in_fully_covered(f.source_x) != inside;
        });
      }
      return arm;
    };
    for (const bool inside : {true, false}) {
      const scenario::ArmRuns af = sources(runs[0], inside);
      const double base = af.reception();
      const double atk = sources(runs[1], inside).reception();
      std::size_t floods = 0;
      for (const scenario::IntraAreaResult& run : af.intra) floods += run.floods.size();
      std::printf("  %-34s %zu floods, blockage = %.1f%%\n",
                  inside ? "sources inside fully covered area:" : "sources elsewhere:", floods,
                  base > 0.0 ? (1.0 - atk / base) * 100.0 : 0.0);
    }
  }

  std::printf("\npaper reference: lambda = 38.5%% (DSRC mN), 35.8%% (C-V2X mN); larger\n"
              "attack ranges *reduce* blockage (first-time receivers dominate); TTL and\n"
              "density have no effect; two directions ~38%%; source split 62.8%% / 37.2%%.\n");

  std::printf("\nFig 10 — accumulated intra-area blockage rate over time (DSRC)\n");
  bench::print_cumulative("blockage", fig10);
  std::printf("\npaper reference: curves cluster by attack coverage only (~38%% around the\n"
              "mN/500 m optimum); TTL and density variants overlap their defaults; mL sits\n"
              "lower than mN despite the larger range.\n");
  return 0;
}
