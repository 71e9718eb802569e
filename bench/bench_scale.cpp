// bench_scale — scaling harness for the two perf axes of the reproduction:
//
//  1. Medium scaling: one highway run per vehicle density, spatial index on
//     vs off, to show the O(N^2) -> O(N*k) crossover of per-frame delivery
//     cost as the road fills up.
//  2. Harness scaling: the same paired A/B experiment executed with the
//     serial path (VGR_THREADS=1) and with the work-stealing pool, proving
//     the merged results are bit-identical and reporting the wall-clock
//     speedup.
//
// Defaults are sized to finish in a couple of minutes (VGR_RUNS=8, 10
// simulated seconds); raise VGR_SIM_SECONDS / VGR_RUNS for a full-fidelity
// measurement. Writes BENCH_scale.json (override with VGR_BENCH_JSON).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "vgr/sim/thread_pool.hpp"

namespace {

using namespace vgr;

double wall_seconds(const std::function<void()>& fn) {
  // vgr-lint: begin wall-clock-ok (this benchmark measures wall time; the
  // timed simulation itself stays on the virtual clock)
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
  // vgr-lint: end
}

struct SweepRow {
  double spacing_m;
  std::size_t vehicles;
  std::uint64_t frames;
  double scan_s;
  double grid_s;
  std::uint64_t rebuilds;
};

struct HarnessRow {
  std::size_t threads;
  double wall_s;
  double attack_rate;
  bool oversubscribed;
};

}  // namespace

int main() {
  const scenario::Fidelity fidelity = scenario::Fidelity::from_env(/*default_runs=*/8);
  const double sweep_seconds = fidelity.sim_seconds > 0.0 ? fidelity.sim_seconds : 10.0;

  vgr::bench::banner("bench_scale", "spatial-index crossover + parallel harness speedup",
                     fidelity, /*default_sim_seconds=*/10.0);

  // --- Part 1: per-frame medium cost vs vehicle density -------------------
  // The intra-area CBF flood is the broadcast-storm workload: every packet
  // fans out over the whole segment, so medium cost dominates the run.
  std::printf("\n[1] Medium scaling (intra-area flood, %d s simulated, seed 1)\n",
              static_cast<int>(sweep_seconds));
  std::printf("  %-12s %-10s %-12s %-12s %-12s %-10s %-9s\n", "spacing (m)", "vehicles",
              "frames", "scan (s)", "grid (s)", "rebuilds", "speedup");

  std::vector<SweepRow> sweep;
  for (const double spacing : {60.0, 30.0, 15.0, 7.5}) {
    scenario::HighwayConfig cfg;
    cfg.prefill_spacing_m = spacing;
    cfg.entry_spacing_m = spacing;
    cfg.sim_duration = sim::Duration::seconds(sweep_seconds);
    cfg.seed = 1;
    cfg.attack = scenario::AttackKind::kNone;

    SweepRow row{};
    row.spacing_m = spacing;
    for (const bool index_on : {false, true}) {
      // Best of two reps: a scenario run is short enough that scheduler
      // noise on a busy host can otherwise invert a 10-20 % delta.
      double secs = 1e300;
      for (int rep = 0; rep < 2; ++rep) {
        scenario::HighwayConfig c = cfg;
        c.spatial_index = index_on;
        scenario::HighwayScenario scenario{c};
        secs = std::min(secs, wall_seconds([&] { (void)scenario.run_intra_area(); }));
        if (index_on) row.rebuilds = scenario.medium().index_rebuilds();
        row.vehicles = scenario.stations_created();
        row.frames = scenario.medium().frames_sent();
      }
      (index_on ? row.grid_s : row.scan_s) = secs;
    }
    std::printf("  %-12.1f %-10zu %-12llu %-12.3f %-12.3f %-10llu %6.2fx\n", row.spacing_m,
                row.vehicles, static_cast<unsigned long long>(row.frames), row.scan_s,
                row.grid_s, static_cast<unsigned long long>(row.rebuilds),
                row.scan_s / std::max(row.grid_s, 1e-9));
    sweep.push_back(row);
  }

  // --- Part 2: serial vs parallel experiment harness ----------------------
  // Fixed thread ladder rather than {1, hardware_concurrency()}: on a
  // single-core host the auto value collapses to 1 and the old A/B printed
  // two identical serial rows. The ladder also shows where oversubscription
  // stops paying on small machines.
  const std::size_t cores = sim::ThreadPool::hardware_threads();
  std::printf(
      "\n[2] Harness scaling (inter-area A/B, %llu runs x %d s, threads in {1,2,4,8}, "
      "%zu hardware core(s))\n",
      static_cast<unsigned long long>(fidelity.runs), static_cast<int>(sweep_seconds), cores);

  scenario::HighwayConfig ab_cfg;
  ab_cfg.attack = scenario::AttackKind::kInterArea;
  scenario::Fidelity f = fidelity;
  if (f.sim_seconds <= 0.0) f.sim_seconds = sweep_seconds;

  std::vector<HarnessRow> harness;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                    std::size_t{8}}) {
    scenario::Fidelity ft = f;
    ft.threads = threads;
    std::optional<scenario::AbResult> result;
    const double secs =
        wall_seconds([&] { result.emplace(scenario::run_inter_area_ab(ab_cfg, ft)); });
    const bool oversub = threads > cores;
    harness.push_back({threads, secs, result->attack_rate, oversub});
    std::printf("  threads=%-3zu wall=%7.2f s  gamma=%8.5f%s%s\n", threads, secs,
                result->attack_rate * 100.0, threads == 1 ? "  (reference)" : "",
                oversub ? "  [oversubscribed: threads > cores]" : "");
    if (threads != 1 && harness.front().attack_rate != result->attack_rate) {
      std::printf("  ERROR: parallel gamma differs from serial — determinism broken\n");
      return 1;
    }
  }
  const auto best = std::min_element(
      harness.begin() + 1, harness.end(),
      [](const HarnessRow& a, const HarnessRow& b) { return a.wall_s < b.wall_s; });
  std::printf("  best speedup: %.2fx on %zu threads (bit-identical results)\n",
              harness.front().wall_s / std::max(best->wall_s, 1e-9), best->threads);

  // --- JSON trajectory ----------------------------------------------------
  const char* out = std::getenv("VGR_BENCH_JSON");
  const std::string path = out != nullptr ? out : "BENCH_scale.json";
  std::FILE* fjson = std::fopen(path.c_str(), "w");
  if (fjson == nullptr) {
    std::fprintf(stderr, "bench_scale: cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(fjson, "{\n  \"medium_sweep\": [\n");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepRow& r = sweep[i];
    std::fprintf(fjson,
                 "    {\"spacing_m\": %.1f, \"vehicles\": %zu, \"frames\": %llu, "
                 "\"scan_s\": %.4f, \"grid_s\": %.4f, \"index_rebuilds\": %llu}%s\n",
                 r.spacing_m, r.vehicles, static_cast<unsigned long long>(r.frames), r.scan_s,
                 r.grid_s, static_cast<unsigned long long>(r.rebuilds),
                 i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(fjson, "  ],\n  \"hardware_concurrency\": %zu,\n  \"harness\": [\n", cores);
  for (std::size_t i = 0; i < harness.size(); ++i) {
    const HarnessRow& r = harness[i];
    std::fprintf(fjson,
                 "    {\"threads\": %zu, \"wall_s\": %.3f, \"attack_rate\": %.17g, "
                 "\"oversubscribed\": %s}%s\n",
                 r.threads, r.wall_s, r.attack_rate, r.oversubscribed ? "true" : "false",
                 i + 1 < harness.size() ? "," : "");
  }
  std::fprintf(fjson, "  ]\n}\n");
  std::fclose(fjson);
  std::printf("\nwrote %s\n", path.c_str());
  return 0;
}
