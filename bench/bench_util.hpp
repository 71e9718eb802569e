#pragma once

// Shared output helpers for the figure-reproduction harnesses. Every bench
// prints (1) a banner naming the paper artifact it regenerates, (2) the
// fidelity in use, and (3) rows/series shaped like the paper's plots.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "vgr/scenario/ab_runner.hpp"
#include "vgr/scenario/csv.hpp"
#include "vgr/sim/thread_pool.hpp"

namespace vgr::bench {

inline void banner(const char* artifact, const char* description,
                   const scenario::Fidelity& fidelity, double default_sim_seconds = 200.0) {
  std::printf("==========================================================================\n");
  std::printf("%s — %s\n", artifact, description);
  const double secs =
      fidelity.sim_seconds > 0.0 ? fidelity.sim_seconds : default_sim_seconds;
  const std::size_t threads =
      fidelity.threads > 0 ? fidelity.threads : sim::ThreadPool::default_thread_count();
  std::printf("fidelity: %llu run(s) x %.0f simulated seconds per arm, %zu thread(s) "
              "(override: VGR_RUNS / VGR_SIM_SECONDS / VGR_THREADS; paper: 100 x 200)\n",
              static_cast<unsigned long long>(fidelity.runs), secs, threads);
  std::printf("==========================================================================\n");
}

/// Prints a reception-rate timeline as one row per bin pair, paper style:
/// solid (attacker-free) vs dashed (attacked).
inline void print_ab_series(const scenario::AbResult& r) {
  std::printf("  %-10s %-12s %-12s\n", "t (s)", "recv af", "recv atk");
  const double width = r.baseline.bin_width().to_seconds();
  for (std::size_t i = 0; i < r.baseline.bin_count(); ++i) {
    if (!r.baseline.has_data(i) && !r.attacked.has_data(i)) continue;
    std::printf("  %-10.0f %-12.3f %-12.3f\n", (static_cast<double>(i) + 1.0) * width,
                r.baseline.rate(i), r.attacked.rate(i));
  }
}

/// One summary row of a sweep table.
inline void print_summary_row(const std::string& setting, const scenario::AbResult& r,
                              const char* rate_symbol) {
  std::printf("  %-28s recv_af=%6.3f  recv_atk=%6.3f  %s=%6.1f%%\n", setting.c_str(),
              r.baseline_reception, r.attacked_reception, rate_symbol, r.attack_rate * 100.0);
}

/// One column of an accumulated-rate figure (Figs 8 and 10): a row the
/// bench already ran, under the paper's "range_setting" label ('dflt' =
/// default settings).
struct CumulativeColumn {
  const char* label;
  scenario::AbResult result;
};

/// Prints the accumulated `rate` ("interception", "blockage") over time,
/// 1 - cum_recv_atk(t) / cum_recv_af(t) per bin and column, then each
/// column's final value.
inline void print_cumulative(const char* rate, const std::vector<CumulativeColumn>& columns) {
  const auto accumulated = [](const scenario::AbResult& r, std::size_t bin) {
    const double af = r.baseline.cumulative(bin);
    return af > 0.0 ? 1.0 - r.attacked.cumulative(bin) / af : 0.0;
  };
  std::printf("\ncumulative %s rate over time:\n  %-8s", rate, "t (s)");
  for (const auto& c : columns) std::printf(" %-9s", c.label);
  std::printf("\n");
  const std::size_t bins = columns.front().result.baseline.bin_count();
  const double width = columns.front().result.baseline.bin_width().to_seconds();
  for (std::size_t i = 0; i < bins; ++i) {
    std::printf("  %-8.0f", (static_cast<double>(i) + 1.0) * width);
    for (const auto& c : columns) {
      const double value = accumulated(c.result, i);
      std::printf(" %-9.3f", value < 0.0 ? 0.0 : value);
    }
    std::printf("\n");
  }
  std::printf("\nfinal accumulated %s rates:\n", rate);
  for (const auto& c : columns) {
    std::printf("  %-10s %.1f%%\n", c.label, accumulated(c.result, bins - 1) * 100.0);
  }
}

inline bool verbose() { return std::getenv("VGR_SERIES") != nullptr; }

/// Writes the A/B reception timelines to `$VGR_CSV_DIR/<name>.csv` when CSV
/// export is enabled (no-op otherwise).
inline void maybe_export(const std::string& name, const scenario::AbResult& r) {
  const char* dir = std::getenv("VGR_CSV_DIR");
  if (dir == nullptr || *dir == '\0') return;
  scenario::CsvWriter::write_timelines(dir, name, {"attacker_free", "attacked"},
                                       {&r.baseline, &r.attacked});
}

}  // namespace vgr::bench
