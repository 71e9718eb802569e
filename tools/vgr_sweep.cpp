// vgr_sweep — CLI front end for the crash-resilient sweep supervisor
// (docs/robustness.md, "Sweep supervisor").
//
//   vgr_sweep run    [--journal PATH] [--out PATH] [--loss L] [--churn L] [--flood L]
//   vgr_sweep resume [same options]
//   vgr_sweep status [--journal PATH]
//
// `run` executes the resilience study under the supervisor with a fresh
// journal (it refuses a journal that already holds records), one shard per
// seed of every point; `resume` continues a killed or drained study,
// re-using every journaled seed and executing only the missing ones;
// `status` decodes the journal read-only and summarizes progress. Point
// lists are comma-separated values, or "none" to skip an axis (defaults
// reproduce bench_resilience); a value outside its axis's range exits 2
// before anything runs. Fidelity comes from the usual VGR_RUNS /
// VGR_SIM_SECONDS / VGR_THREADS knobs and supervision from VGR_SWEEP_*
// (the CLI forces VGR_SWEEP on).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "vgr/sweep/resilience_sweep.hpp"

namespace {

using namespace vgr;

/// Largest accepted --flood rate. The flood tick is Duration::seconds(1 /
/// rate), which reaches 0 ns above 1e9 Hz and stops simulated time; the
/// flooder already saturates the channel below 5 kHz, so 20x that is room
/// enough for any study.
constexpr double kMaxFloodHz = 1e5;

int usage() {
  std::fprintf(stderr,
               "usage: vgr_sweep <run|resume|status> [--journal PATH] [--out PATH]\n"
               "                 [--loss v,v,...|none] [--churn v,v,...|none]\n"
               "                 [--flood v,v,...|none]\n"
               "  loss in [0, 1], churn >= 0 (crashes/s), flood in [0, %.0f] (Hz)\n",
               kMaxFloodHz);
  return 2;
}

/// Parses "0,0.05,0.4" (or "none" -> empty); false on malformed input or a
/// value that is not finite or lies outside [lo, hi].
bool parse_levels(const char* arg, double lo, double hi, std::vector<double>& out) {
  out.clear();
  if (std::strcmp(arg, "none") == 0) return true;
  const char* p = arg;
  while (*p != '\0') {
    char* end = nullptr;
    const double v = std::strtod(p, &end);
    if (end == p || !std::isfinite(v) || v < lo || v > hi) return false;
    out.push_back(v);
    p = end;
    if (*p == ',') ++p;
    else if (*p != '\0') return false;
  }
  return !out.empty();
}

int status(const std::string& journal_path) {
  std::size_t torn = 0;
  const std::vector<sweep::JournalRecord> records = sweep::Journal::scan(journal_path, &torn);
  std::size_t quarantined = 0;
  for (const sweep::JournalRecord& rec : records) {
    if (rec.status == "quarantined") ++quarantined;
  }
  std::printf("journal: %s\n", journal_path.c_str());
  std::printf("records: %zu done, %zu quarantined\n", records.size() - quarantined,
              quarantined);
  if (torn > 0) {
    std::printf("torn tail: %zu byte(s) — a resume will truncate them\n", torn);
  }
  for (const sweep::JournalRecord& rec : records) {
    std::printf("  %-12s attempts=%llu cause=%-6s %s\n", rec.status.c_str(),
                static_cast<unsigned long long>(rec.attempts), rec.cause.c_str(),
                rec.shard.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  if (mode != "run" && mode != "resume" && mode != "status") return usage();

  sweep::SupervisorConfig config = sweep::SupervisorConfig::from_env();
  config.enabled = true;
  config.resume = mode == "resume";
  std::string out_path = "BENCH_resilience.json";
  if (const char* env = std::getenv("VGR_BENCH_JSON"); env != nullptr && *env != '\0') {
    out_path = env;
  }
  sweep::ResilienceSelection selection;

  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    if (flag == "--journal") {
      config.journal_path = value;
    } else if (flag == "--out") {
      out_path = value;
    } else if (flag == "--loss") {  // drop probability
      if (!parse_levels(value, 0.0, 1.0, selection.loss)) return usage();
    } else if (flag == "--churn") {  // crashes per second
      if (!parse_levels(value, 0.0, HUGE_VAL, selection.churn)) return usage();
    } else if (flag == "--flood") {
      if (!parse_levels(value, 0.0, kMaxFloodHz, selection.flood)) return usage();
    } else {
      return usage();
    }
  }

  if (mode == "status") return status(config.journal_path);

  scenario::Fidelity fidelity = scenario::Fidelity::from_env(/*default_runs=*/4);
  if (fidelity.sim_seconds <= 0.0) fidelity.sim_seconds = 20.0;

  sweep::Supervisor supervisor{config};
  if (!supervisor.ok()) return 1;
  return sweep::run_resilience_sweep(supervisor, fidelity, selection, out_path);
}
