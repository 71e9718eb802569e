// Shared declarations of the repository benchmark binary (vgr_perfbench).
//
// The binary runs one workload per process: it times whole A/B units
// through the public scenario API, records each unit's simulated outputs
// for the exact-match check done by run.py, and — in traced mode — replays
// one arm's layer inputs through the lower layers' public functions
// (replay.cpp). Everything it prints is one JSON object on stdout.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "vgr/scenario/highway.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User plus system CPU seconds of this process (all threads).
[[nodiscard]] double process_cpu_seconds();
/// ru_maxrss of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Ordered key -> value text, printed as a JSON object. Values are stored
/// already formatted so doubles keep all 17 significant digits.
using Outputs = std::map<std::string, std::string>;
[[nodiscard]] std::string fmt_double(double v);
[[nodiscard]] std::string fmt_u64(std::uint64_t v);
[[nodiscard]] std::string json_object(const Outputs& o);

/// One arm of a serial workload unit: a full highway run.
struct ArmSpec {
  std::string name;
  vgr::scenario::HighwayConfig config;
  bool intra{false};
};

/// Counts read from a finished scenario (public introspection only).
struct ArmCounts {
  std::uint64_t frames{0};
  std::uint64_t deliveries{0};
  std::uint64_t index_rebuilds{0};
  std::uint64_t replays{0};
  bool timed_out{false};
};

/// Result of running one arm through HighwayScenario.
struct ArmRun {
  double construct_s{0.0};
  double run_s{0.0};
  ArmCounts counts{};
  vgr::sim::BinnedRate binned{vgr::sim::Duration::seconds(5.0), vgr::sim::Duration::seconds(5.0)};
  double reception{0.0};
};

/// Runs `arm` once with `seed`. With `spans`, construction and the run
/// call are timed separately (left at 0 otherwise).
[[nodiscard]] ArmRun run_arm(const ArmSpec& arm, std::uint64_t seed, bool spans);

/// Timing and output of one workload unit (one A/B set at one seed).
struct UnitResult {
  std::uint64_t seed{0};
  double wall_s{0.0};
  double cpu_s{0.0};
  double sim_s{0.0};  ///< simulated seconds summed over every arm-run
  std::vector<double> construct_s;  ///< spans: HighwayScenario constructions
  std::vector<double> run_s;        ///< spans: run_* calls (arms, or A/B rows)
  Outputs outputs;
};

/// A workload: its name, thread count, and how one unit runs.
class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::size_t threads() const { return 1; }
  /// One unit at `seed`; fills timing and outputs, and with `spans` the
  /// per-call construction and run spans.
  [[nodiscard]] virtual UnitResult run_unit(std::uint64_t seed, bool spans) = 0;
  /// One set-up sample: the construction the unit pays before it runs.
  [[nodiscard]] virtual double setup_sample() = 0;
  /// Arms simulated per unit, and how many of them are distinct simulations
  /// (full config and seed repeat no earlier arm), from the settings table.
  [[nodiscard]] virtual std::pair<std::size_t, std::size_t> arm_census(std::uint64_t seed) const = 0;
  /// The arm the traced run replays, with the seed its unit uses.
  [[nodiscard]] virtual ArmSpec replay_arm() const = 0;
  [[nodiscard]] virtual std::uint64_t replay_arm_seed(std::uint64_t unit_seed) const {
    return unit_seed;
  }
};

/// Builds the named workload (nullptr for an unknown name). `threads` > 0
/// overrides the workload's thread count (fig9_sweep only).
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::size_t threads);

/// Per-layer numbers of the traced replay, name -> value.
using LayerMetrics = std::map<std::string, double>;

/// Records `arm` at `seed` through a tapped copy of the highway world and
/// replays its layer inputs through the lower layers' public functions.
/// `real` are the counts of the real run of the same arm and seed.
[[nodiscard]] LayerMetrics replay_layers(const ArmSpec& arm, std::uint64_t seed,
                                         const ArmCounts& real);

}  // namespace perfbench
