#pragma once

#include <string>
#include <vector>

#include "vgr/scenario/ab_runner.hpp"
#include "vgr/sweep/supervisor.hpp"

namespace vgr::sweep {

/// Which points of the resilience study to run. Defaults reproduce
/// bench_resilience exactly; the vgr_sweep CLI narrows them for smoke runs.
struct ResilienceSelection {
  std::vector<double> loss{0.0, 0.05, 0.1, 0.2, 0.4};    ///< drop probability
  std::vector<double> churn{0.0, 0.1, 0.25, 0.5};        ///< crashes per second
  std::vector<double> flood{0.0, 1000.0, 2500.0, 4000.0, 4500.0};  ///< Hz
};

/// The resilience study (bench_resilience's body): channel-loss, churn and
/// congestion sweeps over the inter-area experiment, every A/B pair routed
/// through `supervisor`. With the supervisor disabled this is exactly the
/// historical bench; enabled, each seed of every point is journaled as its
/// own shard, so a killed study resumes where it stopped and a drained one
/// after the point in flight. Prints the usual sweep
/// tables, writes the JSON artifact (results sections first, `"supervisor"`
/// health block last) to `json_path`, and returns a process exit code.
int run_resilience_sweep(Supervisor& supervisor, scenario::Fidelity fidelity,
                         const ResilienceSelection& selection,
                         const std::string& json_path);

}  // namespace vgr::sweep
