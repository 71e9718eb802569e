#pragma once

#include <cstdint>
#include <string>

#include "vgr/scenario/ab_runner.hpp"
#include "vgr/sweep/supervisor.hpp"

namespace vgr::sweep {

/// Which paired experiment a sweep point runs.
using Experiment = scenario::Experiment;

/// Stable journal key for one seed of a labelled sweep point
/// ("loss-0.050-plain#s3@<hash>"). The fnv1a-64 hash covers the label, the
/// experiment, the fidelity's horizon and watchdog budgets and the text of
/// every run-config knob (highway.hpp's for_each_knob) the environment sets,
/// so a journal is never replayed into a sweep under another fidelity or
/// knob setting; the run count is left out, so a resume at a larger
/// VGR_RUNS finds every seed it already has.
std::string shard_key(const std::string& label, Experiment experiment,
                      const scenario::Fidelity& fidelity, std::uint64_t seed);

/// Runs one sweep point, supervised. With the supervisor disabled this is
/// exactly run_inter_area_ab / run_intra_area_ab — no journal, no codec,
/// byte-identical output. Enabled, each seed of the point is one shard: the
/// seeds the journal lacks run as one run_ab_seeds call over their window,
/// whose result for each seed is that shard's first attempt in the
/// supervisor's journal/retry/quarantine ladder (a retry is a one-seed
/// run_ab_seeds call), and the shard payloads are merged back into one
/// AbResult in seed order. Shards that produce no payload (quarantined, now
/// or in the journal, or skipped by a drain) are left out of the merge and
/// show in the supervisor's counters; when none produces one the result is
/// an all-zero timeline.
scenario::AbResult run_ab_supervised(Supervisor& supervisor, Experiment experiment,
                                     const std::string& label,
                                     const scenario::HighwayConfig& config,
                                     const scenario::Fidelity& fidelity);

}  // namespace vgr::sweep
