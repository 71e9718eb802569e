#pragma once

#include <cstdint>
#include <string>

#include "vgr/scenario/ab_runner.hpp"
#include "vgr/sweep/supervisor.hpp"

namespace vgr::sweep {

/// Which paired experiment a sweep point runs.
using Experiment = scenario::Experiment;

/// Stable journal key for one seed-range shard of a labelled sweep point.
/// The label carries the human-readable point identity ("loss-0.050-plain");
/// the suffix pins the seed range and an fnv1a-64 fingerprint of the
/// execution parameters, so a journal written under one fidelity cannot be
/// silently replayed into a sweep running under another.
std::string shard_key(const std::string& label, Experiment experiment,
                      const scenario::Fidelity& fidelity, std::uint64_t first_run,
                      std::uint64_t runs);

/// Runs one sweep point, supervised. With the supervisor disabled this is
/// exactly run_inter_area_ab / run_intra_area_ab — no journal, no codec,
/// byte-identical output. Enabled, the point's seed range is cut into
/// `seed_chunk`-sized shards (0 = one shard), each shard goes through the
/// supervisor's journal/retry/degrade ladder, and the shard payloads are
/// merged back into one AbResult. Shards that produce no payload
/// (quarantined, now or in the journal, or skipped by a drain) are left
/// out of the merge and show in the supervisor's counters; when none
/// produces one the result is an all-zero timeline.
scenario::AbResult run_ab_supervised(Supervisor& supervisor, Experiment experiment,
                                     const std::string& label,
                                     const scenario::HighwayConfig& config,
                                     const scenario::Fidelity& fidelity);

}  // namespace vgr::sweep
