#include "vgr/sweep/ab_sweep.hpp"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "vgr/sweep/ab_codec.hpp"

namespace vgr::sweep {
namespace {

using scenario::AbResult;
using scenario::Fidelity;
using scenario::HighwayConfig;

std::uint64_t fnv1a64(std::string_view data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// All-zero result with the point's bin geometry, for fully-missing points.
AbResult empty_point(const HighwayConfig& config, const Fidelity& fidelity) {
  const sim::Duration horizon = fidelity.horizon(config);
  return AbResult{sim::BinnedRate{scenario::kBinWidth, horizon},
                  sim::BinnedRate{scenario::kBinWidth, horizon}};
}

}  // namespace

std::string shard_key(const std::string& label, Experiment experiment,
                      const Fidelity& fidelity, std::uint64_t first_run,
                      std::uint64_t runs) {
  char params[160];
  std::snprintf(params, sizeof params, "exp=%d;runs=%llu;sim=%.17g;events=%llu;wall=%.17g",
                experiment == Experiment::kInterArea ? 0 : 1,
                static_cast<unsigned long long>(fidelity.runs), fidelity.sim_seconds,
                static_cast<unsigned long long>(fidelity.run_max_events),
                fidelity.run_wall_budget_s);
  char suffix[96];
  std::snprintf(suffix, sizeof suffix, "#s%llu+%llu@%016llx",
                static_cast<unsigned long long>(first_run),
                static_cast<unsigned long long>(runs),
                static_cast<unsigned long long>(fnv1a64(label + "|" + params)));
  return label + suffix;
}

AbResult run_ab_supervised(Supervisor& supervisor, Experiment experiment,
                           const std::string& label, const HighwayConfig& config,
                           const Fidelity& fidelity) {
  if (!supervisor.enabled()) return scenario::run_ab(experiment, config, fidelity);

  const std::uint64_t total_runs = fidelity.runs;
  std::uint64_t chunk = supervisor.config().seed_chunk;
  if (chunk == 0 || chunk > total_runs) chunk = total_runs;

  std::vector<std::string> payloads;
  for (std::uint64_t first = 0; first < total_runs; first += chunk) {
    const std::uint64_t shard_runs = std::min(chunk, total_runs - first);
    ShardSpec spec;
    spec.first_run = fidelity.first_run + first;
    spec.runs = shard_runs;
    spec.key = shard_key(label, experiment, fidelity, spec.first_run, shard_runs);

    auto payload = supervisor.run_shard(
        spec, [&](const ShardSpec& s, const ShardEffort& effort) {
          Fidelity f = fidelity;
          f.first_run = s.first_run;
          f.runs = effort.runs;
          const AbResult r = scenario::run_ab(experiment, config, f);
          ShardOutcome outcome;
          outcome.payload = encode_ab(r);
          outcome.timed_out_events = r.timed_out_events;
          outcome.timed_out_wall = r.timed_out_wall;
          return outcome;
        });
    if (payload.has_value()) payloads.push_back(std::move(*payload));
  }

  if (payloads.empty()) return empty_point(config, fidelity);
  if (auto merged = merge_ab_payloads(payloads); merged.has_value()) return std::move(*merged);
  // A payload that decodes badly is as good as missing; keep the zeros.
  std::fprintf(stderr, "[sweep] point %s: undecodable journal payload, dropping\n",
               label.c_str());
  return empty_point(config, fidelity);
}

}  // namespace vgr::sweep
