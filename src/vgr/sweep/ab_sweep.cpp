#include "vgr/sweep/ab_sweep.hpp"

#include <cstdio>
#include <vector>

#include "vgr/sim/env.hpp"
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

}  // namespace

std::string shard_key(const std::string& label, Experiment experiment,
                      const Fidelity& fidelity, std::uint64_t seed) {
  char params[160];
  std::snprintf(params, sizeof params, "exp=%d;sim=%.17g;events=%llu;wall=%.17g",
                experiment == Experiment::kInterArea ? 0 : 1, fidelity.sim_seconds,
                static_cast<unsigned long long>(fidelity.run_max_events),
                fidelity.run_wall_budget_s);
  std::string hashed = label + "|" + params;
  // Raw text: a value run_arms rejects costs a re-run, never a stale result.
  HighwayConfig knobs;
  scenario::for_each_knob([&hashed](const char* name, auto&, const sim::Range&) {
    if (const auto text = sim::knob_text(name)) hashed += std::string{";"} + name + "=" + *text;
  }, knobs);
  char suffix[64];
  std::snprintf(suffix, sizeof suffix, "#s%llu@%016llx", static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(fnv1a64(hashed)));
  return label + suffix;
}

AbResult run_ab_supervised(Supervisor& supervisor, Experiment experiment,
                           const std::string& label, const HighwayConfig& config,
                           const Fidelity& fidelity) {
  if (!supervisor.enabled()) return scenario::run_ab(experiment, config, fidelity);

  std::vector<ShardSpec> shards;
  for (std::uint64_t seed = fidelity.first_run + 1; seed <= fidelity.first_run + fidelity.runs;
       ++seed) {
    shards.push_back({shard_key(label, experiment, fidelity, seed), seed});
  }
  const auto run = [&](const std::vector<ShardSpec>& batch) {  // their whole window
    Fidelity f = fidelity;
    f.first_run = batch.front().seed - 1;
    f.runs = batch.back().seed - f.first_run;
    const std::vector<AbResult> seeds = scenario::run_ab_seeds(experiment, config, f);
    std::vector<ShardOutcome> outcomes;
    for (const ShardSpec& shard : batch) {
      const AbResult& r = seeds[shard.seed - 1 - f.first_run];
      outcomes.push_back(ShardOutcome{encode_ab(r), r.timed_out_events, r.timed_out_wall});
    }
    return outcomes;
  };

  std::vector<std::string> payloads;
  for (auto& payload : supervisor.run_point(shards, run)) {
    if (payload.has_value()) payloads.push_back(std::move(*payload));
  }
  if (auto merged = merge_ab_payloads(payloads); merged.has_value()) return std::move(*merged);
  // No payload, or one that decodes badly and is as good as missing: an
  // all-zero result with the point's bin geometry.
  if (!payloads.empty()) {
    std::fprintf(stderr, "[sweep] point %s: undecodable journal payload, dropping\n",
                 label.c_str());
  }
  const sim::Duration horizon = fidelity.horizon(config);
  return AbResult{sim::BinnedRate{scenario::kBinWidth, horizon},
                  sim::BinnedRate{scenario::kBinWidth, horizon}};
}

}  // namespace vgr::sweep
