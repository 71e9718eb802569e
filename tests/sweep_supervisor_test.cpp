#include "vgr/sweep/supervisor.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstddef>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "vgr/sweep/ab_codec.hpp"
#include "vgr/sweep/ab_sweep.hpp"
#include "vgr/sweep/json.hpp"

namespace vgr::sweep {
namespace {

using scenario::AbResult;
using scenario::Fidelity;
using scenario::HighwayConfig;

std::string temp_journal(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string{"vgr_sup_"} + name + "_" + std::to_string(::getpid()) + ".journal"))
      .string();
}

SupervisorConfig test_config(const std::string& journal) {
  SupervisorConfig c;
  c.enabled = true;
  c.journal_path = journal;
  c.backoff_ms = 0.0;  // no sleeping in tests
  return c;
}

void cleanup(const std::string& journal) {
  std::filesystem::remove(journal);
  std::filesystem::remove(journal + ".manifest");
}

/// A point's run function that runs each of its shards through `fn`.
Supervisor::RunFn per_shard(std::function<ShardOutcome(const ShardSpec&)> fn) {
  return [fn = std::move(fn)](const std::vector<ShardSpec>& shards) {
    std::vector<ShardOutcome> outcomes;
    for (const ShardSpec& shard : shards) outcomes.push_back(fn(shard));
    return outcomes;
  };
}

/// One shard through the supervisor: a point of one seed, each attempt a
/// call of `fn`.
std::optional<std::string> run_shard(Supervisor& sup, const std::string& key,
                                     std::function<ShardOutcome(const ShardSpec&)> fn) {
  return sup.run_point({ShardSpec{key, 1}}, per_shard(std::move(fn))).front();
}

/// Tiny inter-area config: enough traffic to produce non-trivial bins
/// while keeping each A/B pair well under a second.
Fidelity small_fidelity(std::uint64_t runs = 3) {
  Fidelity f;
  f.runs = runs;
  f.sim_seconds = 2.0;
  f.threads = 1;
  return f;
}

TEST(Supervisor, DisabledModeRunsOnceAndKeepsDirtyResults) {
  // Off, the supervisor is not consulted: the point is one run_ab call whose
  // watchdog-tripped runs are kept as they are, with no retry or quarantine,
  // and no counter moves.
  HighwayConfig cfg;
  cfg.attack = scenario::AttackKind::kInterArea;
  Fidelity f = small_fidelity(/*runs=*/2);
  f.run_max_events = 50;  // every run trips the breaker
  const AbResult direct = scenario::run_ab(Experiment::kInterArea, cfg, f);
  ASSERT_EQ(direct.timed_out_runs, f.runs);

  scenario::clear_arm_reuse();
  Supervisor sup{SupervisorConfig{}};  // enabled = false
  ASSERT_TRUE(sup.ok());
  const AbResult off = run_ab_supervised(sup, Experiment::kInterArea, "pt", cfg, f);
  EXPECT_EQ(scenario::arm_reuse_counts().simulated, 2 * f.runs);
  EXPECT_EQ(off, direct);
  EXPECT_EQ(sup.counters(), SweepCounters{});
  EXPECT_EQ(sup.journal(), nullptr);
}

TEST(Supervisor, CleanShardJournalsOnFirstAttempt) {
  const std::string journal = temp_journal("clean");
  cleanup(journal);
  {
    Supervisor sup{test_config(journal)};
    ASSERT_TRUE(sup.ok());
    auto payload = run_shard(sup, "shard-a", [](const ShardSpec&) {
      ShardOutcome o;
      o.payload = "{\"v\":42}";
      return o;
    });
    ASSERT_TRUE(payload.has_value());
    EXPECT_EQ(sup.counters().completed, 1u);
  }
  const auto records = Journal::scan(journal);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].status, "done");
  EXPECT_EQ(records[0].fidelity, "full");
  EXPECT_EQ(records[0].attempts, 1u);
  EXPECT_EQ(records[0].cause, "none");
  EXPECT_EQ(records[0].payload, "{\"v\":42}");
  cleanup(journal);
}

TEST(Supervisor, LadderRetriesThenQuarantines) {
  const std::string journal = temp_journal("ladder");
  cleanup(journal);
  {
    Supervisor sup{test_config(journal)};
    ASSERT_TRUE(sup.ok());
    int calls = 0;
    auto payload = run_shard(sup, "poisoned", [&](const ShardSpec&) {
      ++calls;
      ShardOutcome o;
      o.timed_out_events = 1;  // events-budget trip, every time
      return o;
    });
    EXPECT_FALSE(payload.has_value());
    // 1 initial + 2 retries (default), then quarantine.
    EXPECT_EQ(calls, 3);
    EXPECT_EQ(sup.counters().retries, 2u);
    EXPECT_EQ(sup.counters().quarantined_events, 1u);
    EXPECT_EQ(sup.counters().completed, 0u);
    EXPECT_EQ(sup.counters().timed_out_events, 3u);
  }
  const auto records = Journal::scan(journal);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].status, "quarantined");
  EXPECT_EQ(records[0].fidelity, "full");
  EXPECT_EQ(records[0].cause, "events");
  EXPECT_EQ(records[0].attempts, 3u);
  EXPECT_EQ(records[0].payload, "null");
  cleanup(journal);
}

TEST(Supervisor, RetryCanRescueAShard) {
  const std::string journal = temp_journal("rescue");
  cleanup(journal);
  Supervisor sup{test_config(journal)};
  ASSERT_TRUE(sup.ok());
  int calls = 0;
  auto payload = run_shard(sup, "wobbly", [&calls](const ShardSpec&) {
    ShardOutcome o;
    if (++calls == 1) {
      o.timed_out_wall = 1;  // a loaded host: the retry fits the budget
    } else {
      o.payload = "{\"rescued\":true}";
    }
    return o;
  });
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "{\"rescued\":true}");
  EXPECT_EQ(sup.counters().retries, 1u);
  EXPECT_EQ(sup.counters().completed, 1u);
  EXPECT_EQ(sup.counters().quarantined(), 0u);
  EXPECT_EQ(sup.counters().timed_out_wall, 1u);
  const JournalRecord* rec = sup.journal()->find("wobbly");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->status, "done");
  EXPECT_EQ(rec->fidelity, "full");
  EXPECT_EQ(rec->attempts, 2u);
  cleanup(journal);
}

TEST(Supervisor, ThrowingShardIsQuarantinedAsError) {
  const std::string journal = temp_journal("throws");
  cleanup(journal);
  Supervisor sup{test_config(journal)};
  ASSERT_TRUE(sup.ok());
  auto payload = run_shard(sup, "buggy", [](const ShardSpec&) -> ShardOutcome {
    throw std::runtime_error{"boom"};
  });
  EXPECT_FALSE(payload.has_value());
  EXPECT_EQ(sup.counters().quarantined_error, 1u);

  // A throwing fan-out is reported and leaves each shard to its own attempt.
  std::vector<std::size_t> calls;
  const auto payloads = sup.run_point(
      {ShardSpec{"fanned-1", 1}, ShardSpec{"fanned-2", 2}},
      [&calls](const std::vector<ShardSpec>& shards) {
        calls.push_back(shards.size());
        if (shards.size() > 1) throw std::runtime_error{"fan-out boom"};
        ShardOutcome o;
        o.payload = std::to_string(shards.front().seed);
        return std::vector<ShardOutcome>{o};
      });
  EXPECT_EQ(calls, (std::vector<std::size_t>{2, 1, 1}));
  ASSERT_EQ(payloads.size(), 2u);
  EXPECT_EQ(payloads[0], "1");
  EXPECT_EQ(payloads[1], "2");
  EXPECT_EQ(sup.counters().completed, 2u);
  EXPECT_EQ(sup.counters().quarantined_error, 1u);
  // Only the buggy shard retried: each fanned shard's own call was its
  // first attempt.
  EXPECT_EQ(sup.counters().retries, 2u);
  cleanup(journal);
}

TEST(Supervisor, ResumeReturnsJournaledPayloadWithoutRerunning) {
  const std::string journal = temp_journal("resume");
  cleanup(journal);
  {
    Supervisor sup{test_config(journal)};
    ASSERT_TRUE(sup.ok());
    run_shard(sup, "done-shard", [](const ShardSpec&) {
      ShardOutcome o;
      o.payload = "{\"v\":7}";
      return o;
    });
    run_shard(sup, "dead-shard", [](const ShardSpec&) {
      ShardOutcome o;
      o.timed_out_events = 1;
      return o;
    });
  }
  SupervisorConfig config = test_config(journal);
  config.resume = true;
  Supervisor sup{config};
  ASSERT_TRUE(sup.ok());
  auto must_not_run = [](const ShardSpec&) -> ShardOutcome {
    ADD_FAILURE() << "journaled shard re-executed";
    return {};
  };
  auto payload = run_shard(sup, "done-shard", must_not_run);
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "{\"v\":7}");
  // Quarantine is sticky on resume: the shard is not retried, so resumed
  // output does not depend on how many times the sweep crashed.
  EXPECT_FALSE(run_shard(sup, "dead-shard", must_not_run).has_value());
  EXPECT_EQ(sup.counters().resumed, 2u);
  EXPECT_EQ(sup.counters().quarantined_events, 1u);
  cleanup(journal);
}

TEST(Supervisor, RefusesANonEmptyJournalWithoutResume) {
  const std::string journal = temp_journal("refuse");
  cleanup(journal);
  {
    Supervisor sup{test_config(journal)};
    ASSERT_TRUE(sup.ok());
    run_shard(sup, "s", [](const ShardSpec&) {
      ShardOutcome o;
      o.payload = "null";
      return o;
    });
  }
  Supervisor sup{test_config(journal)};  // resume not set
  EXPECT_FALSE(sup.ok());
  cleanup(journal);
}

TEST(Supervisor, DrainSkipsShardsWithoutJournaling) {
  const std::string journal = temp_journal("drain");
  cleanup(journal);
  const auto clean = [](const ShardSpec&) {
    ShardOutcome o;
    o.payload = "null";
    return o;
  };
  {
    Supervisor sup{test_config(journal)};
    ASSERT_TRUE(sup.ok());
    run_shard(sup, "kept", clean);

    // A drain before a point: its journaled shard resumes, the others
    // neither fan out nor run.
    Supervisor::request_drain();
    int calls = 0;
    const auto payloads = sup.run_point(
        {ShardSpec{"kept", 1}, ShardSpec{"skipped", 2}},
        per_shard([&calls](const ShardSpec&) {
          ++calls;
          return ShardOutcome{};
        }));
    EXPECT_EQ(payloads[0], "null");
    EXPECT_FALSE(payloads[1].has_value());
    EXPECT_EQ(calls, 0);
    EXPECT_EQ(sup.counters().drained, 1u);
    EXPECT_EQ(sup.counters().resumed, 1u);
    Supervisor::reset_drain();

    // A drain while a point is in flight: its shards' first attempts, the
    // fan-out's outcomes, are still journaled, and only a retry is skipped.
    int attempts = 0;
    const auto in_flight = sup.run_point(
        {ShardSpec{"clean", 1}, ShardSpec{"dirty", 2}},
        per_shard([&attempts](const ShardSpec& shard) {
          ++attempts;
          Supervisor::request_drain();
          ShardOutcome o;
          o.payload = "null";
          o.timed_out_wall = shard.seed == 2 ? 1 : 0;
          return o;
        }));
    EXPECT_TRUE(in_flight[0].has_value());
    EXPECT_FALSE(in_flight[1].has_value());
    EXPECT_EQ(attempts, 2);
    EXPECT_EQ(sup.counters().drained, 2u);
    EXPECT_EQ(sup.counters().retries, 0u);
    Supervisor::reset_drain();
  }
  // Nothing recorded for the skipped shards: a resume runs them.
  const auto records = Journal::scan(journal);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].shard, "kept");
  EXPECT_EQ(records[1].shard, "clean");
  cleanup(journal);
}

TEST(Supervisor, FanOutOutcomesAreTheFirstAttempts) {
  // One call over the missing shards is each one's first attempt: a clean
  // one is journaled as it is, a dirty one is retried by a call of its own.
  // A journaled shard is not run.
  const std::string journal = temp_journal("fanout");
  cleanup(journal);
  {
    Supervisor sup{test_config(journal)};
    ASSERT_TRUE(sup.ok());
    (void)run_shard(sup, "journaled", [](const ShardSpec&) {
      ShardOutcome o;
      o.payload = "0";
      return o;
    });
    std::vector<std::vector<std::uint64_t>> calls;
    const auto payloads = sup.run_point(
        {ShardSpec{"journaled", 0}, ShardSpec{"clean", 1}, ShardSpec{"dirty", 2}},
        [&calls](const std::vector<ShardSpec>& shards) {
          const bool first = calls.empty();
          std::vector<ShardOutcome> outcomes;
          calls.emplace_back();
          for (const ShardSpec& shard : shards) {
            calls.back().push_back(shard.seed);
            ShardOutcome o;
            o.payload = first ? "\"fanned\"" : "\"retried\"";
            o.timed_out_events = first && shard.seed == 2 ? 1 : 0;
            outcomes.push_back(o);
          }
          return outcomes;
        });
    EXPECT_EQ(calls, (std::vector<std::vector<std::uint64_t>>{{1, 2}, {2}}));
    ASSERT_EQ(payloads.size(), 3u);
    EXPECT_EQ(payloads[0], "0");
    EXPECT_EQ(payloads[1], "\"fanned\"");
    EXPECT_EQ(payloads[2], "\"retried\"");
    EXPECT_EQ(sup.counters().retries, 1u);
    EXPECT_EQ(sup.counters().timed_out_events, 1u);
  }
  const auto records = Journal::scan(journal);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[1].shard, "clean");
  EXPECT_EQ(records[1].attempts, 1u);
  EXPECT_EQ(records[2].shard, "dirty");
  EXPECT_EQ(records[2].attempts, 2u);
  cleanup(journal);
}

TEST(Supervisor, ManifestRecordsTheCounters) {
  const std::string journal = temp_journal("manifest");
  cleanup(journal);
  {
    Supervisor sup{test_config(journal)};
    ASSERT_TRUE(sup.ok());
    run_shard(sup, "s", [](const ShardSpec&) {
      ShardOutcome o;
      o.payload = "null";
      return o;
    });
    sup.finish();
  }
  std::ifstream in{journal + ".manifest"};
  std::string manifest{std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
  EXPECT_EQ(manifest, "{\"journal\":\"" + journal +
                          "\",\"status\":\"complete\",\"shards\":1,\"completed\":1,"
                          "\"resumed\":0,\"retries\":0,\"quarantined_events\":0,"
                          "\"quarantined_wall\":0,\"quarantined_error\":0,\"drained\":0,"
                          "\"timed_out_events\":0,\"timed_out_wall\":0}\n");
  cleanup(journal);
}

// --- The A/B sweep layer on real experiments ------------------------------

/// An AbResult in which every field holds a distinct non-zero value, so a
/// codec that dropped or swapped any two of them fails the round trip.
AbResult every_field_distinct() {
  AbResult r{sim::BinnedRate{scenario::kBinWidth, sim::Duration::seconds(20.0)},
             sim::BinnedRate{scenario::kBinWidth, sim::Duration::seconds(20.0)}};
  double next = 1.0 / 3.0;  // not exact in binary: exercises %.17g
  for (std::size_t i = 0; i < r.baseline.bin_count(); ++i) {
    r.baseline.set_bin(i, next, next + 1.0);
    r.attacked.set_bin(i, next + 2.0, next + 3.0);
    next += 4.0;
  }
  for (double* v : {&r.attack_rate, &r.baseline_reception, &r.attacked_reception,
                    &r.reception_base_hits, &r.reception_base_trials, &r.reception_atk_hits,
                    &r.reception_atk_trials}) {
    *v = (next += 1.0);
  }
  std::uint64_t count = 1000;
  for (std::uint64_t* v : {&r.runs, &r.timed_out_runs, &r.timed_out_events, &r.timed_out_wall}) {
    *v = ++count;
  }
  // Through the list the codec iterates, so a counter added later is filled
  // (and round-tripped) with no edit here.
  for (scenario::RunCounters* totals : {&r.baseline_totals, &r.attacked_totals}) {
    scenario::for_each_counter(
        [&](const char*, scenario::Merge, auto& field) {
          using Field = std::remove_reference_t<decltype(field)>;
          field = std::is_floating_point_v<Field> ? static_cast<Field>(next += 1.0)
                                                  : static_cast<Field>(++count);
        },
        *totals);
  }
  return r;
}

TEST(AbCodec, EncodeDecodeIsExact) {
  const AbResult r = every_field_distinct();
  const auto decoded = decode_ab(encode_ab(r));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, r);
  EXPECT_FALSE(decode_ab("{\"bin_ns\":0}").has_value());
  EXPECT_FALSE(decode_ab("not json").has_value());
}

/// Writes a parsed payload back out in encode_ab's compact form.
std::string to_json(const JsonValue& v) {
  std::string out;
  switch (v.kind) {
    case JsonValue::Kind::kNumber:
      return v.number;
    case JsonValue::Kind::kArray:
      out = "[";
      for (const JsonValue& e : v.array) out += (out.size() > 1 ? "," : "") + to_json(e);
      return out + "]";
    case JsonValue::Kind::kObject:
      out = "{";
      for (const auto& [key, member] : v.object) {
        out += (out.size() > 1 ? ",\"" : "\"") + key + "\":" + to_json(member);
      }
      return out + "}";
    default:
      ADD_FAILURE() << "encode_ab wrote a non-number leaf";
      return out;
  }
}

TEST(AbCodec, PayloadMissingAnyKeyIsRejected) {
  // A journal written by a build with fewer counters must not resume as
  // zeros: every key encode_ab writes, nested per-arm counters included, is
  // required.
  HighwayConfig cfg;
  cfg.attack = scenario::AttackKind::kInterArea;
  const std::optional<JsonValue> full =
      json_parse(encode_ab(scenario::run_inter_area_ab(cfg, small_fidelity(1))));
  ASSERT_TRUE(full.has_value());
  ASSERT_TRUE(decode_ab(to_json(*full)).has_value());
  std::size_t nested_keys = 0;
  for (std::size_t i = 0; i < full->object.size(); ++i) {
    JsonValue cut = *full;
    cut.object.erase(cut.object.begin() + static_cast<std::ptrdiff_t>(i));
    EXPECT_FALSE(decode_ab(to_json(cut)).has_value()) << full->object[i].first;
    for (std::size_t j = 0; j < full->object[i].second.object.size(); ++j) {
      JsonValue nested_cut = *full;
      auto& members = nested_cut.object[i].second.object;
      members.erase(members.begin() + static_cast<std::ptrdiff_t>(j));
      EXPECT_FALSE(decode_ab(to_json(nested_cut)).has_value())
          << full->object[i].first << "." << full->object[i].second.object[j].first;
      ++nested_keys;
    }
  }
  // The nested keys are both arms' counters, every listed one.
  EXPECT_EQ(nested_keys, 2 * scenario::kCounterCount);
}

void expect_counts(std::uint64_t simulated, std::uint64_t reused) {
  EXPECT_EQ(scenario::arm_reuse_counts().simulated, simulated);
  EXPECT_EQ(scenario::arm_reuse_counts().reused, reused);
}

TEST(AbSweep, SupervisedSingleChunkMatchesDirectRunExactly) {
  const std::string journal = temp_journal("onechunk");
  cleanup(journal);
  HighwayConfig cfg;
  cfg.attack = scenario::AttackKind::kInterArea;
  const Fidelity f = small_fidelity();
  const AbResult direct = scenario::run_inter_area_ab(cfg, f);

  // Without a cleared arm memo the point would be served from the direct
  // call's arms. Cleared, its one fan-out simulates each arm-run once, and
  // each seed's shard takes its result from that fan-out: nothing else runs.
  scenario::clear_arm_reuse();
  Supervisor sup{test_config(journal)};
  ASSERT_TRUE(sup.ok());
  const AbResult supervised = run_ab_supervised(sup, Experiment::kInterArea, "pt", cfg, f);
  expect_counts(2 * f.runs, 0);
  EXPECT_EQ(sup.counters().shards, f.runs);
  EXPECT_EQ(sup.counters().completed, f.runs);
  // Bin accumulators are sums of per-run integer counts, and the seeds
  // merge in order, so the merge is exact, not merely close.
  EXPECT_EQ(direct, supervised);
  cleanup(journal);
}

TEST(AbSweep, SeedChunkedShardsMergeToTheMonolithicResult) {
  // A resume at a larger run count finds the seeds it already has and
  // simulates only the new ones.
  const std::string journal = temp_journal("chunked");
  cleanup(journal);
  HighwayConfig cfg;
  cfg.attack = scenario::AttackKind::kInterArea;
  const Fidelity f = small_fidelity(/*runs=*/4);
  Fidelity half = f;
  half.runs = 2;
  {
    Supervisor sup{test_config(journal)};
    ASSERT_TRUE(sup.ok());
    (void)run_ab_supervised(sup, Experiment::kInterArea, "pt", cfg, half);
  }
  SupervisorConfig config = test_config(journal);
  config.resume = true;
  Supervisor sup{config};
  ASSERT_TRUE(sup.ok());
  scenario::clear_arm_reuse();
  const AbResult resumed = run_ab_supervised(sup, Experiment::kInterArea, "pt", cfg, f);
  expect_counts(2 * (f.runs - half.runs), 0);
  EXPECT_EQ(sup.counters().shards, 4u);
  EXPECT_EQ(sup.counters().resumed, 2u);
  EXPECT_EQ(sup.counters().completed, 4u);
  scenario::clear_arm_reuse();
  EXPECT_EQ(resumed, scenario::run_inter_area_ab(cfg, f));
  cleanup(journal);
}

TEST(AbSweep, PoisonedPointIsQuarantinedWhileOthersComplete) {
  const std::string journal = temp_journal("poison");
  cleanup(journal);
  SupervisorConfig config = test_config(journal);
  config.max_retries = 1;
  Supervisor sup{config};
  ASSERT_TRUE(sup.ok());

  HighwayConfig cfg;
  cfg.attack = scenario::AttackKind::kInterArea;
  const Fidelity f = small_fidelity(/*runs=*/2);
  Fidelity unsatisfiable = f;
  unsatisfiable.run_max_events = 50;  // every run trips the breaker
  const AbResult poisoned =
      run_ab_supervised(sup, Experiment::kInterArea, "poisoned-pt", cfg, unsatisfiable);
  EXPECT_EQ(poisoned.baseline_reception, 0.0);  // no shard: the all-zero point
  EXPECT_EQ(sup.counters().completed, 0u);
  EXPECT_EQ(sup.counters().quarantined_events, 2u);  // each seed
  EXPECT_GT(sup.counters().timed_out_events, 0u);

  // A second supervisor call on the same sweep continues past the poison.
  SupervisorConfig healthy = test_config(journal);
  healthy.resume = true;
  Supervisor sup2{healthy};
  ASSERT_TRUE(sup2.ok());
  const AbResult good = run_ab_supervised(sup2, Experiment::kInterArea, "good-pt", cfg, f);
  EXPECT_EQ(sup2.counters().completed, 2u);
  EXPECT_EQ(sup2.counters().quarantined(), 0u);
  EXPECT_GT(good.baseline_reception, 0.0);
  const auto records = Journal::scan(journal);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].status, "quarantined");
  EXPECT_EQ(records[1].status, "quarantined");
  EXPECT_EQ(records[2].status, "done");
  EXPECT_EQ(records[3].status, "done");
  cleanup(journal);
}

TEST(AbSweep, SeedThatTripsTheEventBudgetIsQuarantinedAlone) {
  // The fidelity's own event budget caps every attempt. Seed 1's arms
  // finish within it and one of seed 2's does not, so seed 2 is retried and
  // quarantined while the point merges seed 1. The memo keeps event trips,
  // so the retries simulate nothing.
  constexpr std::uint64_t kBudget = 12000;
  const std::string journal = temp_journal("tripped");
  cleanup(journal);
  HighwayConfig cfg;
  cfg.attack = scenario::AttackKind::kInterArea;
  Fidelity f = small_fidelity(/*runs=*/2);
  f.run_max_events = kBudget;
  Fidelity first_seed = f;
  first_seed.runs = 1;
  const AbResult one_seed = scenario::run_ab(Experiment::kInterArea, cfg, first_seed);
  ASSERT_EQ(one_seed.timed_out_runs, 0u) << "seed 1 must fit the budget";
  ASSERT_GT(scenario::run_ab(Experiment::kInterArea, cfg, f).timed_out_events, 0u)
      << "seed 2 must trip the budget";

  scenario::clear_arm_reuse();
  Supervisor sup{test_config(journal)};
  ASSERT_TRUE(sup.ok());
  const AbResult point = run_ab_supervised(sup, Experiment::kInterArea, "pt", cfg, f);
  EXPECT_EQ(point, one_seed);
  EXPECT_EQ(scenario::arm_reuse_counts().simulated, 2 * f.runs);
  EXPECT_EQ(sup.counters().completed, 1u);
  EXPECT_EQ(sup.counters().retries, 2u);
  EXPECT_EQ(sup.counters().quarantined_events, 1u);
  const auto records = Journal::scan(journal);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].status, "done");
  EXPECT_EQ(records[1].status, "quarantined");
  EXPECT_EQ(records[1].cause, "events");
  EXPECT_EQ(records[1].attempts, 3u);
  for (const JournalRecord& rec : records) EXPECT_EQ(rec.fidelity, "full");
  cleanup(journal);
}

TEST(AbSweep, WallTripsAreSimulatedOnceByTheFanOut) {
  // The memo never keeps a wall-clock trip. The fan-out's run of each seed
  // is its first attempt, so with no retries the point simulates each of
  // its 2 x runs arm-runs once, and quarantines every seed as `wall`.
  const std::string journal = temp_journal("wall");
  cleanup(journal);
  SupervisorConfig config = test_config(journal);
  config.max_retries = 0;
  HighwayConfig cfg;
  cfg.attack = scenario::AttackKind::kInterArea;
  Fidelity f = small_fidelity(/*runs=*/2);
  f.run_wall_budget_s = 1e-9;
  scenario::clear_arm_reuse();
  {
    Supervisor sup{config};
    ASSERT_TRUE(sup.ok());
    const AbResult point = run_ab_supervised(sup, Experiment::kInterArea, "pt", cfg, f);
    expect_counts(2 * f.runs, 0);
    EXPECT_EQ(point.runs, 0u);
    EXPECT_EQ(sup.counters().quarantined_wall, f.runs);
    EXPECT_EQ(sup.counters().completed, 0u);
    EXPECT_EQ(sup.counters().retries, 0u);
  }
  const auto records = Journal::scan(journal);
  ASSERT_EQ(records.size(), f.runs);
  for (const JournalRecord& rec : records) {
    EXPECT_EQ(rec.status, "quarantined");
    EXPECT_EQ(rec.cause, "wall");
    EXPECT_EQ(rec.attempts, 1u);
  }
  cleanup(journal);
}

TEST(AbSweep, DrainBeforeAPointSimulatesAndJournalsNothing) {
  const std::string journal = temp_journal("drained-pt");
  cleanup(journal);
  HighwayConfig cfg;
  cfg.attack = scenario::AttackKind::kInterArea;
  const Fidelity f = small_fidelity();
  {
    Supervisor sup{test_config(journal)};
    ASSERT_TRUE(sup.ok());
    scenario::clear_arm_reuse();
    Supervisor::request_drain();
    const AbResult skipped = run_ab_supervised(sup, Experiment::kInterArea, "pt", cfg, f);
    Supervisor::reset_drain();
    expect_counts(0, 0);
    EXPECT_EQ(sup.counters().shards, f.runs);
    EXPECT_EQ(sup.counters().drained, f.runs);
    EXPECT_EQ(skipped.runs, 0u);
  }
  EXPECT_TRUE(Journal::scan(journal).empty());
  cleanup(journal);
}

TEST(AbSweep, ResumeUnderAnotherRunKnobRerunsEverySeed) {
  // The shard key hashes the run-config knobs the environment sets, so a
  // journal written under one setting never serves a sweep under another.
  const std::string journal = temp_journal("knob");
  cleanup(journal);
  HighwayConfig cfg;
  cfg.attack = scenario::AttackKind::kInterArea;
  const Fidelity f = small_fidelity(/*runs=*/2);
  {
    Supervisor sup{test_config(journal)};
    ASSERT_TRUE(sup.ok());
    (void)run_ab_supervised(sup, Experiment::kInterArea, "pt", cfg, f);
  }
  SupervisorConfig config = test_config(journal);
  config.resume = true;

  ::setenv("VGR_FAULT_DROP", "0.5", 1);
  scenario::clear_arm_reuse();
  const AbResult fresh = scenario::run_inter_area_ab(cfg, f);
  scenario::clear_arm_reuse();
  {
    Supervisor sup{config};
    ASSERT_TRUE(sup.ok());
    const AbResult resumed = run_ab_supervised(sup, Experiment::kInterArea, "pt", cfg, f);
    EXPECT_EQ(sup.counters().resumed, 0u);
    EXPECT_EQ(sup.counters().completed, f.runs);
    EXPECT_EQ(resumed, fresh);
  }
  ::unsetenv("VGR_FAULT_DROP");

  // The knob as it was: every seed resumes, nothing is simulated.
  scenario::clear_arm_reuse();
  Supervisor sup{config};
  ASSERT_TRUE(sup.ok());
  (void)run_ab_supervised(sup, Experiment::kInterArea, "pt", cfg, f);
  EXPECT_EQ(sup.counters().resumed, f.runs);
  expect_counts(0, 0);
  cleanup(journal);
}

TEST(AbSweep, ShardKeyPinsLabelSeedsAndFidelity) {
  const Fidelity f = small_fidelity();
  const std::string a = shard_key("pt", Experiment::kInterArea, f, 1);
  EXPECT_EQ(a, shard_key("pt", Experiment::kInterArea, f, 1));  // stable
  EXPECT_NE(a, shard_key("pt", Experiment::kInterArea, f, 2));  // seed
  EXPECT_NE(a, shard_key("pt2", Experiment::kInterArea, f, 1)); // label
  EXPECT_NE(a, shard_key("pt", Experiment::kIntraArea, f, 1));  // experiment
  Fidelity g = f;
  g.sim_seconds = 4.0;
  EXPECT_NE(a, shard_key("pt", Experiment::kInterArea, g, 1));  // fidelity
  g = f;
  g.runs = f.runs + 1;
  EXPECT_EQ(a, shard_key("pt", Experiment::kInterArea, g, 1));  // not the run count
  ::setenv("VGR_MAC_QUEUE", "12x", 1);  // rejected by run_arms, still keyed
  EXPECT_NE(a, shard_key("pt", Experiment::kInterArea, f, 1));
  ::unsetenv("VGR_MAC_QUEUE");
}

}  // namespace
}  // namespace vgr::sweep
