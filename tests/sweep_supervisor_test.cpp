#include "vgr/sweep/supervisor.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "vgr/sweep/ab_codec.hpp"
#include "vgr/sweep/ab_sweep.hpp"

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

ShardSpec spec_named(const std::string& key, std::uint64_t runs = 2) {
  ShardSpec s;
  s.key = key;
  s.runs = runs;
  return s;
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
  Supervisor sup{SupervisorConfig{}};  // enabled = false
  ASSERT_TRUE(sup.ok());
  int calls = 0;
  auto payload = sup.run_shard(spec_named("s"), [&](const ShardSpec&, const ShardEffort& e) {
    ++calls;
    EXPECT_FALSE(e.degraded);
    ShardOutcome o;
    o.payload = "{\"v\":1}";
    o.timed_out_events = 2;  // dirty — but transparent mode never retries
    return o;
  });
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "{\"v\":1}");
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(sup.counters().completed, 1u);
  EXPECT_EQ(sup.counters().retries, 0u);
  EXPECT_EQ(sup.counters().timed_out_events, 2u);
}

TEST(Supervisor, CleanShardJournalsOnFirstAttempt) {
  const std::string journal = temp_journal("clean");
  cleanup(journal);
  {
    Supervisor sup{test_config(journal)};
    ASSERT_TRUE(sup.ok());
    auto payload = sup.run_shard(spec_named("shard-a"), [](const ShardSpec&, const ShardEffort&) {
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

TEST(Supervisor, LadderRetriesDegradesThenQuarantines) {
  const std::string journal = temp_journal("ladder");
  cleanup(journal);
  {
    Supervisor sup{test_config(journal)};
    ASSERT_TRUE(sup.ok());
    int calls = 0;
    bool saw_degraded = false;
    auto payload =
        sup.run_shard(spec_named("poisoned", /*runs=*/4),
                      [&](const ShardSpec&, const ShardEffort& e) {
                        ++calls;
                        if (e.degraded) {
                          saw_degraded = true;
                          EXPECT_EQ(e.runs, 2u);  // halved
                        } else {
                          EXPECT_EQ(e.runs, 4u);
                        }
                        ShardOutcome o;
                        o.timed_out_events = 1;  // events-budget trip, every time
                        return o;
                      });
    EXPECT_FALSE(payload.has_value());
    // 1 initial + 2 retries (default) + 1 degraded.
    EXPECT_EQ(calls, 4);
    EXPECT_TRUE(saw_degraded);
    EXPECT_EQ(sup.counters().retries, 2u);
    EXPECT_EQ(sup.counters().degraded, 1u);
    EXPECT_EQ(sup.counters().quarantined_events, 1u);
    EXPECT_EQ(sup.counters().completed, 0u);
    EXPECT_EQ(sup.counters().timed_out_events, 4u);
  }
  const auto records = Journal::scan(journal);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].status, "quarantined");
  EXPECT_EQ(records[0].cause, "events");
  EXPECT_EQ(records[0].attempts, 4u);
  EXPECT_EQ(records[0].payload, "null");
  cleanup(journal);
}

TEST(Supervisor, DegradedRungCanRescueAShard) {
  const std::string journal = temp_journal("rescue");
  cleanup(journal);
  Supervisor sup{test_config(journal)};
  ASSERT_TRUE(sup.ok());
  auto payload = sup.run_shard(spec_named("wobbly"), [](const ShardSpec&, const ShardEffort& e) {
    ShardOutcome o;
    if (e.degraded) {
      o.payload = "{\"rescued\":true}";
    } else {
      o.timed_out_wall = 1;
    }
    return o;
  });
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "{\"rescued\":true}");
  EXPECT_EQ(sup.counters().degraded, 1u);
  EXPECT_EQ(sup.counters().completed, 1u);
  EXPECT_EQ(sup.counters().quarantined(), 0u);
  const JournalRecord* rec = sup.journal()->find("wobbly");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->status, "done");
  EXPECT_EQ(rec->fidelity, "degraded");
  EXPECT_EQ(rec->cause, "wall");  // what drove the degradation
  cleanup(journal);
}

TEST(Supervisor, ThrowingShardIsQuarantinedAsError) {
  const std::string journal = temp_journal("throws");
  cleanup(journal);
  Supervisor sup{test_config(journal)};
  ASSERT_TRUE(sup.ok());
  auto payload = sup.run_shard(spec_named("buggy"), [](const ShardSpec&, const ShardEffort&)
                                   -> ShardOutcome {
    throw std::runtime_error{"boom"};
  });
  EXPECT_FALSE(payload.has_value());
  EXPECT_EQ(sup.counters().quarantined_error, 1u);
  cleanup(journal);
}

TEST(Supervisor, ResumeReturnsJournaledPayloadWithoutRerunning) {
  const std::string journal = temp_journal("resume");
  cleanup(journal);
  {
    Supervisor sup{test_config(journal)};
    ASSERT_TRUE(sup.ok());
    sup.run_shard(spec_named("done-shard"), [](const ShardSpec&, const ShardEffort&) {
      ShardOutcome o;
      o.payload = "{\"v\":7}";
      return o;
    });
    sup.run_shard(spec_named("dead-shard"), [](const ShardSpec&, const ShardEffort&) {
      ShardOutcome o;
      o.timed_out_events = 1;
      return o;
    });
  }
  SupervisorConfig config = test_config(journal);
  config.resume = true;
  Supervisor sup{config};
  ASSERT_TRUE(sup.ok());
  auto must_not_run = [](const ShardSpec&, const ShardEffort&) -> ShardOutcome {
    ADD_FAILURE() << "journaled shard re-executed";
    return {};
  };
  auto payload = sup.run_shard(spec_named("done-shard"), must_not_run);
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "{\"v\":7}");
  // Quarantine is sticky on resume: the shard is not retried, so resumed
  // output does not depend on how many times the sweep crashed.
  EXPECT_FALSE(sup.run_shard(spec_named("dead-shard"), must_not_run).has_value());
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
    sup.run_shard(spec_named("s"), [](const ShardSpec&, const ShardEffort&) {
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
  {
    Supervisor sup{test_config(journal)};
    ASSERT_TRUE(sup.ok());
    Supervisor::request_drain();
    int calls = 0;
    auto payload = sup.run_shard(spec_named("skipped"), [&](const ShardSpec&, const ShardEffort&) {
      ++calls;
      return ShardOutcome{};
    });
    EXPECT_FALSE(payload.has_value());
    EXPECT_EQ(calls, 0);
    EXPECT_EQ(sup.counters().drained, 1u);
    Supervisor::reset_drain();
  }
  EXPECT_TRUE(Journal::scan(journal).empty());  // nothing recorded: resume re-runs it
  cleanup(journal);
}

TEST(Supervisor, ManifestRecordsTheCounters) {
  const std::string journal = temp_journal("manifest");
  cleanup(journal);
  {
    Supervisor sup{test_config(journal)};
    ASSERT_TRUE(sup.ok());
    sup.run_shard(spec_named("s"), [](const ShardSpec&, const ShardEffort&) {
      ShardOutcome o;
      o.payload = "null";
      return o;
    });
    sup.finish();
  }
  std::ifstream in{journal + ".manifest"};
  std::string manifest{std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
  EXPECT_NE(manifest.find("\"status\":\"complete\""), std::string::npos);
  EXPECT_NE(manifest.find("\"completed\":1"), std::string::npos);
  cleanup(journal);
}

// --- The A/B sweep layer on real experiments ------------------------------

bool ab_equal(const AbResult& a, const AbResult& b) {
  if (a.baseline.bin_count() != b.baseline.bin_count()) return false;
  for (std::size_t i = 0; i < a.baseline.bin_count(); ++i) {
    if (a.baseline.bin_hits(i) != b.baseline.bin_hits(i)) return false;
    if (a.baseline.bin_trials(i) != b.baseline.bin_trials(i)) return false;
    if (a.attacked.bin_hits(i) != b.attacked.bin_hits(i)) return false;
    if (a.attacked.bin_trials(i) != b.attacked.bin_trials(i)) return false;
  }
  return a.attack_rate == b.attack_rate && a.baseline_reception == b.baseline_reception &&
         a.attacked_reception == b.attacked_reception && a.runs == b.runs &&
         a.timed_out_runs == b.timed_out_runs && a.timed_out_events == b.timed_out_events &&
         a.timed_out_wall == b.timed_out_wall &&
         a.baseline_totals.ingest_drops == b.baseline_totals.ingest_drops &&
         a.attacked_totals.peak_cbr == b.attacked_totals.peak_cbr;
}

TEST(AbCodec, EncodeDecodeIsExact) {
  HighwayConfig cfg;
  cfg.attack = scenario::AttackKind::kInterArea;
  const AbResult r = scenario::run_inter_area_ab(cfg, small_fidelity());
  const auto decoded = decode_ab(encode_ab(r));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(ab_equal(r, *decoded));
  EXPECT_EQ(decoded->reception_base_hits, r.reception_base_hits);
  EXPECT_EQ(decoded->reception_base_trials, r.reception_base_trials);
  EXPECT_FALSE(decode_ab("{\"bin_ns\":0}").has_value());
  EXPECT_FALSE(decode_ab("not json").has_value());
}

TEST(AbSweep, SupervisedSingleChunkMatchesDirectRunExactly) {
  const std::string journal = temp_journal("onechunk");
  cleanup(journal);
  HighwayConfig cfg;
  cfg.attack = scenario::AttackKind::kInterArea;
  const Fidelity f = small_fidelity();
  const AbResult direct = scenario::run_inter_area_ab(cfg, f);

  // The single shard covers the direct call's seed window, so without a
  // cleared arm memo it would be served from the direct call's arms.
  scenario::clear_arm_reuse();
  Supervisor sup{test_config(journal)};
  ASSERT_TRUE(sup.ok());
  const SupervisedAb supervised =
      run_ab_supervised(sup, Experiment::kInterArea, "pt", cfg, f);
  EXPECT_EQ(scenario::arm_reuse_counts().simulated, 2 * f.runs);
  EXPECT_EQ(scenario::arm_reuse_counts().reused, 0u);
  EXPECT_TRUE(supervised.complete());
  EXPECT_EQ(supervised.shards, 1u);
  EXPECT_TRUE(ab_equal(direct, supervised.result));
  cleanup(journal);
}

TEST(AbSweep, SeedChunkedShardsMergeToTheMonolithicResult) {
  const std::string journal = temp_journal("chunked");
  cleanup(journal);
  HighwayConfig cfg;
  cfg.attack = scenario::AttackKind::kInterArea;
  const Fidelity f = small_fidelity(/*runs=*/4);
  const AbResult direct = scenario::run_inter_area_ab(cfg, f);

  SupervisorConfig config = test_config(journal);
  config.seed_chunk = 1;  // one seed per shard
  Supervisor sup{config};
  ASSERT_TRUE(sup.ok());
  const SupervisedAb supervised =
      run_ab_supervised(sup, Experiment::kInterArea, "pt", cfg, f);
  EXPECT_EQ(supervised.shards, 4u);
  EXPECT_TRUE(supervised.complete());
  // Bin accumulators are sums of per-run integer counts, so the chunked
  // merge is exact, not merely close.
  EXPECT_TRUE(ab_equal(direct, supervised.result));
  cleanup(journal);
}

TEST(AbSweep, PoisonedPointIsQuarantinedWhileOthersComplete) {
  const std::string journal = temp_journal("poison");
  cleanup(journal);
  SupervisorConfig config = test_config(journal);
  config.max_retries = 1;
  config.run_max_events = 50;  // unsatisfiable: every run trips the breaker
  Supervisor sup{config};
  ASSERT_TRUE(sup.ok());

  HighwayConfig cfg;
  cfg.attack = scenario::AttackKind::kInterArea;
  const Fidelity f = small_fidelity(/*runs=*/2);
  const SupervisedAb poisoned =
      run_ab_supervised(sup, Experiment::kInterArea, "poisoned-pt", cfg, f);
  EXPECT_FALSE(poisoned.complete());
  EXPECT_EQ(sup.counters().quarantined_events, 1u);
  EXPECT_GT(sup.counters().timed_out_events, 0u);

  // A second supervisor call on the same sweep continues past the poison.
  SupervisorConfig healthy = test_config(journal);
  healthy.resume = true;
  Supervisor sup2{healthy};
  ASSERT_TRUE(sup2.ok());
  const SupervisedAb good =
      run_ab_supervised(sup2, Experiment::kInterArea, "good-pt", cfg, f);
  EXPECT_TRUE(good.complete());
  EXPECT_GT(good.result.baseline_reception, 0.0);
  const auto records = Journal::scan(journal);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].status, "quarantined");
  EXPECT_EQ(records[1].status, "done");
  cleanup(journal);
}

TEST(AbSweep, ShardKeyPinsLabelSeedsAndFidelity) {
  const Fidelity f = small_fidelity();
  const std::string a = shard_key("pt", Experiment::kInterArea, f, 0, 4);
  EXPECT_EQ(a, shard_key("pt", Experiment::kInterArea, f, 0, 4));  // stable
  EXPECT_NE(a, shard_key("pt", Experiment::kInterArea, f, 4, 4));  // seed range
  EXPECT_NE(a, shard_key("pt2", Experiment::kInterArea, f, 0, 4)); // label
  EXPECT_NE(a, shard_key("pt", Experiment::kIntraArea, f, 0, 4));  // experiment
  Fidelity g = f;
  g.sim_seconds = 4.0;
  EXPECT_NE(a, shard_key("pt", Experiment::kInterArea, g, 0, 4));  // fidelity
}

}  // namespace
}  // namespace vgr::sweep
