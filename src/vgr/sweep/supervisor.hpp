#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "vgr/sim/env.hpp"
#include "vgr/sweep/journal.hpp"

namespace vgr::sweep {

/// One unit of supervised work: a sweep point restricted to a seed range.
/// Runs execute with seeds `first_run+1 .. first_run+runs` (the ab_runner
/// contract), so chunking a point by seed range and merging the shard
/// results reproduces the monolithic run bit for bit.
struct ShardSpec {
  std::string key;  ///< stable identity, also the journal lookup key
  std::uint64_t first_run{0};
  std::uint64_t runs{1};
};

/// Execution budget the supervisor hands to a shard attempt. The degraded
/// rung halves `runs` (min 1) so a shard that cannot finish at full
/// fidelity can still contribute a flagged partial result. The per-run
/// watchdog budgets are the shard function's own (`Fidelity`'s
/// VGR_RUN_MAX_EVENTS / VGR_RUN_TIMEOUT_S): every rung runs under them.
struct ShardEffort {
  std::uint64_t runs{1};
  bool degraded{false};
};

/// What one shard attempt produced. `payload` is an opaque JSON value the
/// supervisor journals verbatim; the timeout counters drive the ladder
/// (an attempt is clean only when no run tripped a watchdog and no
/// exception escaped the shard function).
struct ShardOutcome {
  std::string payload;
  std::uint64_t timed_out_events{0};
  std::uint64_t timed_out_wall{0};
  bool error{false};

  [[nodiscard]] bool clean() const {
    return !error && timed_out_events == 0 && timed_out_wall == 0;
  }
};

/// Supervisor knobs, all environment-overridable (for_each_knob below;
/// docs/robustness.md has the table).
struct SupervisorConfig {
  bool enabled{false};                        ///< run the supervised path
  std::string journal_path{"sweep.journal"};
  bool resume{false};                         ///< journaled shards are not re-run
  std::uint64_t max_retries{2};               ///< full-fidelity retries per shard
  double backoff_ms{50.0};                    ///< base retry backoff, doubled per retry
  std::uint64_t seed_chunk{0};                ///< seeds per shard (0 = one per point)
  /// Crash-test hook: raise(SIGKILL) after this many journal appends
  /// (< 0 = disabled).
  long long fault_after_appends{-1};

  /// The defaults above, then the knobs below from the environment.
  static SupervisorConfig from_env();

  friend bool operator==(const SupervisorConfig&, const SupervisorConfig&) = default;
};

/// Calls `fn(name, field, range)` once per supervisor knob (sim/env.hpp).
template <typename Fn>
constexpr void for_each_knob(Fn&& fn, SupervisorConfig& c) {
  fn("VGR_SWEEP", c.enabled, sim::kFlag);
  fn("VGR_SWEEP_JOURNAL", c.journal_path, sim::Range{});
  fn("VGR_SWEEP_RESUME", c.resume, sim::kFlag);
  fn("VGR_SWEEP_RETRIES", c.max_retries, sim::kNonNegative);
  fn("VGR_SWEEP_BACKOFF_MS", c.backoff_ms, sim::kNonNegative);
  fn("VGR_SWEEP_SEED_CHUNK", c.seed_chunk, sim::kNonNegative);
  fn("VGR_SWEEP_FAULT_AFTER", c.fault_after_appends, sim::Range{});
}

/// Sweep-level health counters, reported in the bench JSON `supervisor`
/// block so a study's output says how it was obtained, not just what.
struct SweepCounters {
  std::uint64_t shards{0};      ///< shards presented to run_shard
  std::uint64_t completed{0};   ///< shards that produced a payload
  std::uint64_t resumed{0};     ///< shards satisfied from the journal
  std::uint64_t retries{0};     ///< extra full-fidelity attempts spent
  std::uint64_t degraded{0};    ///< shards that fell to the degraded rung
  std::uint64_t quarantined_events{0};
  std::uint64_t quarantined_wall{0};
  std::uint64_t quarantined_error{0};
  std::uint64_t drained{0};     ///< shards skipped by SIGINT/SIGTERM drain
  std::uint64_t timed_out_events{0};  ///< arm watchdog trips, all attempts
  std::uint64_t timed_out_wall{0};

  [[nodiscard]] std::uint64_t quarantined() const {
    return quarantined_events + quarantined_wall + quarantined_error;
  }

  friend bool operator==(const SweepCounters&, const SweepCounters&) = default;
};

/// Crash-resilient sweep executor: journals every finished shard (fsync'd,
/// checksummed), resumes by journal lookup, retries failing shards with
/// exponential backoff, degrades fidelity when retries are exhausted, and
/// quarantines shards that fail even degraded — all while SIGINT/SIGTERM
/// request a graceful drain instead of killing the study mid-shard.
///
/// With `config.enabled == false` the supervisor opens no journal and
/// installs no signal handlers; callers then run unsupervised and never
/// reach run_shard (run_ab_supervised is exactly run_ab), so its counters
/// stay zero.
class Supervisor {
 public:
  using ShardFn = std::function<ShardOutcome(const ShardSpec&, const ShardEffort&)>;

  explicit Supervisor(SupervisorConfig config);
  ~Supervisor();
  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;
  Supervisor(Supervisor&&) = delete;
  Supervisor& operator=(Supervisor&&) = delete;

  /// False when the journal could not be opened (supervised mode only).
  [[nodiscard]] bool ok() const { return !config_.enabled || journal_.has_value(); }
  [[nodiscard]] bool enabled() const { return config_.enabled; }
  [[nodiscard]] const SupervisorConfig& config() const { return config_; }
  [[nodiscard]] const SweepCounters& counters() const { return counters_; }
  [[nodiscard]] const Journal* journal() const {
    return journal_.has_value() ? &*journal_ : nullptr;
  }
  /// True once SIGINT/SIGTERM asked for a drain (or a test forced one).
  [[nodiscard]] static bool drain_requested();
  /// Test hook: behave as if SIGINT had arrived.
  static void request_drain();
  /// Test hook: clear the process-wide drain flag (a real process never
  /// un-drains; tests need the flag back down between cases).
  static void reset_drain();

  /// Runs one shard through the ladder. Returns the payload JSON text;
  /// nullopt when the shard was quarantined (now or in the journal) or
  /// skipped because a drain was requested.
  std::optional<std::string> run_shard(const ShardSpec& spec, const ShardFn& fn);

  /// Flushes the resumable manifest (`<journal>.manifest`). Called by the
  /// destructor too; explicit calls let benches write it before reporting.
  void finish();

 private:
  std::optional<std::string> resume_from(const JournalRecord& rec);
  void record(const ShardSpec& spec, const ShardOutcome& outcome,
              const ShardEffort& effort, std::uint64_t attempts, const char* cause);
  void maybe_fault();
  void write_manifest() const;

  SupervisorConfig config_;
  std::optional<Journal> journal_;
  SweepCounters counters_;
  std::uint64_t appends_{0};
  bool signals_installed_{false};
  void (*old_sigint_)(int){nullptr};
  void (*old_sigterm_)(int){nullptr};
};

}  // namespace vgr::sweep
