#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "vgr/sim/env.hpp"
#include "vgr/sweep/journal.hpp"

namespace vgr::sweep {

/// One unit of supervised work: one seed of a sweep point.
struct ShardSpec {
  std::string key;  ///< stable identity, also the journal lookup key
  std::uint64_t seed{1};
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
  std::uint64_t max_retries{2};               ///< retries per shard
  double backoff_ms{50.0};                    ///< base retry backoff, doubled per retry
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
  fn("VGR_SWEEP_FAULT_AFTER", c.fault_after_appends, sim::Range{});
}

/// Sweep-level health counters, reported in the `.manifest` and the bench
/// JSON `supervisor` block so a study's output says how it was obtained,
/// not just what.
struct SweepCounters {
  std::uint64_t shards{0};      ///< shards presented to run_point
  std::uint64_t completed{0};   ///< shards that produced a payload
  std::uint64_t resumed{0};     ///< shards satisfied from the journal
  std::uint64_t retries{0};     ///< extra attempts spent
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

/// Calls `fn(name, value)` once per counter, in the order both reports print.
template <typename Fn>
constexpr void for_each_counter(Fn&& fn, const SweepCounters& c) {
  fn("shards", c.shards);
  fn("completed", c.completed);
  fn("resumed", c.resumed);
  fn("retries", c.retries);
  fn("quarantined_events", c.quarantined_events);
  fn("quarantined_wall", c.quarantined_wall);
  fn("quarantined_error", c.quarantined_error);
  fn("drained", c.drained);
  fn("timed_out_events", c.timed_out_events);
  fn("timed_out_wall", c.timed_out_wall);
}

static_assert(sizeof(SweepCounters) == [] {  // every field is listed, and 8 bytes wide
  std::size_t listed = 0;
  for_each_counter([&listed](const char*, std::uint64_t) { ++listed; }, SweepCounters{});
  return listed * sizeof(std::uint64_t);
}());

/// Crash-resilient sweep executor: journals every finished shard (fsync'd,
/// checksummed), resumes by journal lookup, retries a dirty shard with
/// exponential backoff and then quarantines it, all while SIGINT/SIGTERM
/// request a graceful drain instead of killing the study mid-point.
///
/// With `config.enabled == false` the supervisor opens no journal and
/// installs no signal handlers; callers then run unsupervised and never
/// reach run_point (run_ab_supervised is exactly run_ab), so its counters
/// stay zero.
class Supervisor {
 public:
  /// Runs the given shards of one point and returns one outcome per shard,
  /// in their order (sweep/ab_sweep: one run_ab_seeds call over their
  /// window). run_point calls it once for the shards the journal lacks and
  /// once with one shard per retry.
  using RunFn = std::function<std::vector<ShardOutcome>(const std::vector<ShardSpec>&)>;

  explicit Supervisor(SupervisorConfig config);
  ~Supervisor();
  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;
  Supervisor(Supervisor&&) = delete;
  Supervisor& operator=(Supervisor&&) = delete;

  /// False when the journal could not be opened (supervised mode only).
  [[nodiscard]] bool ok() const { return !config_.enabled || journal_.has_value(); }
  [[nodiscard]] bool enabled() const { return config_.enabled; }
  [[nodiscard]] const SweepCounters& counters() const { return counters_; }
  [[nodiscard]] const Journal* journal() const {
    return journal_.has_value() ? &*journal_ : nullptr;
  }
  /// True once SIGINT/SIGTERM asked for a drain (or a test forced one).
  [[nodiscard]] static bool drain_requested();
  /// True once a drain was requested or skipped a shard: the study may have
  /// stopped short, and a resume finishes it.
  [[nodiscard]] bool drained() const;
  /// When drained(), prints the line that ends a drained bench's stdout,
  /// `drained: N shard(s) deferred; resume with ...`.
  void report_drain() const;
  /// Test hook: behave as if SIGINT had arrived.
  static void request_drain();
  /// Test hook: clear the process-wide drain flag (a real process never
  /// un-drains; tests need the flag back down between cases).
  static void reset_drain();

  /// Settles one sweep point's shards, in order. Journaled shards resume.
  /// The others are skipped, unjournaled, when a drain was requested before
  /// the point; else one `run` call over all of them is each one's first
  /// attempt, and a dirty shard is retried alone with backoff while no drain
  /// is requested, at most `max_retries` times, then quarantined. An
  /// exception escaping an attempt is reported and fails it; one escaping
  /// the first call is reported and leaves each shard to its own attempts.
  /// Returns each shard's payload JSON text; nullopt when quarantined or
  /// drained.
  std::vector<std::optional<std::string>> run_point(const std::vector<ShardSpec>& shards,
                                                    const RunFn& run);

  /// Flushes the resumable manifest (`<journal>.manifest`). Called by the
  /// destructor too; explicit calls let benches write it before reporting.
  void finish();

 private:
  std::optional<std::string> resume_from(const JournalRecord& rec);
  /// The retry ladder of one shard; `first`, when given, is its first
  /// attempt's outcome, already run.
  std::optional<std::string> settle(const ShardSpec& spec, const RunFn& run,
                                    const ShardOutcome* first);
  void count_quarantine(std::string_view cause);
  void record(const ShardSpec& spec, const char* status, std::uint64_t attempts,
              const char* cause, const std::string& payload);
  void maybe_fault();

  SupervisorConfig config_;
  std::optional<Journal> journal_;
  SweepCounters counters_;
  std::uint64_t appends_{0};
  bool signals_installed_{false};
  void (*old_sigint_)(int){nullptr};
  void (*old_sigterm_)(int){nullptr};
};

}  // namespace vgr::sweep
