#include "vgr/sweep/supervisor.hpp"

#include <cassert>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <exception>

#include "vgr/sim/env.hpp"

namespace vgr::sweep {
namespace {

/// Drain request flag, set (only set — never cleared, never read-modify-
/// write) by the signal handler. `volatile sig_atomic_t` is the full extent
/// of what an async handler may touch (vgr_lint rule VGR008 enforces this).
volatile std::sig_atomic_t g_drain = 0;

void drain_handler(int /*signum*/) { g_drain = 1; }

/// Deterministic retry backoff. nanosleep is async-signal-tolerant and,
/// unlike std::this_thread::sleep_for, needs no <thread> include (VGR006).
void backoff_sleep(double ms) {
  if (ms <= 0.0) return;
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(ms / 1000.0);
  ts.tv_nsec = static_cast<long>((ms - static_cast<double>(ts.tv_sec) * 1000.0) * 1e6);
  nanosleep(&ts, nullptr);
}

/// Runs `body`; false, with a line on stderr, when an exception escaped it.
template <typename Body>
bool guarded(const std::string& what, Body&& body) {
  try {
    body();
    return true;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "[sweep] %s failed: %s\n", what.c_str(), ex.what());
    return false;
  }
}

const char* outcome_cause(const ShardOutcome& outcome) {
  if (outcome.error) return "error";
  if (outcome.timed_out_events > 0) return "events";
  if (outcome.timed_out_wall > 0) return "wall";
  return "none";
}

}  // namespace

SupervisorConfig SupervisorConfig::from_env() {
  SupervisorConfig c;
  sim::read_knobs(c);
  return c;
}

Supervisor::Supervisor(SupervisorConfig config) : config_{std::move(config)} {
  if (!config_.enabled) return;
  journal_ = Journal::open(config_.journal_path);
  if (!journal_.has_value()) {
    std::fprintf(stderr, "[sweep] cannot open journal %s: %s\n",
                 config_.journal_path.c_str(), std::strerror(errno));
    return;
  }
  if (journal_->truncated_bytes() > 0) {
    std::fprintf(stderr, "[sweep] journal %s: truncated %zu torn trailing bytes\n",
                 config_.journal_path.c_str(), journal_->truncated_bytes());
  }
  if (!config_.resume && !journal_->records().empty()) {
    // Guard against silently mixing two studies into one journal: reusing
    // an existing journal is an explicit choice (VGR_SWEEP_RESUME=1 /
    // `vgr_sweep resume`), not a side effect of re-running a bench.
    std::fprintf(stderr,
                 "[sweep] journal %s already holds %zu record(s); set "
                 "VGR_SWEEP_RESUME=1 to resume or remove the journal to start over\n",
                 config_.journal_path.c_str(), journal_->records().size());
    journal_.reset();
    return;
  }
  old_sigint_ = std::signal(SIGINT, drain_handler);
  old_sigterm_ = std::signal(SIGTERM, drain_handler);
  signals_installed_ = true;
}

Supervisor::~Supervisor() {
  finish();
  if (signals_installed_) {
    std::signal(SIGINT, old_sigint_ != SIG_ERR ? old_sigint_ : SIG_DFL);
    std::signal(SIGTERM, old_sigterm_ != SIG_ERR ? old_sigterm_ : SIG_DFL);
  }
}

bool Supervisor::drain_requested() { return g_drain != 0; }

bool Supervisor::drained() const { return counters_.drained > 0 || drain_requested(); }

void Supervisor::report_drain() const {
  if (!drained()) return;
  std::printf("drained: %llu shard(s) deferred; resume with VGR_SWEEP_RESUME=1 or "
              "`vgr_sweep resume`\n",
              static_cast<unsigned long long>(counters_.drained));
}

void Supervisor::request_drain() { g_drain = 1; }

void Supervisor::reset_drain() { g_drain = 0; }

std::vector<std::optional<std::string>> Supervisor::run_point(
    const std::vector<ShardSpec>& shards, const RunFn& run) {
  counters_.shards += shards.size();
  const auto journaled = [this](const ShardSpec& spec) {
    return journal_.has_value() ? journal_->find(spec.key) : nullptr;
  };
  std::vector<ShardSpec> missing;
  for (const ShardSpec& spec : shards) {
    if (journaled(spec) == nullptr) missing.push_back(spec);
  }
  // Checked once per point, so the point in flight is journaled whole.
  const bool draining = drain_requested();
  std::vector<ShardOutcome> first;  // each missing shard's first attempt
  const bool fanned = !missing.empty() && !draining &&
                      guarded("point " + missing.front().key + " fan-out",
                              [&] { first = run(missing); });
  assert(!fanned || first.size() == missing.size());

  std::vector<std::optional<std::string>> payloads;
  std::size_t next = 0;  // into missing and first
  for (const ShardSpec& spec : shards) {
    if (const JournalRecord* rec = journaled(spec); rec != nullptr) {
      payloads.push_back(resume_from(*rec));
    } else if (draining) {
      ++counters_.drained;  // not journaled: a resumed sweep runs it from scratch
      payloads.emplace_back();
    } else {
      payloads.push_back(settle(spec, run, fanned ? &first[next++] : nullptr));
    }
  }
  return payloads;
}

std::optional<std::string> Supervisor::settle(const ShardSpec& spec, const RunFn& run,
                                              const ShardOutcome* first) {
  ShardOutcome outcome;
  std::uint64_t attempts = 0;
  double backoff = config_.backoff_ms;
  for (std::uint64_t attempt = 0; attempt <= config_.max_retries; ++attempt) {
    if (attempt > 0) {
      if (drain_requested()) {
        ++counters_.drained;
        return std::nullopt;
      }
      ++counters_.retries;
      backoff_sleep(backoff);
      backoff *= 2.0;
    }
    ++attempts;
    const std::string what = "shard " + spec.key + " attempt " + std::to_string(attempts);
    if (attempt == 0 && first != nullptr) {
      outcome = *first;
    } else if (!guarded(what, [&] {
                 std::vector<ShardOutcome> one = run({spec});
                 assert(one.size() == 1);
                 outcome = std::move(one.front());
               })) {
      outcome = ShardOutcome{};
      outcome.error = true;
    }
    counters_.timed_out_events += outcome.timed_out_events;
    counters_.timed_out_wall += outcome.timed_out_wall;
    if (outcome.clean()) {
      record(spec, "done", attempts, "none", outcome.payload);
      ++counters_.completed;
      return outcome.payload;
    }
  }

  const char* cause = outcome_cause(outcome);
  std::fprintf(stderr, "[sweep] quarantining shard %s after %llu attempts (cause: %s)\n",
               spec.key.c_str(), static_cast<unsigned long long>(attempts), cause);
  count_quarantine(cause);
  record(spec, "quarantined", attempts, cause, "null");
  return std::nullopt;
}

std::optional<std::string> Supervisor::resume_from(const JournalRecord& rec) {
  ++counters_.resumed;
  if (rec.status == "quarantined") {
    // Quarantine is sticky across resumes: re-running a poisoned shard
    // would make resumed output depend on how often the sweep crashed.
    count_quarantine(rec.cause);
    return std::nullopt;
  }
  ++counters_.completed;
  return rec.payload;
}

void Supervisor::count_quarantine(std::string_view cause) {
  if (cause == "events") {
    ++counters_.quarantined_events;
  } else if (cause == "wall") {
    ++counters_.quarantined_wall;
  } else {
    ++counters_.quarantined_error;
  }
}

void Supervisor::record(const ShardSpec& spec, const char* status, std::uint64_t attempts,
                        const char* cause, const std::string& payload) {
  if (!journal_.has_value()) return;
  if (!journal_->append(
          {spec.key, status, "full", attempts, cause, payload.empty() ? "null" : payload})) {
    // The shard's payload is still returned, so this run's output stands; a
    // resume runs the shard again.
    std::fprintf(stderr, "[sweep] journal %s: append failed: %s\n",
                 config_.journal_path.c_str(), std::strerror(errno));
  }
  maybe_fault();
}

void Supervisor::maybe_fault() {
  if (config_.fault_after_appends < 0) return;
  ++appends_;
  if (appends_ >= static_cast<std::uint64_t>(config_.fault_after_appends)) {
    // Crash-test hook (VGR_SWEEP_FAULT_AFTER): die as hard as a power cut.
    // The journal append above already fsync'd, which is exactly what the
    // kill-and-resume test verifies.
    std::fprintf(stderr, "[sweep] fault injection: SIGKILL after %llu appends\n",
                 static_cast<unsigned long long>(appends_));
    std::fflush(stderr);
    raise(SIGKILL);
  }
}

void Supervisor::finish() {
  if (!journal_.has_value()) return;
  const std::string path = config_.journal_path + ".manifest";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return;
  std::fprintf(f, "{\"journal\":\"%s\",\"status\":\"%s\"", config_.journal_path.c_str(),
               drained() ? "drained" : "complete");
  for_each_counter([f](const char* name, std::uint64_t value) {
    std::fprintf(f, ",\"%s\":%llu", name, static_cast<unsigned long long>(value));
  }, counters_);
  std::fprintf(f, "}\n");
  std::fclose(f);
}

}  // namespace vgr::sweep
