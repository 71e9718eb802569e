// End-to-end crash test for the sweep supervisor: run the real vgr_sweep
// binary, SIGKILL it mid-study via the VGR_SWEEP_FAULT_AFTER fault hook,
// resume, and require the resumed JSON artifact to be byte-identical to an
// uninterrupted run of the same study (everything before the `"supervisor"`
// health block, which legitimately differs). Covered at VGR_THREADS=1 and 4
// because the determinism contract must hold under run-level parallelism.
// The uninterrupted artifact must also match tests/golden/sweep.json up to
// the same key, which pins the journaled counters and the shard merge. A
// point list the study cannot run is refused before any journal exists.
//
// A supervised bench_fig7_inter_area drained by SIGTERM must say so on its
// last stdout line, leave a drained manifest, and print, once resumed,
// exactly what an uninterrupted run prints.
//
// The binary and golden paths are injected at configure time (VGR_SWEEP_BIN,
// VGR_FIG7_BIN and VGR_SWEEP_GOLDEN, see tests/CMakeLists.txt).

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

namespace {

struct SweepFiles {
  std::string journal;
  std::string out;
};

std::string temp_file(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("vgr_killres_" + name + "_" + std::to_string(::getpid())))
      .string();
}

void cleanup(const SweepFiles& f) {
  std::filesystem::remove(f.journal);
  std::filesystem::remove(f.journal + ".manifest");
  std::filesystem::remove(f.out);
}

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return std::string{std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

/// The comparison prefix: everything before the `"supervisor"` key. The
/// sweep writes results first and health counters strictly last for exactly
/// this cut.
std::string result_prefix(const std::string& json) {
  const std::size_t pos = json.find("\"supervisor\"");
  EXPECT_NE(pos, std::string::npos) << "artifact has no supervisor block:\n" << json;
  return json.substr(0, pos);
}

/// Unsets every VGR_* variable, so no knob in the caller's environment can
/// change the study (as tests/golden/check_golden.cmake does).
void clear_vgr_env() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry{*e};
    if (entry.rfind("VGR_", 0) == 0) names.push_back(entry.substr(0, entry.find('=')));
  }
  for (const std::string& name : names) ::unsetenv(name.c_str());
}

/// Forks and execs vgr_sweep with `args` in a cleared VGR_* environment plus
/// `env` (name, value pairs), its stdout discarded; returns the raw waitpid
/// status.
int exec_sweep(const std::vector<std::string>& args,
               const std::vector<std::pair<std::string, std::string>>& env) {
  const pid_t pid = ::fork();
  if (pid < 0) {
    ADD_FAILURE() << "fork failed";
    return -1;
  }
  if (pid == 0) {
    clear_vgr_env();
    for (const auto& [name, value] : env) ::setenv(name.c_str(), value.c_str(), 1);
    // The bench narrates progress on stdout; keep the test log readable.
    std::freopen("/dev/null", "w", stdout);
    std::vector<char*> argv{const_cast<char*>("vgr_sweep")};
    for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
    argv.push_back(nullptr);
    ::execv(VGR_SWEEP_BIN, argv.data());
    std::_Exit(127);  // exec failed
  }
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  return status;
}

/// Runs vgr_sweep <mode> on a tiny study: two loss points and one MAC/DCC
/// congestion point, so the MAC, CBR and flood counters are non-zero.
/// `threads` becomes VGR_THREADS; `fault_after` (>= 0) arms the SIGKILL
/// fault hook. Returns the raw waitpid status.
int run_sweep(const char* mode, const SweepFiles& files, int threads, int fault_after) {
  // Tiny but non-trivial fidelity — 2 runs x 2 simulated seconds, so each
  // point is two one-seed shards and a kill can land between a point's
  // journal appends.
  std::vector<std::pair<std::string, std::string>> env{
      {"VGR_RUNS", "2"},
      {"VGR_SIM_SECONDS", "2"},
      {"VGR_THREADS", std::to_string(threads)},
      {"VGR_SWEEP_BACKOFF_MS", "0"}};
  if (fault_after >= 0) env.emplace_back("VGR_SWEEP_FAULT_AFTER", std::to_string(fault_after));
  return exec_sweep({mode, "--journal", files.journal, "--out", files.out, "--loss", "0,0.4",
                     "--churn", "none", "--flood", "4500"},
                    env);
}

/// One full kill-and-resume cycle at the given thread count; returns the
/// golden (uninterrupted) artifact so callers can compare across settings.
std::string kill_resume_cycle(int threads) {
  SweepFiles golden{temp_file("golden_j" + std::to_string(threads)),
                    temp_file("golden_o" + std::to_string(threads))};
  SweepFiles crashed{temp_file("crash_j" + std::to_string(threads)),
                     temp_file("crash_o" + std::to_string(threads))};
  cleanup(golden);
  cleanup(crashed);

  // Uninterrupted reference run.
  int status = run_sweep("run", golden, threads, /*fault_after=*/-1);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "golden run failed, status " << status;
  const std::string golden_json = slurp(golden.out);

  // Same study, SIGKILL'd after 5 journaled shards. The study has 16
  // shards (2 loss points x 3 arms x 2 seeds, plus 1 flood point x 2 DCC
  // arms x 2 seeds), so the kill lands mid-sweep, between the two seeds of
  // the third point, with real work both behind and ahead of it.
  status = run_sweep("run", crashed, threads, /*fault_after=*/5);
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "fault hook did not SIGKILL, status " << status;
  EXPECT_FALSE(std::filesystem::exists(crashed.out)) << "killed run wrote an artifact";

  // Resume from the journal: journaled shards replay, the rest execute.
  status = run_sweep("resume", crashed, threads, /*fault_after=*/-1);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "resume failed, status " << status;
  const std::string resumed_json = slurp(crashed.out);

  EXPECT_EQ(result_prefix(golden_json), result_prefix(resumed_json))
      << "resumed sweep diverged from the uninterrupted run (threads=" << threads << ")";

  cleanup(golden);
  cleanup(crashed);
  return golden_json;
}

TEST(SweepKillResume, ResumedSweepMatchesUninterruptedRun) {
  const std::string serial = kill_resume_cycle(/*threads=*/1);
  const std::string parallel = kill_resume_cycle(/*threads=*/4);
  // The determinism contract also holds across thread counts: the full
  // artifacts (supervisor block included — nothing was killed) agree.
  EXPECT_EQ(serial, parallel);
  // And the results match the recorded study (docs/testing.md says how to
  // regenerate it after an intended change).
  EXPECT_EQ(result_prefix(serial), result_prefix(slurp(VGR_SWEEP_GOLDEN)))
      << "sweep results differ from " << VGR_SWEEP_GOLDEN;
}

TEST(SweepKillResume, PointOutsideItsAxisRangeExitsWithUsageAndNoJournal) {
  // Each list holds one value the study cannot run: a loss outside [0, 1],
  // a negative churn or flood rate, a non-finite value, or a flood rate
  // whose tick rounds to 0 ns and would stop simulated time. The event
  // budget bounds how long a build that accepted one would take to fail.
  const std::pair<const char*, const char*> bad_lists[] = {
      {"--loss", "2"},      {"--loss", "0,-0.1"}, {"--loss", "nan"},
      {"--churn", "-1"},    {"--churn", "inf"},   {"--flood", "-5"},
      {"--flood", "1e10"},
  };
  for (const auto& [axis, list] : bad_lists) {
    SCOPED_TRACE(std::string{axis} + " " + list);
    const SweepFiles files{temp_file("bad_j"), temp_file("bad_o")};
    cleanup(files);
    std::vector<std::string> args{"run", "--journal", files.journal, "--out", files.out,
                                  "--loss", "none", "--churn", "none", "--flood", "none"};
    args.emplace_back(axis);  // a repeated flag overrides the earlier one
    args.emplace_back(list);
    const int status =
        exec_sweep(args, {{"VGR_RUNS", "1"}, {"VGR_SIM_SECONDS", "1"},
                          {"VGR_RUN_MAX_EVENTS", "20000"}, {"VGR_SWEEP_BACKOFF_MS", "0"}});
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 2) << "status " << status;
    EXPECT_FALSE(std::filesystem::exists(files.journal));
    EXPECT_FALSE(std::filesystem::exists(files.out));
    cleanup(files);
  }
}

/// Runs bench_fig7_inter_area at 2 runs x 60 s on 4 threads in a cleared
/// VGR_* environment plus `env`, its stdout written to `out`. With a
/// non-empty `drain_journal`, SIGTERMs it once that journal holds a record.
/// Returns the raw waitpid status.
int run_fig7(const std::vector<std::pair<std::string, std::string>>& env,
             const std::string& out, const std::string& drain_journal = {}) {
  const pid_t pid = ::fork();
  if (pid < 0) {
    ADD_FAILURE() << "fork failed";
    return -1;
  }
  if (pid == 0) {
    clear_vgr_env();
    ::setenv("VGR_RUNS", "2", 1);
    ::setenv("VGR_SIM_SECONDS", "60", 1);
    ::setenv("VGR_THREADS", "4", 1);
    for (const auto& [name, value] : env) ::setenv(name.c_str(), value.c_str(), 1);
    if (std::freopen(out.c_str(), "w", stdout) == nullptr) std::_Exit(126);
    char* argv[] = {const_cast<char*>("bench_fig7_inter_area"), nullptr};
    ::execv(VGR_FIG7_BIN, argv);
    std::_Exit(127);  // exec failed
  }
  int status = 0;
  if (!drain_journal.empty()) {
    for (;;) {
      if (::waitpid(pid, &status, WNOHANG) == pid) return status;  // finished first
      std::error_code ec;
      if (std::filesystem::file_size(drain_journal, ec) > 0 && !ec) break;
      ::usleep(2000);
    }
    ::kill(pid, SIGTERM);
  }
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  return status;
}

TEST(SweepKillResume, DrainedFig7SaysSoAndItsResumePrintsTheUninterruptedOutput) {
  const std::string journal = temp_file("fig7_j");
  const std::string reference = temp_file("fig7_ref");
  const std::string drained = temp_file("fig7_drained");
  const std::string resumed = temp_file("fig7_resumed");
  const auto remove_all = [&] {
    for (const std::string& f : {journal, journal + ".manifest", reference, drained, resumed}) {
      std::filesystem::remove(f);
    }
  };
  remove_all();
  const std::vector<std::pair<std::string, std::string>> supervised{
      {"VGR_SWEEP", "1"}, {"VGR_SWEEP_JOURNAL", journal}, {"VGR_SWEEP_BACKOFF_MS", "0"}};

  int status = run_fig7({}, reference);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << "status " << status;

  status = run_fig7(supervised, drained, journal);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << "status " << status;
  const std::string out = slurp(drained);
  ASSERT_GE(out.size(), 2u);
  const std::size_t last_line = out.rfind('\n', out.size() - 2);
  ASSERT_NE(last_line, std::string::npos);
  const std::string tail = out.substr(last_line + 1);
  EXPECT_EQ(tail.rfind("drained: ", 0), 0u) << tail;
  EXPECT_NE(tail.find(" shard(s) deferred; resume with VGR_SWEEP_RESUME=1"), std::string::npos)
      << tail;
  EXPECT_EQ(out.find("Delivery latency"), std::string::npos) << "latency rows ran after a drain";
  const std::string manifest = slurp(journal + ".manifest");
  EXPECT_NE(manifest.find("\"status\":\"drained\""), std::string::npos) << manifest;
  EXPECT_EQ(manifest.find("\"drained\":0,"), std::string::npos)
      << "SIGTERM landed after the last point:\n" << manifest;

  std::vector<std::pair<std::string, std::string>> resume = supervised;
  resume.emplace_back("VGR_SWEEP_RESUME", "1");
  status = run_fig7(resume, resumed);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << "status " << status;
  EXPECT_EQ(slurp(resumed), slurp(reference));
  remove_all();
}

}  // namespace
