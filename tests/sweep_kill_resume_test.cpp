// End-to-end crash test for the sweep supervisor: run the real vgr_sweep
// binary, SIGKILL it mid-study via the VGR_SWEEP_FAULT_AFTER fault hook,
// resume, and require the resumed JSON artifact to be byte-identical to an
// uninterrupted run of the same study (everything before the `"supervisor"`
// health block, which legitimately differs). Covered at VGR_THREADS=1 and 4
// because the determinism contract must hold under run-level parallelism.
// The uninterrupted artifact must also match tests/golden/sweep.json up to
// the same key, which pins the journaled counters and the shard merge.
//
// The binary and golden paths are injected at configure time (VGR_SWEEP_BIN
// and VGR_SWEEP_GOLDEN, see tests/CMakeLists.txt).

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
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

/// Forks and execs vgr_sweep <mode> on a tiny study: two loss points and one
/// MAC/DCC congestion point, so the MAC, CBR and flood counters are non-zero.
/// `threads` becomes VGR_THREADS; `fault_after` (>= 0) arms the SIGKILL
/// fault hook. Returns the raw waitpid status.
int run_sweep(const char* mode, const SweepFiles& files, int threads, int fault_after) {
  const pid_t pid = ::fork();
  if (pid < 0) {
    ADD_FAILURE() << "fork failed";
    return -1;
  }
  if (pid == 0) {
    // Child: tiny but non-trivial fidelity — 2 runs x 2 simulated seconds,
    // one seed per shard so the kill lands between journal appends.
    clear_vgr_env();
    ::setenv("VGR_RUNS", "2", 1);
    ::setenv("VGR_SIM_SECONDS", "2", 1);
    ::setenv("VGR_THREADS", std::to_string(threads).c_str(), 1);
    ::setenv("VGR_SWEEP_SEED_CHUNK", "1", 1);
    ::setenv("VGR_SWEEP_BACKOFF_MS", "0", 1);
    if (fault_after >= 0) {
      ::setenv("VGR_SWEEP_FAULT_AFTER", std::to_string(fault_after).c_str(), 1);
    }
    // The bench narrates progress on stdout; keep the test log readable.
    std::freopen("/dev/null", "w", stdout);
    const char* const argv[] = {"vgr_sweep", mode,
                                "--journal", files.journal.c_str(),
                                "--out", files.out.c_str(),
                                "--loss", "0,0.4",
                                "--churn", "none",
                                "--flood", "4500",
                                nullptr};
    ::execv(VGR_SWEEP_BIN, const_cast<char* const*>(argv));
    std::_Exit(127);  // exec failed
  }
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  return status;
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
  // shards (2 loss points x 3 arms x 2 seed chunks, plus 1 flood point x
  // 2 DCC arms x 2 seed chunks), so the kill lands mid-sweep with real work
  // both behind and ahead of it.
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

}  // namespace
