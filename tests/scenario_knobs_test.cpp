// The VGR_* knob lists (sim/env.hpp): each run-config knob parses whole-token
// and validates through the one reader, a rejected value warns once naming
// its variable, and the lists agree with the docs tables and with every
// "VGR_..." literal under src/.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "vgr/scenario/ab_runner.hpp"
#include "vgr/sim/env.hpp"
#include "vgr/sim/thread_pool.hpp"
#include "vgr/sweep/supervisor.hpp"

namespace vgr::scenario {
namespace {

using namespace vgr::sim::literals;

/// A default run config with the environment's run-config knobs applied.
HighwayConfig from_env(HighwayConfig config = {}) {
  sim::read_knobs(config);
  return config;
}

TEST(FaultConfig, EnvOverridesParseAndValidate) {
  ::setenv("VGR_FAULT_DROP", "0.25", 1);
  ::setenv("VGR_FAULT_LINK_LOSS", "1.5", 1);  // out of range: ignored
  ::setenv("VGR_FAULT_DELAY_MS", "4", 1);
  HighwayConfig base;
  base.faults.link_loss_probability = 0.125;
  const phy::FaultConfig c = from_env(base).faults;
  EXPECT_DOUBLE_EQ(c.drop_probability, 0.25);
  EXPECT_DOUBLE_EQ(c.link_loss_probability, 0.125);
  EXPECT_DOUBLE_EQ(c.max_extra_delay_s, 0.004);
  ::unsetenv("VGR_FAULT_DROP");
  ::unsetenv("VGR_FAULT_LINK_LOSS");
  ::unsetenv("VGR_FAULT_DELAY_MS");
}

TEST(ChurnConfig, EnvOverridesParseAndValidate) {
  ::setenv("VGR_CHURN_RATE", "0.75", 1);
  ::setenv("VGR_CHURN_DOWNTIME_MS", "1500", 1);
  ::setenv("VGR_CHURN_REBOOT_P", "1.25", 1);  // out of range: ignored
  const ChurnConfig c = from_env().churn;
  EXPECT_DOUBLE_EQ(c.crash_rate_hz, 0.75);
  EXPECT_DOUBLE_EQ(c.downtime_s, 1.5);
  EXPECT_DOUBLE_EQ(c.reboot_probability, 1.0);
  ::unsetenv("VGR_CHURN_RATE");
  ::unsetenv("VGR_CHURN_DOWNTIME_MS");
  ::unsetenv("VGR_CHURN_REBOOT_P");
}

TEST(DccConfig, EnvOverridesApplyWholeToken) {
  ::setenv("VGR_DCC", "1", 1);
  ::setenv("VGR_DCC_SAMPLE_MS", "50", 1);
  ::setenv("VGR_DCC_WINDOW", "5", 1);
  phy::DccConfig cfg = from_env().dcc;
  EXPECT_TRUE(cfg.enabled);
  EXPECT_EQ(cfg.sample_interval, 50_ms);
  EXPECT_EQ(cfg.window_samples, 5u);

  ::setenv("VGR_DCC", "0", 1);
  ::setenv("VGR_DCC_SAMPLE_MS", "abc", 1);  // malformed: rejected whole-token
  ::setenv("VGR_DCC_WINDOW", "100000", 1);  // clamped to ring capacity
  cfg = from_env().dcc;
  EXPECT_FALSE(cfg.enabled);
  EXPECT_EQ(cfg.sample_interval, 100_ms);
  EXPECT_EQ(cfg.window_samples, 64u);

  ::unsetenv("VGR_DCC");
  ::unsetenv("VGR_DCC_SAMPLE_MS");
  ::unsetenv("VGR_DCC_WINDOW");
  cfg = from_env().dcc;
  EXPECT_FALSE(cfg.enabled);
}

TEST(MacConfigEnv, AirtimeOverheadEnvOverride) {
  ::setenv("VGR_MAC_OVERHEAD_BYTES", "52", 1);
  EXPECT_EQ(from_env().mac.airtime_overhead_bytes, 52u);
  ::setenv("VGR_MAC_OVERHEAD_BYTES", "0", 1);
  EXPECT_EQ(from_env().mac.airtime_overhead_bytes, 0u);
  ::setenv("VGR_MAC_OVERHEAD_BYTES", "38x", 1);  // malformed: whole-token reject
  EXPECT_EQ(from_env().mac.airtime_overhead_bytes, 38u);
  ::unsetenv("VGR_MAC_OVERHEAD_BYTES");
  EXPECT_EQ(from_env().mac.airtime_overhead_bytes, 38u);
}

TEST(Knobs, EachRejectedValueWarnsOnceNamingItsKnob) {
  struct Case {
    const char* name;
    const char* value;
    bool rejected;
  };
  const Case cases[] = {
      {"VGR_MAC_QUEUE", "12x", true},            // malformed
      {"VGR_CHURN_RATE", "inf", true},           // not finite
      {"VGR_FAULT_LINK_LOSS", "1.5", true},      // outside [0, 1]
      {"VGR_RETX_MAX", "4294967296", true},      // an int cast would store 0
      {"VGR_MAC_CW_MAX", "2147483647", true},    // 2*cw+1 would overflow int
      {"VGR_MAC_RETRY", "1000000000", true},     // so would the DCC retry budget
      // Time knobs past their bound would overflow the nanosecond clock
      // (or, for the horizon, the result-bin vector).
      {"VGR_SIM_SECONDS", "1e10", true},
      {"VGR_RUN_TIMEOUT_S", "1e300", true},
      {"VGR_FAULT_DELAY_MS", "1e12", true},
      {"VGR_CHURN_DOWNTIME_MS", "1e10", true},
      {"VGR_MAC_SLOT_US", "8500001", true},      // times a 2^30-slot window
      {"VGR_MAC_AIFS_US", "1e13", true},
      {"VGR_DCC_SAMPLE_MS", "1e10", true},
      {"VGR_RETX_BACKOFF_MS", "8501", true},     // doubled 30 times
      {"VGR_FAULT_DROP", "0.25", false},
      {"VGR_MAC_CW_MAX", "1073741823", false},   // the largest accepted window
      {"VGR_SIM_SECONDS", "1e6", false},         // the largest accepted horizon
      {"VGR_MAC_SLOT_US", "8500000", false},
      {"VGR_RETX_BACKOFF_MS", "8500", false},
  };
  for (const Case& k : cases) {
    SCOPED_TRACE(std::string{k.name} + "=" + k.value);
    ::setenv(k.name, k.value, 1);
    testing::internal::CaptureStderr();
    const HighwayConfig c = from_env();
    const Fidelity f = Fidelity::from_env();
    const sweep::SupervisorConfig s = sweep::SupervisorConfig::from_env();
    const std::string err = testing::internal::GetCapturedStderr();
    ::unsetenv(k.name);

    // A rejected value changes nothing.
    EXPECT_EQ(c == HighwayConfig{} && f == Fidelity{} && s == sweep::SupervisorConfig{},
              k.rejected);
    std::istringstream lines{err};
    std::vector<std::string> warnings;
    for (std::string line; std::getline(lines, line);) warnings.push_back(line);
    if (!k.rejected) {
      EXPECT_TRUE(warnings.empty()) << err;
      continue;
    }
    ASSERT_EQ(warnings.size(), 1u) << err;
    EXPECT_NE(warnings[0].find(std::string{k.name} + "=\"" + k.value + "\""), std::string::npos)
        << warnings[0];
  }
}

TEST(Knobs, RunArmsReadsTheListOncePerCallForEveryArm) {
  // Three arms and one rejected knob: one warning, not one per arm. A knob
  // set to its default value still overrides an arm's other value, so the
  // first two arms become one.
  HighwayConfig quiet;
  quiet.sim_duration = 2_s;
  quiet.prefill_spacing_m = 90.0;
  quiet.entry_spacing_m = 90.0;
  HighwayConfig lossy = quiet;
  lossy.faults.drop_probability = 0.5;
  HighwayConfig attacked = quiet;
  attacked.attack = AttackKind::kInterArea;
  Fidelity one_run;
  one_run.runs = 1;
  one_run.threads = 1;

  ::setenv("VGR_FAULT_DROP", "0", 1);
  ::setenv("VGR_MAC_QUEUE", "12x", 1);
  clear_arm_reuse();
  testing::internal::CaptureStderr();
  (void)run_arms({{Experiment::kInterArea, quiet},
                  {Experiment::kInterArea, lossy},
                  {Experiment::kInterArea, attacked}},
                 one_run);
  const std::string err = testing::internal::GetCapturedStderr();
  ::unsetenv("VGR_FAULT_DROP");
  ::unsetenv("VGR_MAC_QUEUE");

  EXPECT_EQ(err, "vgr: ignoring VGR_MAC_QUEUE=\"12x\" (not a number)\n");
  EXPECT_EQ(arm_reuse_counts().simulated, 2u);
  EXPECT_EQ(arm_reuse_counts().reused, 1u);
  clear_arm_reuse();
}

// --- The lists against the docs and the source ---------------------------

const std::filesystem::path kRoot{VGR_SOURCE_DIR};

/// Every declared knob and its Range cell as sim::describe spells it: the
/// three lists, plus the thread pool's own VGR_THREADS.
std::map<std::string, std::string> declared_knobs() {
  std::map<std::string, std::string> knobs;
  const auto add = [&knobs](const char* name, auto& field, const sim::Range& range) {
    using Field = std::remove_cvref_t<decltype(field)>;
    EXPECT_TRUE(knobs.emplace(name, sim::describe<Field>(range)).second)
        << name << " is declared twice";
  };
  HighwayConfig run;
  for_each_knob(add, run);
  Fidelity fidelity;
  for_each_knob(add, fidelity);
  sweep::SupervisorConfig supervisor;
  for_each_knob(add, supervisor);
  std::size_t threads = 0;
  add("VGR_THREADS", threads, sim::ThreadPool::kThreadsRange);
  return knobs;
}

std::vector<std::string> split_cells(const std::string& row) {
  std::vector<std::string> cells;
  std::istringstream in{row.substr(1)};  // past the leading '|'
  for (std::string cell; std::getline(in, cell, '|');) {
    const auto first = cell.find_first_not_of(' ');
    const auto last = cell.find_last_not_of(' ');
    cells.push_back(first == std::string::npos ? "" : cell.substr(first, last - first + 1));
  }
  return cells;
}

/// The knob name spelled from `text[pos]` on: "VGR_" and what follows of
/// [A-Z0-9_].
std::string knob_name_at(const std::string& text, std::size_t pos) {
  const auto end = text.find_first_not_of("ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_", pos);
  return text.substr(pos, end == std::string::npos ? std::string::npos : end - pos);
}

/// The knob rows of the markdown tables in `doc`: each row whose first cell
/// is a `VGR_*` name, mapped to its table's Range cell.
std::vector<std::pair<std::string, std::string>> documented_knobs(const std::string& doc) {
  std::ifstream in{kRoot / doc};
  EXPECT_TRUE(in.good()) << doc;
  std::vector<std::pair<std::string, std::string>> rows;
  std::size_t range_column = std::string::npos;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line.front() != '|') continue;
    const auto cells = split_cells(line);
    if (cells.empty()) continue;
    if (cells.front() == "Variable") {  // a knob table's header row
      range_column = std::string::npos;
      for (std::size_t i = 0; i < cells.size(); ++i) {
        if (cells[i] == "Range") range_column = i;
      }
      continue;
    }
    const std::string& first = cells.front();
    if (!first.starts_with("`VGR_")) continue;
    const std::string name = knob_name_at(first, 1);
    if (first != "`" + name + "`") continue;
    rows.emplace_back(name, range_column < cells.size() ? cells[range_column] : "(no Range column)");
  }
  return rows;
}

TEST(Knobs, ListsAndDocsTablesAgree) {
  const auto declared = declared_knobs();
  std::map<std::string, std::string> documented;
  for (const char* doc : {"docs/performance.md", "docs/robustness.md"}) {
    for (const auto& [name, range] : documented_knobs(doc)) {
      EXPECT_TRUE(documented.emplace(name, range).second) << name << " has two docs rows";
    }
  }
  for (const auto& [name, range] : declared) {
    const auto row = documented.find(name);
    if (row == documented.end()) {
      ADD_FAILURE() << name << " has no row in the docs knob tables";
      continue;
    }
    EXPECT_EQ(row->second, range) << "Range cell of " << name;
  }
  for (const auto& [name, range] : documented) {
    EXPECT_TRUE(declared.contains(name)) << name << " is documented but no list declares it";
  }
}

TEST(Knobs, EveryVgrLiteralUnderSrcIsDeclared) {
  const auto declared = declared_knobs();
  std::set<std::string> seen;
  for (const auto& entry : std::filesystem::recursive_directory_iterator{kRoot / "src"}) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in{entry.path()};
    std::stringstream text;
    text << in.rdbuf();
    const std::string source = text.str();
    for (auto at = source.find("\"VGR_"); at != std::string::npos;
         at = source.find("\"VGR_", at + 1)) {
      const std::string name = knob_name_at(source, at + 1);
      EXPECT_TRUE(declared.contains(name))
          << entry.path().string() << ": \"" << name << "\" is declared by no knob list";
      seen.insert(name);
    }
  }
  // And every declared knob is spelled somewhere under src/, its list included.
  for (const auto& [name, range] : declared) EXPECT_TRUE(seen.contains(name)) << name;
}

}  // namespace
}  // namespace vgr::scenario
