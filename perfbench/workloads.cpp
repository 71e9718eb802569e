// The four benchmark workloads. Serial workloads drive HighwayScenario arm
// by arm, so every arm's construction and run are timed and its medium
// counts are read back; fig9_sweep drives run_intra_area_ab exactly as the
// figure bench does, through ab_runner's ThreadPool fan-out.
#include <sys/resource.h>

#include <cstdio>
#include <set>
#include <sstream>

#include "bench.hpp"
#include "vgr/scenario/ab_runner.hpp"
#include "vgr/sim/thread_pool.hpp"

namespace perfbench {

using vgr::scenario::AttackKind;
using vgr::scenario::HighwayConfig;
using vgr::scenario::HighwayScenario;
namespace phy = vgr::phy;
namespace sim = vgr::sim;

namespace {

constexpr sim::Duration kBin = sim::Duration::seconds(5.0);

double ru_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru_seconds(ru.ru_utime) + ru_seconds(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string fmt_u64(std::uint64_t v) { return std::to_string(v); }

std::string json_object(const Outputs& o) {
  std::ostringstream out;
  out << '{';
  bool first = true;
  for (const auto& [k, v] : o) {
    if (!first) out << ',';
    first = false;
    out << '"' << k << "\":" << v;
  }
  out << '}';
  return out.str();
}

ArmRun run_arm(const ArmSpec& arm, std::uint64_t seed, bool spans) {
  HighwayConfig cfg = arm.config;
  cfg.seed = seed;
  ArmRun out;
  Clock::time_point t0{};
  if (spans) t0 = Clock::now();
  HighwayScenario scenario{cfg};
  if (spans) {
    out.construct_s = seconds_since(t0);
    t0 = Clock::now();
  }
  std::uint64_t replays = 0;
  if (arm.intra) {
    const auto r = scenario.run_intra_area();
    if (spans) out.run_s = seconds_since(t0);
    out.binned = r.binned(kBin);
    out.reception = r.overall_reception();
    out.counts.timed_out = r.timed_out;
    replays = r.packets_replayed + r.frames_flooded;
  } else {
    const auto r = scenario.run_inter_area();
    if (spans) out.run_s = seconds_since(t0);
    out.binned = r.binned(kBin);
    out.reception = r.overall_reception();
    out.counts.timed_out = r.timed_out;
    replays = r.beacons_replayed + r.frames_flooded;
  }
  out.counts.frames = scenario.medium().frames_sent();
  out.counts.deliveries = scenario.medium().frames_delivered();
  out.counts.index_rebuilds = scenario.medium().index_rebuilds();
  out.counts.replays = replays;
  return out;
}

namespace {

/// A workload made of serially run arms that share one seed per unit. The
/// first arm is the attacker-free baseline; every later arm also reports
/// its attack rate (gamma / lambda) against it.
class SerialWorkload : public Workload {
 public:
  SerialWorkload(std::string name, std::vector<ArmSpec> arms, std::size_t replay_index)
      : name_{std::move(name)}, arms_{std::move(arms)}, replay_index_{replay_index} {}

  [[nodiscard]] std::string name() const override { return name_; }

  [[nodiscard]] UnitResult run_unit(std::uint64_t seed, bool spans) override {
    UnitResult u;
    u.seed = seed;
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    std::vector<ArmRun> runs;
    runs.reserve(arms_.size());
    for (const ArmSpec& arm : arms_) runs.push_back(run_arm(arm, seed, spans));
    u.wall_s = seconds_since(t0);
    u.cpu_s = process_cpu_seconds() - cpu0;
    for (std::size_t i = 0; i < arms_.size(); ++i) {
      const ArmRun& r = runs[i];
      const std::string& a = arms_[i].name;
      u.sim_s += arms_[i].config.sim_duration.to_seconds();
      if (spans) {
        u.construct_s.push_back(r.construct_s);
        u.run_s.push_back(r.run_s);
      }
      u.outputs[a + ".reception"] = fmt_double(r.reception);
      u.outputs[a + ".frames"] = fmt_u64(r.counts.frames);
      u.outputs[a + ".deliveries"] = fmt_u64(r.counts.deliveries);
      u.outputs[a + ".replays"] = fmt_u64(r.counts.replays);
      u.outputs[a + ".timed_out"] = fmt_u64(r.counts.timed_out ? 1 : 0);
      if (i > 0) {
        u.outputs[a + ".attack_rate"] =
            fmt_double(sim::BinnedRate::average_drop(runs[0].binned, r.binned));
      }
    }
    return u;
  }

  [[nodiscard]] double setup_sample() override {
    HighwayConfig cfg = arms_[replay_index_].config;
    const auto t0 = Clock::now();
    const HighwayScenario scenario{cfg};
    return seconds_since(t0);
  }

  [[nodiscard]] std::pair<std::size_t, std::size_t> arm_census(std::uint64_t) const override {
    return {arms_.size(), arms_.size()};  // every arm differs in its attacker
  }

  [[nodiscard]] ArmSpec replay_arm() const override { return arms_[replay_index_]; }

 private:
  std::string name_;
  std::vector<ArmSpec> arms_;
  std::size_t replay_index_;
};

HighwayConfig with_duration(HighwayConfig cfg, double seconds) {
  cfg.sim_duration = sim::Duration::seconds(seconds);
  return cfg;
}

std::unique_ptr<Workload> flood_dense() {
  // 7.5 m spacing: ~1,070 vehicles, ~240 receivers per frame.
  HighwayConfig base;
  base.entry_spacing_m = 7.5;
  base.prefill_spacing_m = 7.5;
  base.attack_range_m = 500.0;
  base = with_duration(base, 10.0);
  HighwayConfig blocked = base;
  blocked.attack = AttackKind::kIntraArea;
  return std::make_unique<SerialWorkload>(
      "flood_dense",
      std::vector<ArmSpec>{{"none", base, true}, {"blocker500", blocked, true}}, 1);
}

std::unique_ptr<Workload> gf_intercept() {
  HighwayConfig base;  // paper density: 30 m spacing
  base.attack_range_m = phy::range_table(base.tech).nlos_median_m;
  base = with_duration(base, 40.0);
  HighwayConfig attacked = base;
  attacked.attack = AttackKind::kInterArea;
  HighwayConfig mitigated = attacked;
  mitigated.mitigation = vgr::mitigation::Profile::kPlausibilityCheck;
  return std::make_unique<SerialWorkload>(
      "gf_intercept",
      std::vector<ArmSpec>{{"none", base, false},
                           {"mN", attacked, false},
                           {"mN_plaus", mitigated, false}},
      1);
}

std::unique_ptr<Workload> mac_congestion() {
  // bench_resilience sweep 3 at 4.5 kHz with DCC on.
  HighwayConfig cfg;
  cfg.attack = AttackKind::kCongestionFlood;
  cfg.flood_rate_hz = 4500.0;
  cfg.mac.enabled = true;
  cfg.dcc.enabled = true;
  cfg.beacon_interval = sim::Duration::seconds(0.1);
  cfg.packet_interval = sim::Duration::seconds(0.1);
  cfg.mac.queue_limit = 2;
  cfg = with_duration(cfg, 10.0);
  return std::make_unique<SerialWorkload>(
      "mac_congestion", std::vector<ArmSpec>{{"flood4500", cfg, false}}, 0);
}

/// One row of Fig 9: a labelled A/B setting for run_intra_area_ab.
struct Row {
  std::string label;
  HighwayConfig config;
};

/// The Fig 9 a-e settings table, plus the 500 m DSRC setting the figure's
/// source-location split simulates again.
std::vector<Row> fig9_rows() {
  std::vector<Row> rows;
  const struct {
    phy::AccessTechnology tech;
    const char* name;
  } techs[] = {{phy::AccessTechnology::kDsrc, "a"}, {phy::AccessTechnology::kCv2x, "b"}};
  for (const auto& t : techs) {
    const phy::RangeTable r = phy::range_table(t.tech);
    const std::pair<const char*, double> ranges[] = {
        {"wN", r.nlos_worst_m}, {"mN", r.nlos_median_m}, {"500", 500.0}, {"mL", r.los_median_m}};
    for (const auto& [key, range] : ranges) {
      HighwayConfig cfg;
      cfg.tech = t.tech;
      cfg.attack_range_m = range;
      rows.push_back({std::string{"9"} + t.name + "_" + key, cfg});
    }
  }
  const double mn = phy::range_table(phy::AccessTechnology::kDsrc).nlos_median_m;
  for (const double ttl : {20.0, 10.0, 5.0}) {
    HighwayConfig cfg;
    cfg.attack_range_m = mn;
    cfg.locte_ttl = sim::Duration::seconds(ttl);
    rows.push_back({"9c_ttl" + std::to_string(static_cast<int>(ttl)), cfg});
  }
  for (const double spacing : {30.0, 100.0, 300.0}) {
    HighwayConfig cfg;
    cfg.attack_range_m = mn;
    cfg.entry_spacing_m = spacing;
    cfg.prefill_spacing_m = spacing;
    rows.push_back({"9d_i" + std::to_string(static_cast<int>(spacing)), cfg});
  }
  for (const bool two_way : {false, true}) {
    HighwayConfig cfg;
    cfg.attack_range_m = mn;
    cfg.two_way = two_way;
    rows.push_back({two_way ? "9e_two_way" : "9e_one_way", cfg});
  }
  HighwayConfig split;
  split.attack_range_m = 500.0;
  rows.push_back({"9_split500", split});
  return rows;
}

/// Canonical text of everything in an intra-area arm that changes its
/// simulation. The attack range only matters when an attacker is deployed:
/// the CBF flood workload does not depend on the attack geometry.
std::string intra_arm_key(const HighwayConfig& c, AttackKind attack, std::uint64_t seed) {
  std::ostringstream k;
  k << static_cast<int>(c.tech) << '|' << c.entry_spacing_m << '|' << c.prefill_spacing_m << '|'
    << c.two_way << '|' << c.locte_ttl.count() << '|' << c.sim_duration.count() << '|'
    << static_cast<int>(attack) << '|' << seed;
  if (attack != AttackKind::kNone) k << '|' << c.attack_range_m;
  return k.str();
}

class Fig9Sweep : public Workload {
 public:
  static constexpr std::uint64_t kRuns = 4;
  static constexpr double kSimSeconds = 10.0;

  explicit Fig9Sweep(std::size_t threads) : threads_{threads}, rows_{fig9_rows()} {
    for (Row& r : rows_) r.config.sim_duration = sim::Duration::seconds(kSimSeconds);
  }

  [[nodiscard]] std::string name() const override { return "fig9_sweep"; }
  [[nodiscard]] std::size_t threads() const override { return threads_; }

  [[nodiscard]] UnitResult run_unit(std::uint64_t seed, bool spans) override {
    UnitResult u;
    u.seed = seed;
    const vgr::scenario::Fidelity f = fidelity(seed);
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    std::vector<vgr::scenario::AbResult> results;
    results.reserve(rows_.size());
    for (const Row& row : rows_) {
      if (!spans) {
        results.push_back(run_intra_area_ab(row.config, f));
        continue;
      }
      // ab_runner constructs its scenarios internally; the construction
      // span is a standalone HighwayScenario of the row's config.
      auto c0 = Clock::now();
      { const HighwayScenario probe{row.config}; }
      u.construct_s.push_back(seconds_since(c0));
      c0 = Clock::now();
      results.push_back(run_intra_area_ab(row.config, f));
      u.run_s.push_back(seconds_since(c0));
    }
    u.wall_s = seconds_since(t0);
    u.cpu_s = process_cpu_seconds() - cpu0;
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const auto& r = results[i];
      const std::string& a = rows_[i].label;
      u.sim_s += 2.0 * static_cast<double>(kRuns) * kSimSeconds;
      u.outputs[a + ".attack_rate"] = fmt_double(r.attack_rate);
      u.outputs[a + ".baseline_reception"] = fmt_double(r.baseline_reception);
      u.outputs[a + ".attacked_reception"] = fmt_double(r.attacked_reception);
      u.outputs[a + ".timed_out_runs"] = fmt_u64(r.timed_out_runs);
    }
    return u;
  }

  [[nodiscard]] double setup_sample() override {
    const auto t0 = Clock::now();
    const vgr::sim::ThreadPool pool{threads_};
    const HighwayScenario scenario{rows_.front().config};
    return seconds_since(t0);
  }

  [[nodiscard]] std::pair<std::size_t, std::size_t> arm_census(std::uint64_t seed) const override {
    std::set<std::string> seen;
    std::size_t arms = 0;
    const vgr::scenario::Fidelity f = fidelity(seed);
    for (const Row& row : rows_) {
      for (std::uint64_t run = 0; run < f.runs; ++run) {
        for (const AttackKind a : {AttackKind::kNone, AttackKind::kIntraArea}) {
          ++arms;
          seen.insert(intra_arm_key(row.config, a, f.first_run + run + 1));
        }
      }
    }
    return {arms, seen.size()};
  }

  /// The 9a mN attacked arm of the unit's first run.
  [[nodiscard]] ArmSpec replay_arm() const override {
    ArmSpec arm{"9a_mN.attacked", rows_[1].config, true};
    arm.config.attack = AttackKind::kIntraArea;
    return arm;
  }
  [[nodiscard]] std::uint64_t replay_arm_seed(std::uint64_t unit_seed) const override {
    return fidelity(unit_seed).first_run + 1;
  }

 private:
  /// Unit seed s runs the ab_runner seeds (s-1)*kRuns+1 .. s*kRuns.
  [[nodiscard]] vgr::scenario::Fidelity fidelity(std::uint64_t seed) const {
    vgr::scenario::Fidelity f;
    f.runs = kRuns;
    f.first_run = (seed - 1) * kRuns;
    f.threads = threads_;
    return f;
  }

  std::size_t threads_;
  std::vector<Row> rows_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::size_t threads) {
  if (name == "flood_dense") return flood_dense();
  if (name == "gf_intercept") return gf_intercept();
  if (name == "mac_congestion") return mac_congestion();
  if (name == "fig9_sweep") return std::make_unique<Fig9Sweep>(threads > 0 ? threads : 4);
  return nullptr;
}

}  // namespace perfbench
