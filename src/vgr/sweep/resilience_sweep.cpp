#include "vgr/sweep/resilience_sweep.hpp"

#include <cstdint>
#include <cstdio>

#include "vgr/mitigation/profiles.hpp"
#include "vgr/scenario/highway.hpp"
#include "vgr/sweep/ab_sweep.hpp"

namespace vgr::sweep {
namespace {

using scenario::AbResult;
using scenario::Fidelity;
using scenario::HighwayConfig;

struct Row {
  std::string axis;      // "loss" or "churn"
  double level;          // drop probability / crashes per second
  double recv_baseline;  // attacker-free reception
  double recv_attacked;  // attacked reception
  double gamma;          // interception rate, no mitigation
  double recv_mitigated; // attacked reception, both §V defenses
  double gamma_mitigated;
  double recv_recovered;  // attacker-free reception, SCF+retx+monitor on
  double gamma_recovered; // interception rate with the recovery layer on
};

std::string point_label(const char* axis, double level) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s-%.3f", axis, level);
  return buf;
}

Row run_point(Supervisor& sup, const HighwayConfig& cfg, const Fidelity& fidelity,
              const std::string& axis, double level) {
  Row row;
  row.axis = axis;
  row.level = level;
  const std::string label = point_label(axis.c_str(), level);

  const AbResult plain =
      run_ab_supervised(sup, Experiment::kInterArea, label + "-plain", cfg, fidelity);
  row.recv_baseline = plain.baseline_reception;
  row.recv_attacked = plain.attacked_reception;
  row.gamma = plain.attack_rate;

  HighwayConfig mitigated = cfg;
  mitigated.mitigation = mitigation::Profile::kFull;
  const AbResult guarded =
      run_ab_supervised(sup, Experiment::kInterArea, label + "-mitigated", mitigated, fidelity);
  row.recv_mitigated = guarded.attacked_reception;
  row.gamma_mitigated = guarded.attack_rate;

  HighwayConfig recovered = cfg;
  recovered.recovery.scf = true;
  recovered.recovery.retx = true;
  recovered.recovery.nbr_monitor = true;
  const AbResult healed =
      run_ab_supervised(sup, Experiment::kInterArea, label + "-recovered", recovered, fidelity);
  row.recv_recovered = healed.baseline_reception;
  row.gamma_recovered = healed.attack_rate;

  const auto timed_out =
      plain.timed_out_runs + guarded.timed_out_runs + healed.timed_out_runs;
  if (timed_out > 0) {
    std::fprintf(stderr, "  [watchdog] %llu run(s) stopped on the per-run budget\n",
                 static_cast<unsigned long long>(timed_out));
  }
  return row;
}

/// One point of the congestion sweep: the same flooder rate against a
/// MAC-enabled fleet with DCC off vs on. `recv_*` are honest (attacked-arm)
/// delivery rates; the counters are summed over every attacked run.
struct CongestionRow {
  double flood_hz;
  double recv_off;  // honest delivery, CSMA only
  double recv_on;   // honest delivery, CSMA + reactive DCC
  std::uint64_t retry_off, overflow_off;
  std::uint64_t retry_on, overflow_on, gated_on;
  double cbr_off, cbr_on;  // peak channel-busy ratio seen by any station
  std::uint64_t frames_flooded;
};

CongestionRow run_congestion_point(Supervisor& sup, const HighwayConfig& base,
                                   const Fidelity& fidelity, double flood_hz) {
  CongestionRow row{};
  row.flood_hz = flood_hz;
  const std::string label = point_label("flood", flood_hz);

  HighwayConfig cfg = base;
  cfg.attack = scenario::AttackKind::kCongestionFlood;
  cfg.flood_rate_hz = flood_hz;
  cfg.mac.enabled = true;
  // CAM-rate awareness beaconing (ETSI EN 302 637-2 upper rate) and 10 Hz
  // application traffic. The GN default of one beacon per 3 s leaves the
  // channel so idle that neither CSMA contention nor DCC pacing ever
  // engages; a realistic V2X channel carries 10 Hz awareness traffic, which
  // is the load DCC is specified against — and what the flooder's airtime
  // has to squeeze out. The short queue matches 802.11p-class hardware,
  // where latency-critical safety frames are never buffered deeply.
  cfg.beacon_interval = sim::Duration::seconds(0.1);
  cfg.packet_interval = sim::Duration::seconds(0.1);
  cfg.mac.queue_limit = 2;

  cfg.dcc.enabled = false;
  const AbResult off =
      run_ab_supervised(sup, Experiment::kInterArea, label + "-dccoff", cfg, fidelity);
  row.recv_off = off.attacked_reception;
  row.retry_off = off.attacked_totals.mac.retry_exhausted_drops;
  row.overflow_off = off.attacked_totals.mac.queue_overflow_drops;
  row.cbr_off = off.attacked_totals.peak_cbr;

  cfg.dcc.enabled = true;
  const AbResult on =
      run_ab_supervised(sup, Experiment::kInterArea, label + "-dccon", cfg, fidelity);
  row.recv_on = on.attacked_reception;
  row.retry_on = on.attacked_totals.mac.retry_exhausted_drops;
  row.overflow_on = on.attacked_totals.mac.queue_overflow_drops;
  row.gated_on = on.attacked_totals.mac.dcc_gated_drops;
  row.cbr_on = on.attacked_totals.peak_cbr;
  row.frames_flooded = on.attacked_totals.frames_flooded;
  return row;
}

void print_congestion_row(const CongestionRow& r) {
  std::printf("  flood %7.0f Hz  dcc-off: recv=%6.3f cbr=%.2f retry=%llu ovfl=%llu   "
              "dcc-on: recv=%6.3f cbr=%.2f retry=%llu ovfl=%llu gated=%llu\n",
              r.flood_hz, r.recv_off, r.cbr_off,
              static_cast<unsigned long long>(r.retry_off),
              static_cast<unsigned long long>(r.overflow_off), r.recv_on, r.cbr_on,
              static_cast<unsigned long long>(r.retry_on),
              static_cast<unsigned long long>(r.overflow_on),
              static_cast<unsigned long long>(r.gated_on));
}

void print_row(const Row& r) {
  std::printf("  %-7s %-8.3f recv_af=%6.3f recv_atk=%6.3f gamma=%6.1f%%  "
              "recv_mit=%6.3f gamma_mit=%6.1f%%  recv_rec=%6.3f gamma_rec=%6.1f%%\n",
              r.axis.c_str(), r.level, r.recv_baseline, r.recv_attacked, r.gamma * 100.0,
              r.recv_mitigated, r.gamma_mitigated * 100.0, r.recv_recovered,
              r.gamma_recovered * 100.0);
}

}  // namespace

int run_resilience_sweep(Supervisor& sup, Fidelity f, const ResilienceSelection& selection,
                         const std::string& json_path) {
  std::vector<Row> rows;

  // --- Sweep 1: channel loss ----------------------------------------------
  if (!selection.loss.empty()) {
    std::printf("\n[1] Channel-loss sweep (frame drop + link loss + corruption, GE bursts)\n");
  }
  for (const double drop : selection.loss) {
    HighwayConfig cfg;
    cfg.attack = scenario::AttackKind::kInterArea;
    cfg.faults.drop_probability = drop;
    cfg.faults.link_loss_probability = drop / 2.0;
    cfg.faults.corrupt_probability = drop / 4.0;
    if (drop >= 0.2) {
      // Upper settings add a burst component: ~5-frame bad states in which
      // everything is lost, entered roughly every hundred frames.
      cfg.faults.ge_p_good_to_bad = 0.01;
      cfg.faults.ge_p_bad_to_good = 0.2;
    }
    rows.push_back(run_point(sup, cfg, f, "loss", drop));
    print_row(rows.back());
  }

  // --- Sweep 2: node churn ------------------------------------------------
  if (!selection.churn.empty()) {
    std::printf("\n[2] Churn sweep (fleet-wide crash rate, 2 s downtime, always reboot)\n");
  }
  for (const double rate : selection.churn) {
    HighwayConfig cfg;
    cfg.attack = scenario::AttackKind::kInterArea;
    cfg.churn.crash_rate_hz = rate;
    cfg.churn.downtime_s = 2.0;
    rows.push_back(run_point(sup, cfg, f, "churn", rate));
    print_row(rows.back());
  }

  // --- Sweep 3: channel congestion ---------------------------------------
  if (!selection.flood.empty()) {
    std::printf("\n[3] Congestion sweep (replay flooder vs CSMA/CA, DCC off/on)\n");
  }
  std::vector<CongestionRow> congestion;
  for (const double hz : selection.flood) {
    HighwayConfig cfg;
    congestion.push_back(run_congestion_point(sup, cfg, f, hz));
    print_congestion_row(congestion.back());
  }

  sup.finish();

  // --- JSON artifact ------------------------------------------------------
  // Result sections first, supervisor health block strictly last: resumed
  // and uninterrupted runs of the same sweep agree byte for byte on
  // everything before the `"supervisor"` key (the kill-and-resume test's
  // comparison prefix), while the health counters legitimately differ.
  std::FILE* fjson = std::fopen(json_path.c_str(), "w");
  if (fjson == nullptr) {
    std::fprintf(stderr, "bench_resilience: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(fjson, "{\n  \"runs\": %llu,\n  \"sim_seconds\": %.1f,\n  \"points\": [\n",
               static_cast<unsigned long long>(f.runs), f.sim_seconds);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(fjson,
                 "    {\"axis\": \"%s\", \"level\": %.3f, \"recv_baseline\": %.17g, "
                 "\"recv_attacked\": %.17g, \"gamma\": %.17g, \"recv_mitigated\": %.17g, "
                 "\"gamma_mitigated\": %.17g, \"recv_recovered\": %.17g, "
                 "\"gamma_recovered\": %.17g}%s\n",
                 r.axis.c_str(), r.level, r.recv_baseline, r.recv_attacked, r.gamma,
                 r.recv_mitigated, r.gamma_mitigated, r.recv_recovered, r.gamma_recovered,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(fjson, "  ],\n  \"congestion\": [\n");
  for (std::size_t i = 0; i < congestion.size(); ++i) {
    const CongestionRow& r = congestion[i];
    std::fprintf(fjson,
                 "    {\"flood_hz\": %.0f, \"recv_dcc_off\": %.17g, \"recv_dcc_on\": %.17g, "
                 "\"peak_cbr_off\": %.17g, \"peak_cbr_on\": %.17g, "
                 "\"retry_exhausted_off\": %llu, \"queue_overflow_off\": %llu, "
                 "\"retry_exhausted_on\": %llu, \"queue_overflow_on\": %llu, "
                 "\"dcc_gated_on\": %llu, \"frames_flooded\": %llu}%s\n",
                 r.flood_hz, r.recv_off, r.recv_on, r.cbr_off, r.cbr_on,
                 static_cast<unsigned long long>(r.retry_off),
                 static_cast<unsigned long long>(r.overflow_off),
                 static_cast<unsigned long long>(r.retry_on),
                 static_cast<unsigned long long>(r.overflow_on),
                 static_cast<unsigned long long>(r.gated_on),
                 static_cast<unsigned long long>(r.frames_flooded),
                 i + 1 < congestion.size() ? "," : "");
  }
  std::fprintf(fjson, "  ],\n  \"supervisor\": {\"enabled\": %s",
               sup.enabled() ? "true" : "false");
  for_each_counter([fjson](const char* name, std::uint64_t value) {
    std::fprintf(fjson, ", \"%s\": %llu", name, static_cast<unsigned long long>(value));
  }, sup.counters());
  std::fprintf(fjson, "}\n}\n");
  std::fclose(fjson);
  std::printf("\nwrote %s\n", json_path.c_str());
  sup.report_drain();
  return 0;
}

}  // namespace vgr::sweep
