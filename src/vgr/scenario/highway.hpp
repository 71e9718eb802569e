#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "vgr/attack/congestion_flood.hpp"
#include "vgr/attack/inter_area.hpp"
#include "vgr/attack/intra_area.hpp"
#include "vgr/mitigation/profiles.hpp"
#include "vgr/phy/medium.hpp"
#include "vgr/scenario/run_counters.hpp"
#include "vgr/scenario/station.hpp"
#include "vgr/scenario/vulnerability.hpp"
#include "vgr/security/authority.hpp"
#include "vgr/sim/env.hpp"
#include "vgr/sim/event_queue.hpp"
#include "vgr/sim/histogram.hpp"
#include "vgr/sim/timeline.hpp"
#include "vgr/traffic/traffic_sim.hpp"

namespace vgr::scenario {

/// Which attacker (if any) is deployed in a highway run. The attack
/// *geometry* (range, position) is always configured, even in attacker-free
/// runs, because the vulnerable-packet workload of the paper is defined
/// relative to the hypothetical attacker (Fig 6) and the A/B pairing needs
/// identical workloads.
enum class AttackKind { kNone, kInterArea, kIntraArea, kCongestionFlood };

/// Node churn: stations crash at random (their radio goes silent
/// mid-protocol, losing location table, CBF/GF buffers and duplicate-
/// detector state) and optionally reboot after a fixed downtime. Crash
/// times and victims are drawn from a dedicated seeded stream, so churn
/// runs replay exactly and a disabled config (`crash_rate_hz == 0`)
/// leaves the simulation bit-identical to one without churn support.
struct ChurnConfig {
  /// Expected crashes per second across the whole fleet (Poisson process).
  double crash_rate_hz{0.0};
  /// Crash-to-reboot delay, seconds.
  double downtime_s{2.0};
  /// Probability a crashed station reboots at all (else it stays dark
  /// until it leaves the road).
  double reboot_probability{1.0};

  [[nodiscard]] bool enabled() const { return crash_rate_hz > 0.0; }

  friend bool operator==(const ChurnConfig&, const ChurnConfig&) = default;
};

/// Recovery-layer switches applied to every vehicle router
/// (docs/robustness.md): store-carry-forward buffering, bounded per-hop
/// retransmission, and the neighbour soft-state monitor. Everything
/// defaults to off; a disabled config schedules no events and draws nothing
/// from any RNG stream, so pre-recovery outputs stay bit-identical.
struct RecoveryConfig {
  bool scf{false};
  std::size_t scf_max_packets{64};
  std::size_t scf_max_bytes{64 * 1024};
  bool retx{false};
  int retx_max_attempts{3};
  double retx_backoff_ms{10.0};
  bool nbr_monitor{false};

  /// Most same-hop retransmissions VGR_RETX_MAX accepts: the router doubles
  /// the backoff per attempt, and base * 2^30 stays within the nanosecond
  /// clock for any base below 8.5 s.
  static constexpr int kRetxLimit = 30;

  [[nodiscard]] bool enabled() const { return scf || retx || nbr_monitor; }

  friend bool operator==(const RecoveryConfig&, const RecoveryConfig&) = default;
};

/// Full configuration of one simulation run on the paper's 4,000 m highway.
struct HighwayConfig {
  phy::AccessTechnology tech{phy::AccessTechnology::kDsrc};

  // Road & traffic (paper §IV-A defaults).
  double road_length_m{4000.0};
  int lanes_per_direction{2};
  bool two_way{false};
  double entry_spacing_m{30.0};
  double prefill_spacing_m{30.0};

  // Communications.
  double vehicle_range_m{-1.0};  ///< <= 0: NLoS median of `tech` (Table II)
  sim::Duration locte_ttl{sim::Duration::seconds(20.0)};
  sim::Duration beacon_interval{sim::Duration::seconds(3.0)};
  std::uint8_t hop_limit{10};

  // Workload.
  sim::Duration sim_duration{sim::Duration::seconds(200.0)};
  sim::Duration packet_interval{sim::Duration::seconds(1.0)};
  std::uint64_t seed{1};

  // Attacker.
  AttackKind attack{AttackKind::kNone};
  double attack_range_m{327.0};  ///< also defines vulnerability geometry when kNone
  double attacker_x_m{-1.0};     ///< < 0: road centre
  double attacker_y_m{12.5};     ///< roadside, just past the outermost lane
  attack::IntraAreaBlocker::Config blocker{};
  /// Replay rate of the congestion flooder (kCongestionFlood only).
  double flood_rate_hz{1000.0};

  // Mitigations.
  mitigation::Profile mitigation{mitigation::Profile::kNone};
  mitigation::Parameters mitigation_params{};

  // Ablation switches.
  /// Enables co-channel interference on the medium (off in the paper).
  bool interference{false};
  /// Disables the medium's spatial index (falls back to the O(N) per-frame
  /// scan). Results are identical either way; `bench_scale` uses this to
  /// measure the crossover and the determinism test to prove equivalence.
  bool spatial_index{true};
  /// > 0: every vehicle rotates to a fresh pseudonym with this period —
  /// demonstrates that unlinkable identities do not blunt either attack.
  double pseudonym_period_s{-1.0};
  /// Enables the ACK'd-forwarding extension on every router.
  bool gf_ack{false};

  // Resilience (docs/robustness.md). Both default to disabled; a disabled
  // fault/churn config draws nothing from any RNG stream, so every output
  // stays bit-identical to a build without the resilience layer.
  phy::FaultConfig faults{};
  ChurnConfig churn{};
  RecoveryConfig recovery{};
  /// MAC contention layer + reactive DCC applied to every router
  /// (docs/robustness.md). Both default off; off is free.
  phy::MacConfig mac{};
  phy::DccConfig dcc{};

  // Per-run watchdog (0 = off): a run whose event queue exceeds either
  // budget stops early and is reported as `timed_out` instead of hanging
  // the sweep. The event-count breaker is deterministic; the wall-clock one
  // is host-dependent by nature and meant for CI hang protection only.
  double run_wall_budget_s{0.0};
  std::uint64_t run_max_events{0};

  [[nodiscard]] double resolved_vehicle_range() const;
  [[nodiscard]] double resolved_attacker_x() const;
  [[nodiscard]] AttackGeometry attack_geometry() const;

  /// Field-wise equality over the whole config, nested configs included: the
  /// A/B runner keys reused arms by it (docs/performance.md "Arm reuse"), so
  /// a field added later joins the key with no edit.
  friend bool operator==(const HighwayConfig&, const HighwayConfig&) = default;
};

/// Calls `fn(name, field, range)` once per run-config knob (sim/env.hpp):
/// the one list of the VGR_* variables run_arms() applies over every arm's
/// config, with the fields they set and the values they accept, in the
/// variable's unit (docs/robustness.md has the tables).
template <typename Fn>
constexpr void for_each_knob(Fn&& fn, HighwayConfig& c) {
  using sim::Range;
  // Time knobs stop at sim::kMaxKnobSeconds. A retransmission backoff
  // doubles up to kRetxLimit (30) times and a MAC backoff is up to kCwLimit
  // (< 2^30) slots, so those two stop at 8.5 s: 8.5 s * 2^30 still fits the
  // nanosecond clock.
  constexpr double kMaxScaledSeconds = 8.5;
  constexpr Range kMillis{.lo = 0.0, .hi = sim::kMaxKnobSeconds * 1e3, .per_unit = 1e3};
  fn("VGR_FAULT_DROP", c.faults.drop_probability, sim::kProbability);
  fn("VGR_FAULT_LINK_LOSS", c.faults.link_loss_probability, sim::kProbability);
  fn("VGR_FAULT_CORRUPT", c.faults.corrupt_probability, sim::kProbability);
  fn("VGR_FAULT_DUP", c.faults.duplicate_probability, sim::kProbability);
  fn("VGR_FAULT_DELAY_MS", c.faults.max_extra_delay_s, kMillis);
  fn("VGR_FAULT_GE_P_GB", c.faults.ge_p_good_to_bad, sim::kProbability);
  fn("VGR_FAULT_GE_P_BG", c.faults.ge_p_bad_to_good, sim::kProbability);
  fn("VGR_FAULT_GE_LOSS_GOOD", c.faults.ge_loss_good, sim::kProbability);
  fn("VGR_FAULT_GE_LOSS_BAD", c.faults.ge_loss_bad, sim::kProbability);
  fn("VGR_CHURN_RATE", c.churn.crash_rate_hz, sim::kNonNegative);
  fn("VGR_CHURN_DOWNTIME_MS", c.churn.downtime_s, kMillis);
  fn("VGR_CHURN_REBOOT_P", c.churn.reboot_probability, sim::kProbability);
  fn("VGR_SCF", c.recovery.scf, sim::kFlag);
  fn("VGR_SCF_MAX_PKTS", c.recovery.scf_max_packets, sim::kNonNegative);
  fn("VGR_SCF_MAX_BYTES", c.recovery.scf_max_bytes, sim::kNonNegative);
  fn("VGR_RETX", c.recovery.retx, sim::kFlag);
  fn("VGR_RETX_MAX", c.recovery.retx_max_attempts,
     Range{.lo = 1, .hi = RecoveryConfig::kRetxLimit});
  fn("VGR_RETX_BACKOFF_MS", c.recovery.retx_backoff_ms,
     Range{.lo = 0.0, .hi = kMaxScaledSeconds * 1e3, .lo_open = true});
  fn("VGR_NBR_MONITOR", c.recovery.nbr_monitor, sim::kFlag);
  fn("VGR_MAC", c.mac.enabled, sim::kFlag);
  fn("VGR_MAC_QUEUE", c.mac.queue_limit, Range{.lo = 1});
  fn("VGR_MAC_SLOT_US", c.mac.slot,
     Range{.lo = 0.0, .hi = kMaxScaledSeconds * 1e6, .lo_open = true, .per_unit = 1e6});
  fn("VGR_MAC_AIFS_US", c.mac.aifs,
     Range{.lo = 0.0, .hi = sim::kMaxKnobSeconds * 1e6, .per_unit = 1e6});
  fn("VGR_MAC_CW_MIN", c.mac.cw_min, Range{.lo = 0, .hi = phy::MacConfig::kCwLimit});
  fn("VGR_MAC_CW_MAX", c.mac.cw_max, Range{.lo = 0, .hi = phy::MacConfig::kCwLimit});
  fn("VGR_MAC_RETRY", c.mac.max_retries, Range{.lo = 0, .hi = phy::MacConfig::kRetryLimit});
  fn("VGR_MAC_DCC_RETRY_SCALE", c.mac.dcc_retry_scale,
     Range{.lo = 1, .hi = phy::MacConfig::kRetryLimit});
  fn("VGR_MAC_OVERHEAD_BYTES", c.mac.airtime_overhead_bytes, sim::kNonNegative);
  fn("VGR_DCC", c.dcc.enabled, sim::kFlag);
  fn("VGR_DCC_SAMPLE_MS", c.dcc.sample_interval,
     Range{.lo = 0.0, .hi = sim::kMaxKnobSeconds * 1e3, .lo_open = true, .per_unit = 1e3});
  fn("VGR_DCC_WINDOW", c.dcc.window_samples,
     Range{.lo = 1, .hi = phy::DccConfig::kMaxWindow, .clamp_hi = true});
}

/// What every highway run reports besides its workload records: the
/// counters (the RunCounters base), the horizon, churn and the watchdog.
struct RunResult : RunCounters {
  sim::Duration horizon{};
  std::uint64_t churn_crashes{0};
  std::uint64_t churn_reboots{0};
  /// The run tripped the per-run watchdog and stopped before its horizon.
  bool timed_out{false};
  /// Which budget bound tripped (kNone unless `timed_out`).
  sim::BudgetTrip timed_out_cause{sim::BudgetTrip::kNone};

  friend bool operator==(const RunResult&, const RunResult&) = default;
};

/// One vulnerable packet of the inter-area experiment.
struct InterAreaPacketRecord {
  sim::TimePoint sent_at{};
  double source_x{0.0};
  traffic::Direction target{traffic::Direction::kEastbound};
  bool received{false};
  sim::TimePoint received_at{};  ///< valid when `received`
  friend bool operator==(const InterAreaPacketRecord&, const InterAreaPacketRecord&) = default;
};

/// The inter-area run's packets.
struct InterAreaResult : RunResult {
  std::vector<InterAreaPacketRecord> packets;
  std::uint64_t beacons_replayed{0};

  [[nodiscard]] double overall_reception() const;
  [[nodiscard]] sim::BinnedRate binned(
      sim::Duration bin = sim::Duration::seconds(5.0)) const;
  /// End-to-end delivery latencies (seconds) of received packets.
  [[nodiscard]] sim::Histogram latency() const;
  friend bool operator==(const InterAreaResult&, const InterAreaResult&) = default;
};

/// One CBF flood of the intra-area experiment. A reader that splits floods
/// by their source applies its own geometry to `source_x`.
struct IntraAreaFloodRecord {
  sim::TimePoint sent_at{};
  double source_x{0.0};
  std::uint64_t reached{0};  ///< vehicles (incl. source) that got the packet
  std::uint64_t total{0};    ///< vehicles on road at generation time
  friend bool operator==(const IntraAreaFloodRecord&, const IntraAreaFloodRecord&) = default;
};

/// The intra-area run's floods.
struct IntraAreaResult : RunResult {
  std::vector<IntraAreaFloodRecord> floods;
  std::uint64_t packets_replayed{0};

  [[nodiscard]] double overall_reception() const;
  [[nodiscard]] sim::BinnedRate binned(
      sim::Duration bin = sim::Duration::seconds(5.0)) const;
  friend bool operator==(const IntraAreaResult&, const IntraAreaResult&) = default;
};

/// Builds and runs the paper's highway evaluation scenario: IDM traffic on
/// the 4 km segment, a full GeoNetworking stack per vehicle, static
/// destination stations beyond both ends, and an optional roadside attacker
/// at the centre. One instance executes one run (`run_inter_area` *or*
/// `run_intra_area`).
class HighwayScenario {
 public:
  explicit HighwayScenario(HighwayConfig config);
  ~HighwayScenario();

  HighwayScenario(const HighwayScenario&) = delete;
  HighwayScenario& operator=(const HighwayScenario&) = delete;

  /// Fig 7/8/14a experiment: vulnerable packets toward the two static
  /// destinations, Greedy Forwarding between areas.
  InterAreaResult run_inter_area();

  /// Fig 9/10/14b experiment: CBF floods over the whole road segment.
  IntraAreaResult run_intra_area();

  // --- Introspection (valid after a run) -------------------------------
  [[nodiscard]] const phy::Medium& medium() const { return *medium_; }
  [[nodiscard]] const traffic::TrafficSimulation& traffic() const { return *traffic_; }
  [[nodiscard]] std::size_t stations_created() const { return stations_created_; }
  [[nodiscard]] const HighwayConfig& config() const { return config_; }

 private:
  void spawn_station(traffic::Vehicle& v);
  void destroy_station(traffic::Vehicle& v);
  /// Folds a router's MAC/ingest counters into `counters_`. Stations come
  /// and go mid-run (exit, crash), so totals accumulate at teardown and
  /// finish_run() sweeps whoever is left.
  void harvest_station_stats(const gn::Router& router);
  /// Writes the run's counters and status into `result` once its events
  /// have run: the surviving stations harvested, the flooder's replays and
  /// the medium's frame count added.
  void finish_run(RunResult& result);
  /// Creates (or re-creates, on reboot) the router half of a vehicle
  /// station; `st.mobility` must already be set. Reboots draw their RNG and
  /// their randomized initial sequence number from the churn stream.
  void install_vehicle_router(traffic::VehicleId vid, Station& st, sim::Rng rng, bool rebooted);
  void schedule_churn();
  void crash_random_station();
  void reboot_station(traffic::VehicleId vid);
  void schedule_pseudonym_rotation(traffic::VehicleId id);
  gn::RouterConfig make_router_config() const;
  void schedule_inter_area_workload();
  void schedule_intra_area_workload();
  void generate_inter_area_packet();
  void generate_intra_area_flood();
  [[nodiscard]] geo::GeoArea destination_area(traffic::Direction dir) const;
  [[nodiscard]] geo::GeoArea whole_road_area() const;

  HighwayConfig config_;
  double vehicle_range_m_;
  AttackGeometry geometry_;

  sim::Rng master_rng_;
  sim::Rng workload_rng_;
  /// Dedicated churn stream, seeded independently of `master_rng_` (salted
  /// run seed) so enabling churn never perturbs the fork order that every
  /// pre-existing consumer depends on for reproducibility.
  sim::Rng churn_rng_;
  /// Declared before the medium, stations and attackers below so their
  /// destructors can still cancel events.
  sim::EventQueue events_;
  security::CertificateAuthority ca_;
  std::unique_ptr<phy::Medium> medium_;
  traffic::RoadSegment road_;
  std::unique_ptr<traffic::TrafficSimulation> traffic_;

  std::unordered_map<traffic::VehicleId, Station> stations_;
  std::size_t stations_created_{0};
  std::uint64_t churn_crashes_{0};
  std::uint64_t churn_reboots_{0};

  // Static destination stations (inter-area mode).
  Station east_destination_;
  Station west_destination_;

  std::unique_ptr<attack::InterAreaInterceptor> interceptor_;
  std::unique_ptr<attack::IntraAreaBlocker> blocker_;
  std::unique_ptr<attack::CongestionFlooder> flooder_;

  /// Run-wide counters (see harvest_station_stats).
  RunCounters counters_{};

  // Workload bookkeeping.
  std::uint64_t next_packet_id_{1};
  std::vector<InterAreaPacketRecord> inter_records_;
  std::unordered_map<std::uint64_t, std::size_t> inter_pending_;  // id -> record index
  struct FloodState {
    std::size_t record_index;
    /// Vehicles that have not received this flood yet, kept sorted so the
    /// delivery handler can binary-search — one vector per flood instead of
    /// a hash node per (flood, vehicle).
    std::vector<traffic::VehicleId> remaining;
  };
  std::vector<IntraAreaFloodRecord> flood_records_;
  std::unordered_map<std::uint64_t, FloodState> floods_pending_;  // id -> state
  bool intra_mode_{false};
};

}  // namespace vgr::scenario
