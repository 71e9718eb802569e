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
#include "vgr/scenario/station.hpp"
#include "vgr/scenario/vulnerability.hpp"
#include "vgr/security/authority.hpp"
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
  /// Copy with `VGR_CHURN_RATE`, `VGR_CHURN_DOWNTIME_MS` and
  /// `VGR_CHURN_REBOOT_P` applied over the programmatic values.
  [[nodiscard]] ChurnConfig with_env_overrides() const;
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

  [[nodiscard]] bool enabled() const { return scf || retx || nbr_monitor; }
  /// Copy with `VGR_SCF`, `VGR_SCF_MAX_PKTS`, `VGR_SCF_MAX_BYTES`,
  /// `VGR_RETX`, `VGR_RETX_MAX`, `VGR_RETX_BACKOFF_MS` and
  /// `VGR_NBR_MONITOR` applied over the programmatic values.
  [[nodiscard]] RecoveryConfig with_env_overrides() const;
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
};

/// One vulnerable packet of the inter-area experiment.
struct InterAreaPacketRecord {
  sim::TimePoint sent_at{};
  double source_x{0.0};
  traffic::Direction target{traffic::Direction::kEastbound};
  bool received{false};
  sim::TimePoint received_at{};  ///< valid when `received`
};

struct InterAreaResult {
  std::vector<InterAreaPacketRecord> packets;
  sim::Duration horizon{};
  std::uint64_t beacons_replayed{0};
  std::uint64_t auth_failures{0};
  std::uint64_t churn_crashes{0};
  std::uint64_t churn_reboots{0};
  /// MAC-plane counters aggregated over every honest station of the run
  /// (vehicles incl. crashed ones, destinations). All zero with the MAC
  /// layer off.
  phy::MacStats mac{};
  /// Highest raw CBR sample any honest station measured (MAC layer only).
  double peak_cbr{0.0};
  /// Hardened-ingest drops summed over all stations and causes.
  std::uint64_t ingest_drops{0};
  /// Congestion-flood replays (kCongestionFlood runs only).
  std::uint64_t frames_flooded{0};
  /// The run tripped the per-run watchdog and stopped before its horizon.
  bool timed_out{false};
  /// Which budget bound tripped (kNone unless `timed_out`).
  sim::BudgetTrip timed_out_cause{sim::BudgetTrip::kNone};

  [[nodiscard]] double overall_reception() const;
  [[nodiscard]] sim::BinnedRate binned(
      sim::Duration bin = sim::Duration::seconds(5.0)) const;
  /// End-to-end delivery latencies (seconds) of received packets.
  [[nodiscard]] sim::Histogram latency() const;
};

/// One CBF flood of the intra-area experiment.
struct IntraAreaFloodRecord {
  sim::TimePoint sent_at{};
  double source_x{0.0};
  bool source_fully_covered{false};
  std::uint64_t reached{0};  ///< vehicles (incl. source) that got the packet
  std::uint64_t total{0};    ///< vehicles on road at generation time
  sim::TimePoint last_reach_at{};  ///< time of the flood's final delivery
};

struct IntraAreaResult {
  std::vector<IntraAreaFloodRecord> floods;
  sim::Duration horizon{};
  std::uint64_t packets_replayed{0};
  std::uint64_t churn_crashes{0};
  std::uint64_t churn_reboots{0};
  /// MAC-plane counters aggregated over every honest station (see
  /// InterAreaResult::mac).
  phy::MacStats mac{};
  double peak_cbr{0.0};
  std::uint64_t ingest_drops{0};
  std::uint64_t frames_flooded{0};
  /// The run tripped the per-run watchdog and stopped before its horizon.
  bool timed_out{false};
  /// Which budget bound tripped (kNone unless `timed_out`).
  sim::BudgetTrip timed_out_cause{sim::BudgetTrip::kNone};

  [[nodiscard]] double overall_reception() const;
  [[nodiscard]] sim::BinnedRate binned(
      sim::Duration bin = sim::Duration::seconds(5.0)) const;
  /// Reception split by source location relative to the fully covered area
  /// (paper §IV-A): {inside, outside}.
  [[nodiscard]] std::pair<double, double> reception_by_source_location() const;
  /// Flood completion times (seconds from generation to last delivery).
  [[nodiscard]] sim::Histogram completion_latency() const;
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

  [[nodiscard]] std::uint64_t churn_crashes() const { return churn_crashes_; }
  [[nodiscard]] std::uint64_t churn_reboots() const { return churn_reboots_; }

 private:
  void spawn_station(traffic::Vehicle& v);
  void destroy_station(traffic::Vehicle& v);
  /// Folds a router's MAC/ingest counters into the run totals. Stations
  /// come and go mid-run (exit, crash), so totals accumulate at teardown
  /// and the run end sweeps whoever is left.
  void harvest_station_stats(const gn::Router& router);
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

  /// Run-wide MAC/ingest totals (see harvest_station_stats).
  phy::MacStats mac_totals_{};
  double peak_cbr_{0.0};
  std::uint64_t ingest_drop_totals_{0};

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
