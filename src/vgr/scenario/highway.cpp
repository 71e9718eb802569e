#include "vgr/scenario/highway.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "vgr/sim/env.hpp"

namespace vgr::scenario {
namespace {

net::Bytes encode_packet_id(std::uint64_t id) {
  net::Bytes b(8);
  for (int i = 0; i < 8; ++i) b[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(id >> (8 * i));
  return b;
}

std::uint64_t decode_packet_id(const net::Bytes& b) {
  if (b.size() < 8) return 0;
  std::uint64_t id = 0;
  for (int i = 0; i < 8; ++i) id |= static_cast<std::uint64_t>(b[static_cast<std::size_t>(i)]) << (8 * i);
  return id;
}

}  // namespace

ChurnConfig ChurnConfig::with_env_overrides() const {
  ChurnConfig c = *this;
  if (const auto v = sim::env_double("VGR_CHURN_RATE"); v.has_value() && *v >= 0.0) {
    c.crash_rate_hz = *v;
  }
  if (const auto v = sim::env_double("VGR_CHURN_DOWNTIME_MS"); v.has_value() && *v >= 0.0) {
    c.downtime_s = *v / 1000.0;
  }
  if (const auto v = sim::env_double("VGR_CHURN_REBOOT_P");
      v.has_value() && *v >= 0.0 && *v <= 1.0) {
    c.reboot_probability = *v;
  }
  return c;
}

RecoveryConfig RecoveryConfig::with_env_overrides() const {
  RecoveryConfig r = *this;
  if (const auto v = sim::env_int("VGR_SCF"); v.has_value()) r.scf = *v != 0;
  if (const auto v = sim::env_int("VGR_SCF_MAX_PKTS"); v.has_value() && *v >= 0) {
    r.scf_max_packets = static_cast<std::size_t>(*v);
  }
  if (const auto v = sim::env_int("VGR_SCF_MAX_BYTES"); v.has_value() && *v >= 0) {
    r.scf_max_bytes = static_cast<std::size_t>(*v);
  }
  if (const auto v = sim::env_int("VGR_RETX"); v.has_value()) r.retx = *v != 0;
  if (const auto v = sim::env_int("VGR_RETX_MAX"); v.has_value() && *v > 0) {
    r.retx_max_attempts = static_cast<int>(*v);
  }
  if (const auto v = sim::env_double("VGR_RETX_BACKOFF_MS"); v.has_value() && *v > 0.0) {
    r.retx_backoff_ms = *v;
  }
  if (const auto v = sim::env_int("VGR_NBR_MONITOR"); v.has_value()) r.nbr_monitor = *v != 0;
  return r;
}

double HighwayConfig::resolved_vehicle_range() const {
  if (vehicle_range_m > 0.0) return vehicle_range_m;
  return phy::range_table(tech).nlos_median_m;
}

double HighwayConfig::resolved_attacker_x() const {
  return attacker_x_m >= 0.0 ? attacker_x_m : road_length_m / 2.0;
}

AttackGeometry HighwayConfig::attack_geometry() const {
  return AttackGeometry{resolved_attacker_x(), attack_range_m, resolved_vehicle_range()};
}

double InterAreaResult::overall_reception() const {
  if (packets.empty()) return 0.0;
  std::size_t hits = 0;
  for (const auto& r : packets) hits += r.received ? 1 : 0;
  return static_cast<double>(hits) / static_cast<double>(packets.size());
}

sim::BinnedRate InterAreaResult::binned(sim::Duration bin) const {
  sim::BinnedRate rate{bin, horizon};
  for (const auto& r : packets) rate.record(r.sent_at, r.received ? 1.0 : 0.0, 1.0);
  return rate;
}

sim::Histogram InterAreaResult::latency() const {
  sim::Histogram h;
  for (const auto& r : packets) {
    if (r.received) h.add((r.received_at - r.sent_at).to_seconds());
  }
  return h;
}

double IntraAreaResult::overall_reception() const {
  double reached = 0.0, total = 0.0;
  for (const auto& f : floods) {
    reached += static_cast<double>(f.reached);
    total += static_cast<double>(f.total);
  }
  return total > 0.0 ? reached / total : 0.0;
}

sim::BinnedRate IntraAreaResult::binned(sim::Duration bin) const {
  sim::BinnedRate rate{bin, horizon};
  for (const auto& f : floods) {
    rate.record(f.sent_at, static_cast<double>(f.reached), static_cast<double>(f.total));
  }
  return rate;
}

std::pair<double, double> IntraAreaResult::reception_by_source_location() const {
  double in_hits = 0.0, in_total = 0.0, out_hits = 0.0, out_total = 0.0;
  for (const auto& f : floods) {
    if (f.source_fully_covered) {
      in_hits += static_cast<double>(f.reached);
      in_total += static_cast<double>(f.total);
    } else {
      out_hits += static_cast<double>(f.reached);
      out_total += static_cast<double>(f.total);
    }
  }
  return {in_total > 0.0 ? in_hits / in_total : 0.0,
          out_total > 0.0 ? out_hits / out_total : 0.0};
}

sim::Histogram IntraAreaResult::completion_latency() const {
  sim::Histogram h;
  for (const auto& f : floods) {
    if (f.reached > 1) h.add((f.last_reach_at - f.sent_at).to_seconds());
  }
  return h;
}

HighwayScenario::HighwayScenario(HighwayConfig config)
    : config_{config},
      vehicle_range_m_{config.resolved_vehicle_range()},
      geometry_{config.attack_geometry()},
      master_rng_{config.seed},
      workload_rng_{master_rng_.fork()},
      // Salted independent seed, NOT a master fork: forking here would shift
      // the stream every later fork() consumer sees and silently change all
      // pre-churn results.
      churn_rng_{config.seed ^ 0xC0FF'EE00'5EED'1234ULL},
      road_{config.road_length_m, config.lanes_per_direction, config.two_way} {
  medium_ = std::make_unique<phy::Medium>(events_, config_.tech, master_rng_.fork());
  medium_->set_interference(config_.interference);
  medium_->set_spatial_index(config_.spatial_index);
  if (config_.faults.enabled()) {
    // The injector's stream is likewise salted and private; installing it
    // only when faults are configured keeps fault-free runs bit-identical.
    medium_->set_fault_injector(std::make_unique<phy::FaultInjector>(
        config_.faults, sim::Rng{config_.seed ^ 0xFA01'7EC7'0000'BEEFULL}));
  }
  // Vehicle positions only change on the traffic tick, so one index rebuild
  // per tick serves every frame transmitted until the next tick.
  medium_->set_index_mode(phy::IndexMode::kExplicit);
  // Frame airtime counts the link-layer envelope only when the MAC layer is
  // on: MAC-off runs keep the historical GN-only airtime bit-for-bit.
  if (config_.mac.enabled) {
    medium_->set_airtime_overhead_bytes(config_.mac.airtime_overhead_bytes);
  }

  traffic::TrafficSimulation::Config tcfg;
  tcfg.entry_spacing_m = config_.entry_spacing_m;
  tcfg.prefill_spacing_m = config_.prefill_spacing_m;
  traffic_ = std::make_unique<traffic::TrafficSimulation>(road_, tcfg);
  traffic_->set_on_spawn([this](traffic::Vehicle& v) { spawn_station(v); });
  traffic_->set_on_exit([this](traffic::Vehicle& v) { destroy_station(v); });
  traffic_->set_on_tick([this] { medium_->invalidate_index(); });
}

HighwayScenario::~HighwayScenario() = default;

gn::RouterConfig HighwayScenario::make_router_config() const {
  gn::RouterConfig rc = gn::RouterConfig::for_technology(config_.tech);
  rc.locte_ttl = config_.locte_ttl;
  rc.beacon_interval = config_.beacon_interval;
  // Jitter scales with the interval so CAM-rate sweeps (0.1 s beacons in the
  // congestion arm) keep the same relative spread; at the 3 s default this
  // reproduces the RouterConfig default of 0.75 s exactly.
  rc.beacon_jitter = config_.beacon_interval * 0.25;
  rc.cbf_dist_max_m = vehicle_range_m_;
  rc.default_hop_limit = config_.hop_limit;
  rc.gf_ack = config_.gf_ack;
  rc.scf_enabled = config_.recovery.scf;
  rc.scf_max_packets = config_.recovery.scf_max_packets;
  rc.scf_max_bytes = config_.recovery.scf_max_bytes;
  rc.retx_enabled = config_.recovery.retx;
  rc.retx_max_attempts = config_.recovery.retx_max_attempts;
  rc.retx_backoff_base = sim::Duration::seconds(config_.recovery.retx_backoff_ms / 1000.0);
  rc.retx_backoff_jitter = rc.retx_backoff_base * 0.2;
  rc.nbr_monitor = config_.recovery.nbr_monitor;
  rc.mac = config_.mac;
  rc.dcc = config_.dcc;
  // SCF implies the CBF lifetime bound: both exist to stop per-packet state
  // outliving the packet.
  rc.cbf_lifetime_expiry = config_.recovery.scf;
  mitigation::apply(config_.mitigation, rc, config_.mitigation_params);
  return rc;
}

void HighwayScenario::schedule_pseudonym_rotation(traffic::VehicleId id) {
  const auto period = sim::Duration::seconds(config_.pseudonym_period_s);
  const auto jitter =
      sim::Duration::seconds(config_.pseudonym_period_s * workload_rng_.uniform());
  events_.schedule_in(period + jitter, [this, id] {
    const auto it = stations_.find(id);
    if (it == stations_.end()) return;  // vehicle exited
    if (it->second.router) {            // crashed stations skip this rotation
      const net::MacAddress alias_mac{workload_rng_.next_u64()};
      it->second.router->rotate_identity(ca_.issue_pseudonym(
          net::GnAddress{net::GnAddress::StationType::kPassengerCar, alias_mac}));
    }
    schedule_pseudonym_rotation(id);
  });
}

void HighwayScenario::install_vehicle_router(traffic::VehicleId vid, Station& st, sim::Rng rng,
                                             bool rebooted) {
  // Identity: one long-term certificate per vehicle, MAC derived from the
  // vehicle id (unique within a run). A rebooted station keeps its
  // canonical address — rebooting does not change who you are — which is
  // precisely what makes the stale duplicate-detector state at its peers
  // dangerous (see the sequence-number randomization below).
  const net::MacAddress mac{0x0200'0000'0000ULL | vid};
  const net::GnAddress addr{net::GnAddress::StationType::kPassengerCar, mac};
  st.router = std::make_unique<gn::Router>(events_, *medium_, security::Signer{ca_.enroll(addr)},
                                           ca_.trust_store(), *st.mobility,
                                           make_router_config(), vehicle_range_m_, rng);
  if (rebooted) {
    // TCP-ISN-style randomization: peers still hold (address, sequence)
    // entries from before the crash, so a reboot that restarts at 0 gets
    // its first packets swallowed as duplicates (black-holed) until that
    // state ages out. A random starting point turns the certain collision
    // into a small-window accident (see docs/robustness.md).
    st.router->seed_sequence_number(
        static_cast<net::SequenceNumber>(churn_rng_.uniform_int(0, 0xFFFF)));
  }
  st.router->start();

  if (intra_mode_) {
    st.router->set_delivery_handler([this, vid](const gn::Router::Delivery& d) {
      const std::uint64_t id = decode_packet_id(d.packet().payload);
      const auto it = floods_pending_.find(id);
      if (it == floods_pending_.end()) return;
      auto& remaining = it->second.remaining;
      const auto pos = std::lower_bound(remaining.begin(), remaining.end(), vid);
      if (pos != remaining.end() && *pos == vid) {
        remaining.erase(pos);
        auto& record = flood_records_[it->second.record_index];
        ++record.reached;
        record.last_reach_at = std::max(record.last_reach_at, d.at);
      }
    });
  }
}

void HighwayScenario::spawn_station(traffic::Vehicle& v) {
  Station st;
  st.mobility = std::make_unique<VehicleMobility>(v, road_);
  const auto [it, inserted] = stations_.emplace(v.id(), std::move(st));
  assert(inserted);
  install_vehicle_router(v.id(), it->second, master_rng_.fork(), /*rebooted=*/false);
  ++stations_created_;
  if (config_.pseudonym_period_s > 0.0) schedule_pseudonym_rotation(v.id());
}

void HighwayScenario::harvest_station_stats(const gn::Router& router) {
  const gn::RouterStats& s = router.stats();
  ingest_drop_totals_ += s.ingest_decode_failures + s.ingest_invalid_pv + s.ingest_invalid_rhl +
                         s.ingest_invalid_lifetime + s.ingest_oversized_payload;
  if (const phy::Mac* mac = router.mac_layer()) {
    mac_totals_.add(mac->stats());
    peak_cbr_ = std::max(peak_cbr_, mac->dcc().peak_cbr());
  }
}

void HighwayScenario::destroy_station(traffic::Vehicle& v) {
  const auto it = stations_.find(v.id());
  if (it == stations_.end()) return;
  if (it->second.router) {
    harvest_station_stats(*it->second.router);
    it->second.router->shutdown();
  }
  stations_.erase(it);
}

void HighwayScenario::schedule_churn() {
  if (!config_.churn.enabled()) return;
  // Poisson process: exponential inter-arrival between fleet-wide crashes.
  const double dt = -std::log(1.0 - churn_rng_.uniform()) / config_.churn.crash_rate_hz;
  events_.schedule_in(sim::Duration::seconds(dt), [this] {
    crash_random_station();
    schedule_churn();
  });
}

void HighwayScenario::crash_random_station() {
  std::vector<traffic::VehicleId> live;
  live.reserve(stations_.size());
  // vgr-lint: ordered-ok (collected ids are sorted below)
  for (const auto& [vid, st] : stations_) {
    if (st.router) live.push_back(vid);
  }
  if (live.empty()) return;
  std::sort(live.begin(), live.end());  // map order is not deterministic
  const traffic::VehicleId victim = live[static_cast<std::size_t>(
      churn_rng_.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1))];

  // A crash is an abrupt power loss: the radio falls silent mid-protocol
  // and every bit of soft state — location table, CBF/GF buffers, duplicate
  // detector, pending timers — is gone. The vehicle keeps driving.
  auto& st = stations_.at(victim);
  harvest_station_stats(*st.router);
  st.router->shutdown();
  st.router.reset();
  ++churn_crashes_;

  if (config_.churn.reboot_probability > 0.0 &&
      churn_rng_.bernoulli(config_.churn.reboot_probability)) {
    events_.schedule_in(sim::Duration::seconds(config_.churn.downtime_s),
                        [this, victim] { reboot_station(victim); });
  }
}

void HighwayScenario::reboot_station(traffic::VehicleId vid) {
  const auto it = stations_.find(vid);
  if (it == stations_.end() || it->second.router) return;  // exited while down
  // Audited mixed role: churn_rng_ deliberately interleaves
  // crash-schedule/ISN draws with per-reboot forks so a rebooted station's
  // stream depends on the full churn history before it — that coupling is the
  // point of the churn model, and the sequence is pinned by
  // scenario_churn_test; churn off = stream untouched.
  // vgr-lint: rng-stream-ok (audited interleaved churn stream, see note above)
  install_vehicle_router(vid, it->second, churn_rng_.fork(), /*rebooted=*/true);
  ++churn_reboots_;
}

geo::GeoArea HighwayScenario::destination_area(traffic::Direction dir) const {
  // Static destinations sit 20 m beyond each end of the segment (Fig 6).
  const double x = dir == traffic::Direction::kEastbound ? config_.road_length_m + 20.0 : -20.0;
  return geo::GeoArea::circle({x, road_.lane_center_y(traffic::Direction::kEastbound, 0)}, 30.0);
}

geo::GeoArea HighwayScenario::whole_road_area() const {
  return geo::GeoArea::rectangle({config_.road_length_m / 2.0, 0.0},
                                 config_.road_length_m / 2.0 + 60.0, 60.0);
}

void HighwayScenario::schedule_inter_area_workload() {
  events_.schedule_in(config_.packet_interval, [this] {
    generate_inter_area_packet();
    if (events_.now() + config_.packet_interval <= sim::TimePoint::at(config_.sim_duration)) {
      schedule_inter_area_workload();
    }
  });
}

void HighwayScenario::generate_inter_area_packet() {
  // Candidate (vehicle, direction) pairs whose packets are vulnerable by
  // the Fig-6 geometry. The same rule runs in attacker-free A-runs so both
  // arms of the A/B pair see an identical workload.
  struct Candidate {
    traffic::VehicleId id;
    double x;
    traffic::Direction dir;
  };
  std::vector<Candidate> candidates;
  // vgr-lint: ordered-ok (candidates are sorted below before the RNG pick)
  for (const auto& [vid, st] : stations_) {
    if (!st.router) continue;  // crashed station cannot originate
    const traffic::Vehicle* v = nullptr;
    v = traffic_->find(vid);
    if (v == nullptr) continue;
    if (geometry_.eastbound_vulnerable(v->x())) {
      candidates.push_back({vid, v->x(), traffic::Direction::kEastbound});
    }
    if (geometry_.westbound_vulnerable(v->x())) {
      candidates.push_back({vid, v->x(), traffic::Direction::kWestbound});
    }
  }
  if (candidates.empty()) return;
  std::sort(candidates.begin(), candidates.end(), [](const Candidate& a, const Candidate& b) {
    if (a.id != b.id) return a.id < b.id;
    return a.dir == traffic::Direction::kEastbound && b.dir == traffic::Direction::kWestbound;
  });
  const auto& pick = candidates[static_cast<std::size_t>(
      workload_rng_.uniform_int(0, static_cast<std::int64_t>(candidates.size()) - 1))];

  const std::uint64_t id = next_packet_id_++;
  inter_pending_[id] = inter_records_.size();
  inter_records_.push_back(InterAreaPacketRecord{events_.now(), pick.x, pick.dir, false});
  stations_.at(pick.id).router->send_geo_broadcast(destination_area(pick.dir),
                                                   encode_packet_id(id), config_.hop_limit);
}

InterAreaResult HighwayScenario::run_inter_area() {
  intra_mode_ = false;

  // Destination stations 20 m beyond each end.
  auto make_destination = [this](traffic::Direction dir) {
    const geo::GeoArea area = destination_area(dir);
    const net::MacAddress mac{dir == traffic::Direction::kEastbound ? 0x0200'0000'E000ULL
                                                                    : 0x0200'0000'D000ULL};
    const net::GnAddress addr{net::GnAddress::StationType::kRoadSideUnit, mac};
    Station st;
    st.mobility = std::make_unique<gn::StaticMobility>(area.center());
    st.router = std::make_unique<gn::Router>(events_, *medium_, security::Signer{ca_.enroll(addr)},
                                             ca_.trust_store(), *st.mobility,
                                             make_router_config(), vehicle_range_m_,
                                             master_rng_.fork());
    st.router->start();
    st.router->set_delivery_handler([this, dir](const gn::Router::Delivery& d) {
      const std::uint64_t id = decode_packet_id(d.packet().payload);
      const auto it = inter_pending_.find(id);
      if (it == inter_pending_.end()) return;
      if (inter_records_[it->second].target == dir) {
        inter_records_[it->second].received = true;
        inter_records_[it->second].received_at = d.at;
        inter_pending_.erase(it);
      }
    });
    return st;
  };
  east_destination_ = make_destination(traffic::Direction::kEastbound);
  west_destination_ = make_destination(traffic::Direction::kWestbound);

  if (config_.attack == AttackKind::kInterArea) {
    interceptor_ = std::make_unique<attack::InterAreaInterceptor>(
        events_, *medium_, geo::Position{config_.resolved_attacker_x(), config_.attacker_y_m},
        config_.attack_range_m);
  } else if (config_.attack == AttackKind::kCongestionFlood) {
    flooder_ = std::make_unique<attack::CongestionFlooder>(
        events_, *medium_, geo::Position{config_.resolved_attacker_x(), config_.attacker_y_m},
        config_.attack_range_m,
        attack::CongestionFlooder::Config{config_.flood_rate_hz, 16, true});
  }

  traffic_->prefill();
  traffic_->run_on(events_, sim::TimePoint::at(config_.sim_duration));
  schedule_inter_area_workload();
  schedule_churn();
  events_.set_run_budget(config_.run_max_events, config_.run_wall_budget_s);
  events_.run_until(sim::TimePoint::at(config_.sim_duration));

  // Sweep the survivors into the MAC/ingest totals (exited and crashed
  // stations were harvested at teardown). Sums and maxima are
  // order-independent, so the map walk cannot leak iteration order.
  // vgr-lint: begin ordered-ok (integer sums and max are order-independent)
  for (const auto& [vid, st] : stations_) {
    if (st.router) harvest_station_stats(*st.router);
  }
  // vgr-lint: end
  if (east_destination_.router) harvest_station_stats(*east_destination_.router);
  if (west_destination_.router) harvest_station_stats(*west_destination_.router);

  InterAreaResult result;
  result.packets = std::move(inter_records_);
  result.horizon = config_.sim_duration;
  if (interceptor_) result.beacons_replayed = interceptor_->beacons_replayed();
  result.churn_crashes = churn_crashes_;
  result.churn_reboots = churn_reboots_;
  result.mac = mac_totals_;
  result.peak_cbr = peak_cbr_;
  result.ingest_drops = ingest_drop_totals_;
  if (flooder_) result.frames_flooded = flooder_->frames_flooded();
  result.timed_out = events_.budget_exceeded();
  result.timed_out_cause = events_.budget_trip();
  return result;
}

void HighwayScenario::schedule_intra_area_workload() {
  events_.schedule_in(config_.packet_interval, [this] {
    generate_intra_area_flood();
    if (events_.now() + config_.packet_interval <= sim::TimePoint::at(config_.sim_duration)) {
      schedule_intra_area_workload();
    }
  });
}

void HighwayScenario::generate_intra_area_flood() {
  // Uniformly pick a source among live vehicles (ordered for determinism).
  // Crashed stations cannot originate but stay in the flood audience: the
  // flood is judged against every vehicle on the road, so churn shows up as
  // lost coverage rather than a shrunken denominator.
  std::vector<traffic::VehicleId> ids;
  std::vector<traffic::VehicleId> live;
  ids.reserve(stations_.size());
  live.reserve(stations_.size());
  // vgr-lint: ordered-ok (both collections are sorted below before use)
  for (const auto& [vid, st] : stations_) {
    ids.push_back(vid);
    if (st.router) live.push_back(vid);
  }
  if (live.empty()) return;
  std::sort(ids.begin(), ids.end());
  std::sort(live.begin(), live.end());
  const traffic::VehicleId source =
      live[static_cast<std::size_t>(workload_rng_.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1))];

  const traffic::Vehicle* v = traffic_->find(source);
  if (v == nullptr) return;

  const std::uint64_t id = next_packet_id_++;
  IntraAreaFloodRecord record;
  record.sent_at = events_.now();
  record.source_x = v->x();
  record.source_fully_covered = geometry_.in_fully_covered(v->x());
  record.reached = 1;  // the source trivially has the packet
  record.total = ids.size();

  FloodState state;
  state.record_index = flood_records_.size();
  state.remaining.reserve(ids.size());
  for (const traffic::VehicleId vid : ids) {  // `ids` is sorted, so is `remaining`
    if (vid != source) state.remaining.push_back(vid);
  }
  flood_records_.push_back(record);
  floods_pending_.emplace(id, std::move(state));

  stations_.at(source).router->send_geo_broadcast(whole_road_area(), encode_packet_id(id),
                                                  config_.hop_limit);
}

IntraAreaResult HighwayScenario::run_intra_area() {
  intra_mode_ = true;

  if (config_.attack == AttackKind::kIntraArea) {
    blocker_ = std::make_unique<attack::IntraAreaBlocker>(
        events_, *medium_, geo::Position{config_.resolved_attacker_x(), config_.attacker_y_m},
        config_.attack_range_m, config_.blocker);
  } else if (config_.attack == AttackKind::kCongestionFlood) {
    flooder_ = std::make_unique<attack::CongestionFlooder>(
        events_, *medium_, geo::Position{config_.resolved_attacker_x(), config_.attacker_y_m},
        config_.attack_range_m,
        attack::CongestionFlooder::Config{config_.flood_rate_hz, 16, true});
  }

  traffic_->prefill();
  traffic_->run_on(events_, sim::TimePoint::at(config_.sim_duration));
  schedule_intra_area_workload();
  schedule_churn();
  events_.set_run_budget(config_.run_max_events, config_.run_wall_budget_s);
  events_.run_until(sim::TimePoint::at(config_.sim_duration));

  // vgr-lint: begin ordered-ok (integer sums and max are order-independent)
  for (const auto& [vid, st] : stations_) {
    if (st.router) harvest_station_stats(*st.router);
  }
  // vgr-lint: end

  IntraAreaResult result;
  result.floods = std::move(flood_records_);
  result.horizon = config_.sim_duration;
  if (blocker_) result.packets_replayed = blocker_->packets_replayed();
  result.churn_crashes = churn_crashes_;
  result.churn_reboots = churn_reboots_;
  result.mac = mac_totals_;
  result.peak_cbr = peak_cbr_;
  result.ingest_drops = ingest_drop_totals_;
  if (flooder_) result.frames_flooded = flooder_->frames_flooded();
  result.timed_out = events_.budget_exceeded();
  result.timed_out_cause = events_.budget_trip();
  return result;
}

}  // namespace vgr::scenario
