// Traced replay: per-layer numbers for one arm of a workload.
//
// HighwayScenario wraps its layers, so the benchmark rebuilds the arm's
// inputs from the public API instead:
//
//  1. record  — an untimed copy of the highway world (same traffic model,
//               router config, workload rule and attacker) with a
//               promiscuous tap that hears every transmission;
//  2. traffic — TrafficSimulation::prefill/tick, timed per tick;
//  3. sign    — every distinct recorded message signed again
//               (SecuredMessage::sign) and encoded (Codec::encode);
//  4. medium  — the recorded transmissions replayed through
//               Medium::transmit + EventQueue::run_until onto no-op
//               receivers at the same vehicle positions (no tap here: its
//               receive range would widen every index query);
//  5. probes  — sixteen fixed stations along the road take what they hear:
//               Router::ingest on started routers, LocationTable::update,
//               select_next_hop, verify_detailed and Mac::enqueue.
//
// The replay is a cost model, not a re-simulation: the recording draws its
// own random streams, so its counts match the real run only statistically.
// replay.frames_ratio / replay.deliveries_ratio report how closely.
#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>

#include "bench.hpp"
#include "vgr/attack/congestion_flood.hpp"
#include "vgr/attack/inter_area.hpp"
#include "vgr/attack/intra_area.hpp"
#include "vgr/gn/greedy_forwarder.hpp"
#include "vgr/gn/router.hpp"
#include "vgr/mitigation/profiles.hpp"
#include "vgr/net/codec.hpp"
#include "vgr/phy/mac.hpp"
#include "vgr/scenario/station.hpp"

namespace perfbench {
namespace {

namespace attack = vgr::attack;
namespace geo = vgr::geo;
namespace gn = vgr::gn;
namespace net = vgr::net;
namespace phy = vgr::phy;
namespace security = vgr::security;
namespace sim = vgr::sim;
namespace traffic = vgr::traffic;
using vgr::scenario::AttackKind;
using vgr::scenario::HighwayConfig;

constexpr int kProbes = 16;
constexpr sim::Duration kTick = sim::Duration::seconds(0.1);

/// Mean of a sum over a count, 0 for an empty count.
double mean(double sum, std::uint64_t n) { return n == 0 ? 0.0 : sum / static_cast<double>(n); }

/// Wall-clock accumulator for one timed call site. Each sample subtracts
/// the measured cost of the clock reads themselves.
class CallTimer {
 public:
  explicit CallTimer(double clock_cost_ns) : clock_cost_ns_{clock_cost_ns} {}
  template <typename F>
  decltype(auto) time(F&& f) {
    const auto t0 = Clock::now();
    struct Stop {  // records the sample however f returns
      CallTimer* self;
      Clock::time_point t0;
      ~Stop() { self->add_ns(std::chrono::duration<double, std::nano>(Clock::now() - t0).count()); }
    } stop{this, t0};
    return f();
  }
  /// Records one sample timed by the caller (clock cost included).
  void add_ns(double ns) {
    sum_ns_ += std::max(0.0, ns - clock_cost_ns_);
    ++n_;
  }
  [[nodiscard]] double mean_ns() const { return mean(sum_ns_, n_); }
  [[nodiscard]] double sum_ns() const { return sum_ns_; }
  [[nodiscard]] std::uint64_t count() const { return n_; }

 private:
  double clock_cost_ns_;
  double sum_ns_{0.0};
  std::uint64_t n_{0};
};

/// Visits items 0..n-1 as one chain of events on `q`, item i at `at(i)`,
/// so the queue holds one walker event rather than the whole schedule.
template <typename At, typename Visit>
class Walk {
 public:
  Walk(sim::EventQueue& q, std::size_t n, At at, Visit visit)
      : q_{q}, n_{n}, at_{std::move(at)}, visit_{std::move(visit)} {
    if (n_ > 0) q_.schedule_at(at_(0), [this] { step(); });
  }
  Walk(const Walk&) = delete;
  Walk& operator=(const Walk&) = delete;

 private:
  void step() {
    visit_(next_);
    if (++next_ < n_) q_.schedule_at(at_(next_), [this] { step(); });
  }

  sim::EventQueue& q_;
  std::size_t n_;
  At at_;
  Visit visit_;
  std::size_t next_{0};
};

double clock_cost_ns() {
  constexpr int kReads = 20000;
  const auto t0 = Clock::now();
  for (int i = 0; i < kReads; ++i) (void)Clock::now();
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count() / kReads;
}

/// The router configuration HighwayScenario gives every station.
gn::RouterConfig router_config(const HighwayConfig& c) {
  gn::RouterConfig rc = gn::RouterConfig::for_technology(c.tech);
  rc.locte_ttl = c.locte_ttl;
  rc.beacon_interval = c.beacon_interval;
  rc.beacon_jitter = c.beacon_interval * 0.25;
  rc.cbf_dist_max_m = c.resolved_vehicle_range();
  rc.default_hop_limit = c.hop_limit;
  rc.mac = c.mac;
  rc.dcc = c.dcc;
  vgr::mitigation::apply(c.mitigation, rc, c.mitigation_params);
  return rc;
}

net::MacAddress vehicle_mac(traffic::VehicleId vid) { return net::MacAddress{0x0200'0000'0000ULL | vid}; }

geo::Position destination_position(const HighwayConfig& c, const traffic::RoadSegment& road,
                                   bool east) {
  return {east ? c.road_length_m + 20.0 : -20.0,
          road.lane_center_y(traffic::Direction::kEastbound, 0)};
}

traffic::TrafficSimulation::Config traffic_config(const HighwayConfig& c) {
  traffic::TrafficSimulation::Config t;
  t.entry_spacing_m = c.entry_spacing_m;
  t.prefill_spacing_m = c.prefill_spacing_m;
  return t;
}

/// Who sent a recorded frame: a vehicle (by id) or a fixed station.
struct Sender {
  bool vehicle{false};
  traffic::VehicleId vid{0};
  geo::Position fixed{};
  double tx_range_m{0.0};
  bool attacker{false};
};

struct Capture {
  sim::TimePoint at;
  std::size_t sender;  ///< index into Recording::senders
  geo::Position sender_pos;
  phy::Frame frame;
};

struct Recording {
  std::vector<Sender> senders;  ///< by radio id - 1 (the tap is index 0)
  std::vector<Capture> captures;
};

/// Step 1: the arm's world, rebuilt from public parts, with a tap.
Recording record(const HighwayConfig& c, bool intra, std::uint64_t seed) {
  Recording rec;
  sim::Rng rng{seed ^ 0x7265'636F'7264'0000ULL};
  sim::Rng workload_rng = rng.fork();
  sim::EventQueue events;
  phy::Medium medium{events, c.tech, rng.fork()};
  medium.set_index_mode(phy::IndexMode::kExplicit);
  if (c.mac.enabled) medium.set_airtime_overhead_bytes(c.mac.airtime_overhead_bytes);
  security::CertificateAuthority ca;
  const traffic::RoadSegment road{c.road_length_m, c.lanes_per_direction, c.two_way};
  traffic::TrafficSimulation sim_traffic{road, traffic_config(c)};
  const double range = c.resolved_vehicle_range();
  const gn::RouterConfig rc = router_config(c);

  // Radio ids are issued sequentially from 1 and every Router / Sniffer
  // registers exactly one node, so the creation order names each sender.
  std::vector<std::function<geo::Position()>> position_of;
  phy::Medium::NodeConfig tap;
  tap.mac = net::MacAddress{0x0EEE'0000'0001ULL};
  tap.position = [&c] { return geo::Position{c.road_length_m / 2.0, 0.0}; };
  tap.rx_range_m = 1e9;
  tap.promiscuous = true;
  medium.add_node(std::move(tap), [&](const phy::Frame& f, phy::RadioId s) {
    const std::size_t idx = s.value - 1;
    rec.captures.push_back({events.now(), idx, position_of[idx](), f});
  });
  rec.senders.push_back({});
  position_of.emplace_back([] { return geo::Position{}; });

  struct Station {
    std::unique_ptr<vgr::scenario::VehicleMobility> mobility;
    std::unique_ptr<gn::Router> router;
    std::size_t sender;
  };
  std::unordered_map<traffic::VehicleId, Station> stations;
  std::vector<std::unique_ptr<gn::StaticMobility>> statics;
  std::vector<std::unique_ptr<gn::Router>> destinations;

  auto add_fixed = [&](geo::Position p, double tx, bool is_attacker) {
    rec.senders.push_back({false, 0, p, tx, is_attacker});
    position_of.emplace_back([p] { return p; });
  };
  if (!intra) {
    for (const bool east : {true, false}) {
      const geo::Position p = destination_position(c, road, east);
      statics.push_back(std::make_unique<gn::StaticMobility>(p));
      const net::GnAddress addr{net::GnAddress::StationType::kRoadSideUnit,
                                net::MacAddress{east ? 0x0200'0000'E000ULL : 0x0200'0000'D000ULL}};
      destinations.push_back(std::make_unique<gn::Router>(
          events, medium, security::Signer{ca.enroll(addr)}, ca.trust_store(), *statics.back(), rc,
          range, rng.fork()));
      destinations.back()->start();
      add_fixed(p, range, false);
    }
  }
  const geo::Position attacker_pos{c.resolved_attacker_x(), c.attacker_y_m};
  std::unique_ptr<attack::Sniffer> attacker;
  if (c.attack == AttackKind::kInterArea) {
    attacker = std::make_unique<attack::InterAreaInterceptor>(events, medium, attacker_pos,
                                                             c.attack_range_m);
  } else if (c.attack == AttackKind::kIntraArea) {
    attacker = std::make_unique<attack::IntraAreaBlocker>(events, medium, attacker_pos,
                                                         c.attack_range_m, c.blocker);
  } else if (c.attack == AttackKind::kCongestionFlood) {
    attacker = std::make_unique<attack::CongestionFlooder>(
        events, medium, attacker_pos, c.attack_range_m,
        attack::CongestionFlooder::Config{c.flood_rate_hz, 16, true});
  }
  if (attacker) add_fixed(attacker_pos, c.attack_range_m, true);

  sim_traffic.set_on_spawn([&](traffic::Vehicle& v) {
    Station st;
    st.mobility = std::make_unique<vgr::scenario::VehicleMobility>(v, road);
    const net::GnAddress addr{net::GnAddress::StationType::kPassengerCar, vehicle_mac(v.id())};
    st.router = std::make_unique<gn::Router>(events, medium, security::Signer{ca.enroll(addr)},
                                             ca.trust_store(), *st.mobility, rc, range, rng.fork());
    st.router->start();
    st.sender = rec.senders.size();
    rec.senders.push_back({true, v.id(), {}, range, false});
    const vgr::scenario::VehicleMobility* m = st.mobility.get();
    position_of.emplace_back([m] { return m->position(); });
    stations.emplace(v.id(), std::move(st));
  });
  sim_traffic.set_on_exit([&](traffic::Vehicle& v) {
    const auto it = stations.find(v.id());
    if (it == stations.end()) return;
    // Frames already on the air still arrive at the tap after the exit.
    const geo::Position last = it->second.mobility->position();
    position_of[it->second.sender] = [last] { return last; };
    stations.erase(it);
  });
  sim_traffic.set_on_tick([&] { medium.invalidate_index(); });

  // The HighwayScenario workload rules, on the recording's own stream.
  const vgr::scenario::AttackGeometry geometry = c.attack_geometry();
  const geo::GeoArea road_area =
      geo::GeoArea::rectangle({c.road_length_m / 2.0, 0.0}, c.road_length_m / 2.0 + 60.0, 60.0);
  std::uint64_t next_id = 1;
  auto payload = [&next_id] {
    net::Bytes b(8);
    const std::uint64_t id = next_id++;
    for (int i = 0; i < 8; ++i) b[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(id >> (8 * i));
    return b;
  };
  auto sorted_ids = [&] {
    std::vector<traffic::VehicleId> ids;
    for (const auto& [vid, st] : stations) ids.push_back(vid);
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  std::function<void()> generate = [&] {
    const std::vector<traffic::VehicleId> ids = sorted_ids();
    if (intra) {
      if (!ids.empty()) {
        const auto src = ids[static_cast<std::size_t>(
            workload_rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1))];
        stations.at(src).router->send_geo_broadcast(road_area, payload(), c.hop_limit);
      }
    } else {
      std::vector<std::pair<traffic::VehicleId, bool>> candidates;  // (vehicle, eastbound)
      for (const auto vid : ids) {
        const double x = sim_traffic.find(vid)->x();
        if (geometry.eastbound_vulnerable(x)) candidates.emplace_back(vid, true);
        if (geometry.westbound_vulnerable(x)) candidates.emplace_back(vid, false);
      }
      if (!candidates.empty()) {
        const auto& [vid, east] = candidates[static_cast<std::size_t>(
            workload_rng.uniform_int(0, static_cast<std::int64_t>(candidates.size()) - 1))];
        stations.at(vid).router->send_geo_broadcast(
            geo::GeoArea::circle(destination_position(c, road, east), 30.0), payload(),
            c.hop_limit);
      }
    }
    if (events.now() + c.packet_interval <= sim::TimePoint::at(c.sim_duration)) {
      events.schedule_in(c.packet_interval, [&] { generate(); });
    }
  };

  sim_traffic.prefill();
  sim_traffic.run_on(events, sim::TimePoint::at(c.sim_duration));
  events.schedule_in(c.packet_interval, [&] { generate(); });
  events.run_until(sim::TimePoint::at(c.sim_duration));
  return rec;
}

struct ProbeHit {
  std::size_t capture;
  int probe;
};

}  // namespace

LayerMetrics replay_layers(const ArmSpec& arm, std::uint64_t seed, const ArmCounts& real) {
  HighwayConfig c = arm.config;
  c.seed = seed;
  LayerMetrics m;
  const double clock_ns = clock_cost_ns();
  const Recording rec = record(c, arm.intra, seed);
  const sim::TimePoint end = sim::TimePoint::at(c.sim_duration);
  const traffic::RoadSegment road{c.road_length_m, c.lanes_per_direction, c.two_way};
  const double range = c.resolved_vehicle_range();

  // --- traffic: IDM ticks over the arm's horizon ---------------------------
  {
    traffic::TrafficSimulation t{road, traffic_config(c)};
    t.prefill();
    CallTimer tick{clock_ns};
    double vehicles = 0.0;
    const auto ticks = static_cast<std::uint64_t>(c.sim_duration.to_seconds() / kTick.to_seconds());
    for (std::uint64_t i = 0; i < ticks; ++i) {
      tick.time([&] { t.tick(); });
      vehicles += static_cast<double>(t.vehicle_count());
    }
    m["traffic.tick_us"] = tick.mean_ns() / 1e3;
    m["traffic.vehicles"] = mean(vehicles, ticks);
  }

  // --- sign: every distinct recorded message, re-signed and encoded --------
  security::CertificateAuthority sign_ca;
  std::map<std::uint64_t, security::Signer> signers;  // recorded serial -> replay signer
  std::map<std::pair<std::uint64_t, std::uint64_t>, security::SecuredMessagePtr> signed_msgs;
  std::vector<phy::Frame> frames;
  frames.reserve(rec.captures.size());
  std::vector<net::GnAddress> subjects;
  {
    CallTimer sign{clock_ns};
    CallTimer encode{clock_ns};
    for (const Capture& cap : rec.captures) {
      const security::SecuredMessage& orig = *cap.frame.msg;
      const std::uint64_t serial = orig.signer().serial;
      auto sit = signers.find(serial);
      if (sit == signers.end()) {
        subjects.push_back(orig.signer().subject);
        sit = signers.emplace(serial, security::Signer{sign_ca.enroll(orig.signer().subject)}).first;
      }
      const auto key = std::make_pair(serial, orig.signature());
      auto mit = signed_msgs.find(key);
      if (mit == signed_msgs.end()) {
        const net::Packet& p = orig.packet();
        security::SecuredMessage s = sign.time([&] { return security::SecuredMessage::sign(p, sit->second); });
        const net::Bytes wire = encode.time([&] { return net::Codec::encode(p); });
        (void)wire;
        mit = signed_msgs.emplace(key, security::share(std::move(s))).first;
      }
      phy::Frame f;
      f.src = cap.frame.src;
      f.dst = cap.frame.dst;
      const std::uint8_t rhl = orig.packet().basic.remaining_hop_limit;
      f.msg = mit->second->packet().basic.remaining_hop_limit == rhl
                  ? mit->second
                  : security::share(mit->second->with_remaining_hop_limit(rhl));
      frames.push_back(std::move(f));
    }
    m["security.sign_us"] = sign.mean_ns() / 1e3;
    m["net.encode_ns"] = encode.mean_ns();
  }
  // A CA that enrolled the same subjects in the same order verifies the
  // re-signed messages with a cold memo of its own.
  auto fresh_ca = [&subjects] {
    auto ca = std::make_unique<security::CertificateAuthority>();
    for (const net::GnAddress& s : subjects) (void)ca->enroll(s);
    return ca;
  };

  // --- medium: the recorded transmissions onto no-op receivers -------------
  {
    sim::EventQueue q;
    phy::Medium medium{q, c.tech, sim::Rng{seed}};
    medium.set_index_mode(phy::IndexMode::kExplicit);
    if (c.mac.enabled) medium.set_airtime_overhead_bytes(c.mac.airtime_overhead_bytes);
    auto noop = [](const phy::Frame&, phy::RadioId) {};
    std::unordered_map<traffic::VehicleId, phy::RadioId> radio_of;
    traffic::TrafficSimulation t{road, traffic_config(c)};
    t.set_on_spawn([&](traffic::Vehicle& v) {
      phy::Medium::NodeConfig n;
      n.mac = vehicle_mac(v.id());
      const traffic::Vehicle* vp = &v;
      n.position = [vp, &road] { return vp->position(road); };
      n.tx_range_m = range;
      radio_of[v.id()] = medium.add_node(std::move(n), noop);
    });
    t.set_on_exit([&](traffic::Vehicle& v) {
      medium.remove_node(radio_of.at(v.id()));
      radio_of.erase(v.id());
    });
    std::vector<phy::RadioId> fixed_radio(rec.senders.size());
    for (std::size_t i = 1; i < rec.senders.size(); ++i) {
      const Sender& s = rec.senders[i];
      if (s.vehicle) continue;
      phy::Medium::NodeConfig n;
      n.mac = net::MacAddress{0x0EEE'0000'0100ULL + i};
      const geo::Position p = s.fixed;
      n.position = [p] { return p; };
      n.tx_range_m = s.tx_range_m;
      if (s.attacker) {  // the attacker is the workload's own promiscuous radio
        n.rx_range_m = s.tx_range_m;
        n.promiscuous = true;
      }
      fixed_radio[i] = medium.add_node(std::move(n), noop);
    }
    CallTimer tick{clock_ns};
    CallTimer rebuild{clock_ns};
    CallTimer transmit{clock_ns};
    std::size_t peak_pending = 0;
    std::uint64_t skipped = 0;
    t.prefill();
    medium.invalidate_index();
    std::function<void()> on_tick = [&] {
      tick.time([&] { t.tick(); });
      medium.invalidate_index();
      rebuild.time([&] { medium.prepare_index(); });
      if (q.now() + kTick <= end) q.schedule_in(kTick, [&] { on_tick(); });
    };
    q.schedule_in(kTick, [&] { on_tick(); });
    // The queue holds the deliveries in flight plus the next transmission.
    const Walk walk{q, rec.captures.size(), [&](std::size_t i) { return rec.captures[i].at; },
                    [&](std::size_t i) {
      const Capture& cap = rec.captures[i];
      const Sender& s = rec.senders[cap.sender];
      phy::RadioId radio = fixed_radio[cap.sender];
      if (s.vehicle) {
        const auto it = radio_of.find(s.vid);
        radio = it == radio_of.end() ? phy::RadioId{} : it->second;
      }
      if (radio.value == 0) {
        ++skipped;
      } else {
        transmit.time([&] { medium.transmit(radio, frames[i]); });
        peak_pending = std::max(peak_pending, q.pending_count());
      }
    }};
    const auto t0 = Clock::now();
    q.run_until(end + sim::Duration::seconds(1.0));
    const double total_ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    const std::uint64_t sent = medium.frames_sent();
    const std::uint64_t delivered = medium.frames_delivered();
    m["phy.transmit_ns_per_frame"] = transmit.mean_ns();
    m["phy.delivery_ns_per_rx"] =
        mean(std::max(0.0, total_ns - transmit.sum_ns() - tick.sum_ns() - rebuild.sum_ns()),
             delivered);
    m["phy.index_rebuild_us"] = rebuild.mean_ns() / 1e3;
    m["sim.events"] = static_cast<double>(q.fired_count());
    m["sim.peak_pending"] = static_cast<double>(peak_pending);
    m["replay.frames"] = static_cast<double>(sent);
    m["replay.deliveries"] = static_cast<double>(delivered);
    m["replay.skipped"] = static_cast<double>(skipped);

    // Schedule-and-fire cost of the same event volume on a bare queue:
    // each frame's receivers as one burst of small callbacks.
    const std::uint64_t per_frame = sent == 0 ? 0 : (delivered + sent / 2) / sent;
    // The callbacks capture what a delivery closure does: a shared frame.
    sim::EventQueue bare;
    std::uint64_t fired = 0;
    const auto shared = std::make_shared<const phy::Frame>();
    CallTimer burst{clock_ns};
    for (const Capture& cap : rec.captures) {
      burst.time([&] {
        for (std::uint64_t j = 0; j < per_frame; ++j) {
          bare.schedule_at(cap.at + sim::Duration::nanos(static_cast<std::int64_t>(400'000 + j)),
                           [shared, &fired] { fired += shared.use_count() > 0 ? 1 : 0; });
        }
        bare.run_until(cap.at);
      });
    }
    bare.run_until(end + sim::Duration::seconds(1.0));
    const std::uint64_t scheduled = per_frame * rec.captures.size();
    m["sim.schedule_fire_ns"] = mean(burst.sum_ns(), scheduled);
  }

  // --- probes: what sixteen fixed stations along the road hear -------------
  std::vector<geo::Position> probe_pos;
  for (int k = 0; k < kProbes; ++k) {
    probe_pos.push_back({c.road_length_m * (k + 0.5) / kProbes,
                         road.lane_center_y(traffic::Direction::kEastbound, 0)});
  }
  std::vector<ProbeHit> hits;
  for (std::size_t i = 0; i < rec.captures.size(); ++i) {
    const Capture& cap = rec.captures[i];
    const double tx = rec.senders[cap.sender].tx_range_m;
    for (int k = 0; k < kProbes; ++k) {
      if (geo::distance(cap.sender_pos, probe_pos[static_cast<std::size_t>(k)]) <= tx) {
        hits.push_back({i, k});
      }
    }
  }
  const gn::RouterConfig rc = router_config(c);
  auto probe_addr = [](int k) {
    return net::GnAddress{net::GnAddress::StationType::kRoadSideUnit,
                          net::MacAddress{0x0300'0000'0000ULL + static_cast<std::uint64_t>(k)}};
  };

  // Router::ingest on started routers, each on a medium of its own so
  // nothing it sends reaches another probe.
  {
    const auto ca = fresh_ca();
    sim::EventQueue q;
    std::vector<std::unique_ptr<phy::Medium>> sinks;
    std::vector<std::unique_ptr<gn::StaticMobility>> mob;
    std::vector<std::unique_ptr<gn::Router>> routers;
    sim::Rng rng{seed ^ 0x696E'6765'7374ULL};
    for (int k = 0; k < kProbes; ++k) {
      sinks.push_back(std::make_unique<phy::Medium>(q, c.tech, rng.fork()));
      mob.push_back(std::make_unique<gn::StaticMobility>(probe_pos[static_cast<std::size_t>(k)]));
      routers.push_back(std::make_unique<gn::Router>(q, *sinks.back(),
                                                     security::Signer{ca->enroll(probe_addr(k))},
                                                     ca->trust_store(), *mob.back(), rc, range,
                                                     rng.fork()));
      routers.back()->start();
    }
    CallTimer beacon{clock_ns};
    CallTimer gbc{clock_ns};
    const Walk walk{q, hits.size(), [&](std::size_t i) { return rec.captures[hits[i].capture].at; },
                    [&](std::size_t i) {
      const phy::Frame& f = frames[hits[i].capture];
      gn::Router& r = *routers[static_cast<std::size_t>(hits[i].probe)];
      (f.msg->packet().is_beacon() ? beacon : gbc).time([&] { r.ingest(f); });
    }};
    q.run_until(end + sim::Duration::seconds(1.0));
    m["gn.ingest_beacon_ns"] = beacon.mean_ns();
    m["gn.ingest_gbc_ns"] = gbc.mean_ns();
  }

  // LocationTable::update, select_next_hop and verify_detailed on the same
  // inputs, call by call.
  {
    const auto ca = fresh_ca();
    const security::TrustStore& trust = *ca->trust_store();
    std::vector<gn::LocationTable> tables(kProbes, gn::LocationTable{rc.locte_ttl});
    CallTimer update{clock_ns};
    CallTimer cold{clock_ns};
    CallTimer warm{clock_ns};
    CallTimer select{clock_ns};
    CallTimer select_plaus{clock_ns};
    double rows = 0.0;
    std::uint64_t verify_failures = 0;
    const gn::GfPolicy plain{};
    gn::GfPolicy plaus{};
    plaus.plausibility_check = true;
    plaus.threshold_m = rc.plausibility_threshold_m;
    for (const ProbeHit& h : hits) {
      const Capture& cap = rec.captures[h.capture];
      const security::SecuredMessage& msg = *frames[h.capture].msg;
      const auto k = static_cast<std::size_t>(h.probe);
      const auto t0 = Clock::now();
      const security::VerifyResult v = msg.verify_detailed(trust);
      (v.from_memo ? warm : cold)
          .add_ns(std::chrono::duration<double, std::nano>(Clock::now() - t0).count());
      if (!v.ok) ++verify_failures;
      const net::Packet& p = msg.packet();
      if (const net::BeaconHeader* b = p.beacon()) {
        update.time([&] { return tables[k].update(b->source_pv, cap.at, true); });
      } else if (const net::GbcHeader* g = p.gbc()) {
        geo::Position dest = g->area.center();
        if (g->area.contains(probe_pos[k])) {  // flood inside: toward the far end
          dest = {cap.sender_pos.x < probe_pos[k].x ? c.road_length_m + 20.0 : -20.0,
                  probe_pos[k].y};
        }
        rows += static_cast<double>(tables[k].raw_size());
        (void)select.time([&] {
          return gn::select_next_hop(tables[k], probe_addr(h.probe), probe_pos[k], dest, cap.at, plain);
        });
        (void)select_plaus.time([&] {
          return gn::select_next_hop(tables[k], probe_addr(h.probe), probe_pos[k], dest, cap.at, plaus);
        });
      }
    }
    m["gn.loct_update_ns"] = update.mean_ns();
    m["gn.loct_rows"] = mean(rows, select.count());
    m["gn.gf_select_ns"] = select.mean_ns();
    m["gn.gf_select_plaus_ns"] = select_plaus.mean_ns();
    m["security.verify_cold_ns"] = cold.mean_ns();
    m["security.verify_warm_ns"] = warm.mean_ns();
    m["security.memo_hit_ratio"] =
        mean(static_cast<double>(warm.count()), warm.count() + cold.count());
    m["replay.verify_failures"] = static_cast<double>(verify_failures);
  }

  // Mac::enqueue: each honest transmission is offered to the MAC of the
  // probe whose stretch of road its sender is on, at its recorded time.
  // The contention layer is switched on here for every workload, so the
  // number is the admission cost a MAC-enabled fleet would pay.
  {
    sim::EventQueue q;
    phy::Medium medium{q, c.tech, sim::Rng{seed ^ 0x6D61'6300ULL}};
    medium.set_airtime_overhead_bytes(c.mac.airtime_overhead_bytes);
    phy::MacConfig mc = c.mac;
    mc.enabled = true;
    sim::Rng rng{seed ^ 0x6D61'6301ULL};
    std::vector<std::unique_ptr<phy::Mac>> macs;
    for (int k = 0; k < kProbes; ++k) {
      phy::Medium::NodeConfig n;
      n.mac = probe_addr(k).mac();
      const geo::Position p = probe_pos[static_cast<std::size_t>(k)];
      n.position = [p] { return p; };
      n.tx_range_m = range;
      const phy::RadioId radio = medium.add_node(std::move(n), [](const phy::Frame&, phy::RadioId) {});
      macs.push_back(std::make_unique<phy::Mac>(q, medium, radio, q.make_cohort(), mc, c.dcc, rng.fork()));
    }
    std::vector<std::pair<std::size_t, std::size_t>> offers;  // (capture, probe)
    const double stretch = c.road_length_m / kProbes;
    for (std::size_t i = 0; i < rec.captures.size(); ++i) {
      const Capture& cap = rec.captures[i];
      if (rec.senders[cap.sender].attacker) continue;
      const auto k = static_cast<std::size_t>(
          std::clamp(std::floor(cap.sender_pos.x / stretch), 0.0, kProbes - 1.0));
      offers.emplace_back(i, k);
    }
    CallTimer enqueue{clock_ns};
    const Walk walk{q, offers.size(),
                    [&](std::size_t n) { return rec.captures[offers[n].first].at; },
                    [&](std::size_t n) {
      const auto [i, k] = offers[n];
      const phy::Frame& f = frames[i];
      const auto cls = f.msg->packet().is_beacon() ? phy::MacAccessClass::kBeacon
                                                   : phy::MacAccessClass::kData;
      enqueue.time([&] { macs[k]->enqueue(f, cls); });
    }};
    q.run_until(end + sim::Duration::seconds(1.0));
    m["phy.mac_enqueue_ns"] = enqueue.mean_ns();
  }

  // Counts of the real run, and how closely the replay reproduced them.
  const double frames_real = static_cast<double>(real.frames);
  const double deliveries_real = static_cast<double>(real.deliveries);
  m["phy.frames"] = frames_real;
  m["phy.deliveries"] = deliveries_real;
  m["phy.rx_per_frame"] = frames_real > 0.0 ? deliveries_real / frames_real : 0.0;
  m["phy.index_rebuilds"] = static_cast<double>(real.index_rebuilds);
  m["attack.replays"] = static_cast<double>(real.replays);
  m["replay.frames_ratio"] = frames_real > 0.0 ? m["replay.frames"] / frames_real : 0.0;
  m["replay.deliveries_ratio"] =
      deliveries_real > 0.0 ? m["replay.deliveries"] / deliveries_real : 0.0;
  const bool close = std::abs(m["replay.frames_ratio"] - 1.0) <= 0.1 &&
                     std::abs(m["replay.deliveries_ratio"] - 1.0) <= 0.1;
  m["replay.valid"] = close && m["replay.verify_failures"] == 0.0 ? 1.0 : 0.0;
  return m;
}

}  // namespace perfbench
