#include "vgr/gn/router.hpp"

#include <cassert>
#include <cmath>
#include <initializer_list>
#include <utility>

#include "vgr/net/codec.hpp"

namespace vgr::gn {
namespace {

bool finite_lpv(const net::LongPositionVector& pv) {
  return std::isfinite(pv.position.x) && std::isfinite(pv.position.y) &&
         std::isfinite(pv.speed_mps) && std::isfinite(pv.heading_rad);
}

bool finite_spv(const net::ShortPositionVector& pv) {
  return std::isfinite(pv.position.x) && std::isfinite(pv.position.y);
}

bool finite_area(const geo::GeoArea& a) {
  return std::isfinite(a.center().x) && std::isfinite(a.center().y) &&
         std::isfinite(a.a()) && std::isfinite(a.b()) && std::isfinite(a.azimuth()) &&
         a.a() > 0.0 && a.b() > 0.0;
}

}  // namespace

Router::Router(sim::EventQueue& events, phy::Medium& medium, security::Signer signer,
               std::shared_ptr<const security::TrustStore> trust,
               const MobilityProvider& mobility, RouterConfig config, double tx_range_m,
               sim::Rng rng)
    : events_{events},
      medium_{medium},
      signer_{std::move(signer)},
      trust_{std::move(trust)},
      mobility_{mobility},
      config_{config},
      rng_{rng},
      address_{signer_.certificate().subject},
      loc_table_{config.locte_ttl},
      cbf_{events} {
  assert(trust_ != nullptr);
  timers_ = events_.make_cohort();
  // Pre-size the location table for a dense neighbourhood so steady-state
  // beacon ingest never reallocates its columns or indexes (the SoA memory
  // plane's no-allocation invariant; ~10 KiB per router up front).
  loc_table_.reserve(128);
  if (config_.scf_enabled) {
    scf_ = ScfBuffer{ScfConfig{config_.scf_max_packets, config_.scf_max_bytes}};
  }
  if (config_.nbr_monitor) {
    NeighborMonitorConfig mc;
    // Beacon interval plus the full jitter: an on-time beacon never misses.
    mc.miss_period = config_.beacon_interval + config_.beacon_jitter;
    mc.quarantine_after = config_.nbr_quarantine_after;
    mc.evict_after = config_.nbr_evict_after;
    monitor_ = NeighborMonitor{mc};
  }
  phy::Medium::NodeConfig node;
  node.mac = address_.mac();
  node.position = [this] { return mobility_.position(); };
  node.tx_range_m = tx_range_m;
  node.promiscuous = false;
  radio_ = medium_.add_node(
      std::move(node),
      [this](const phy::Frame& f, phy::RadioId) {
        if (running_) on_frame(f);
      },
      [this](const phy::Frame& f, std::uint32_t ahead) { prefetch_rx(f, ahead); });
  if (config_.mac.enabled) {
    // The MAC's backoff stream is forked from the router's only when the
    // layer is on: a disabled MAC consumes nothing from any stream, which
    // keeps MAC-off runs bit-identical to pre-MAC builds. Its events join
    // the `timers_` cohort so shutdown retires them with everything else.
    // Audited mixed role: this is the only fork of rng_, it happens at
    // construction before any draw can run, and it is gated on mac.enabled —
    // so MAC-off draw sequences are untouched and the MAC-on stream layout is
    // frozen. Splitting a dedicated MAC seeder now would reseed every MAC
    // backoff and break byte-identity with pinned runs.
    mac_layer_ = std::make_unique<phy::Mac>(events_, medium_, radio_, timers_, config_.mac,
                                            // vgr-lint: rng-stream-ok (see audit note above)
                                            config_.dcc, rng_.fork());
  }
  running_ = true;
}

Router::~Router() { shutdown(); }

void Router::start() {
  if (beacon_event_.value != 0 && events_.pending(beacon_event_)) return;
  if (config_.nbr_monitor && !events_.pending(monitor_event_)) schedule_monitor_sweep();
  // Desynchronise stations: first beacon lands uniformly within one period.
  const auto delay =
      sim::Duration::nanos(static_cast<std::int64_t>(
          rng_.uniform() * static_cast<double>(config_.beacon_interval.count())));
  beacon_event_ = events_.schedule_in(delay, timers_, [this] {
    send_beacon_now();
    schedule_beacon();
  });
}

void Router::shutdown() {
  if (!running_) return;
  running_ = false;
  // Every router-owned timer (beacon, GF retry, monitor sweep, LS retries,
  // ACK/retransmission timers) lives in one cancellation cohort: a single
  // generation bump retires them all, instead of walking the pending maps
  // tombstoning timers one by one. cbf_.clear() does the same for the CBF
  // contention timers via the buffer's own cohort.
  events_.cancel_cohort(timers_);
  ls_pending_.clear();
  ack_pending_.clear();
  cbf_.clear();
  scf_.clear();
  monitor_.clear();
  medium_.remove_node(radio_);
}

void Router::rotate_identity(security::EnrolledIdentity identity) {
  signer_ = security::Signer{std::move(identity)};
  address_ = signer_.certificate().subject;
  medium_.set_mac(radio_, address_.mac());
  ++stats_.identity_rotations;
}

net::LongPositionVector Router::self_pv() const {
  net::LongPositionVector pv;
  pv.address = address_;
  pv.timestamp = events_.now();
  pv.position = mobility_.position();
  pv.speed_mps = mobility_.speed_mps();
  pv.heading_rad = mobility_.heading_rad();
  return pv;
}

void Router::schedule_beacon() {
  if (!running_) return;
  const auto jitter = sim::Duration::nanos(static_cast<std::int64_t>(
      rng_.uniform() * static_cast<double>(config_.beacon_jitter.count())));
  beacon_event_ = events_.schedule_in(config_.beacon_interval + jitter, timers_, [this] {
    send_beacon_now();
    schedule_beacon();
  });
}

void Router::send_beacon_now() {
  if (!running_) return;
  net::Packet p;
  p.basic.remaining_hop_limit = 1;  // beacons are single-hop
  p.basic.lifetime = config_.beacon_interval;
  p.common.type = net::CommonHeader::HeaderType::kBeacon;
  p.common.max_hop_limit = 1;
  p.extended = net::BeaconHeader{self_pv()};
  transmit(security::share(security::SecuredMessage::sign(p, signer_)),
           net::MacAddress::broadcast());
  ++stats_.beacons_sent;
}

net::SequenceNumber Router::send_geo_broadcast(const geo::GeoArea& area, net::Bytes payload,
                                               std::optional<std::uint8_t> hop_limit,
                                               std::optional<sim::Duration> lifetime) {
  assert(running_);
  const std::uint8_t hops = hop_limit.value_or(config_.default_hop_limit);
  net::Packet p;
  p.basic.remaining_hop_limit = hops;
  p.basic.lifetime = lifetime.value_or(config_.default_lifetime);
  p.common.type = net::CommonHeader::HeaderType::kGeoBroadcast;
  p.common.max_hop_limit = hops;
  p.extended = net::GbcHeader{next_sequence_, self_pv(), area};
  p.payload = std::move(payload);
  const net::SequenceNumber sn = next_sequence_++;

  // Remember our own packet so an echo from a forwarder is a duplicate.
  duplicates_.check_and_record(p);
  ++stats_.gbc_originated;

  auto msg = security::share(security::SecuredMessage::sign(p, signer_));
  if (area.contains(mobility_.position())) {
    // Source inside the destination area broadcasts immediately; receivers
    // contend via CBF (paper §II).
    transmit(msg, net::MacAddress::broadcast());
  } else {
    gf_route(std::move(msg), area.center(), /*allow_buffer=*/true);
  }
  return sn;
}

net::SequenceNumber Router::send_geo_unicast(net::GnAddress destination,
                                             geo::Position position_hint, net::Bytes payload,
                                             std::optional<std::uint8_t> hop_limit,
                                             std::optional<sim::Duration> lifetime) {
  assert(running_);
  const std::uint8_t hops = hop_limit.value_or(config_.default_hop_limit);
  geo::Position dest_pos = position_hint;
  if (const auto entry = loc_table_.find(destination, events_.now())) {
    dest_pos = entry->pv.position;
  }
  net::Packet p;
  p.basic.remaining_hop_limit = hops;
  p.basic.lifetime = lifetime.value_or(config_.default_lifetime);
  p.common.type = net::CommonHeader::HeaderType::kGeoUnicast;
  p.common.max_hop_limit = hops;
  net::ShortPositionVector dest;
  dest.address = destination;
  dest.timestamp = events_.now();
  dest.position = dest_pos;
  p.extended = net::GucHeader{next_sequence_, self_pv(), dest};
  p.payload = std::move(payload);
  const net::SequenceNumber sn = next_sequence_++;

  duplicates_.check_and_record(p);
  gf_route(security::share(security::SecuredMessage::sign(p, signer_)), dest_pos,
           /*allow_buffer=*/true);
  return sn;
}

net::SequenceNumber Router::send_geo_anycast(const geo::GeoArea& area, net::Bytes payload,
                                             std::optional<std::uint8_t> hop_limit,
                                             std::optional<sim::Duration> lifetime) {
  assert(running_);
  const std::uint8_t hops = hop_limit.value_or(config_.default_hop_limit);
  net::Packet p;
  p.basic.remaining_hop_limit = hops;
  p.basic.lifetime = lifetime.value_or(config_.default_lifetime);
  p.common.type = net::CommonHeader::HeaderType::kGeoAnycast;
  p.common.max_hop_limit = hops;
  p.extended = net::GacHeader{next_sequence_, self_pv(), area};
  p.payload = std::move(payload);
  const net::SequenceNumber sn = next_sequence_++;
  duplicates_.check_and_record(p);
  ++stats_.gbc_originated;  // anycast shares the geo-addressed counter
  // A source already inside the area trivially satisfies "any one station".
  if (!area.contains(mobility_.position())) {
    gf_route(security::share(security::SecuredMessage::sign(p, signer_)), area.center(),
             /*allow_buffer=*/true);
  }
  return sn;
}

void Router::handle_gac(const security::SecuredMessagePtr& msg, const phy::Frame& frame) {
  const net::Packet& p = msg->packet();
  if (duplicates_.check_and_record(p, frame.src)) {
    ++stats_.duplicates;
    return;
  }
  const net::GacHeader& gac = *p.gac();
  if (gac.area.contains(mobility_.position())) {
    // First station inside the area consumes the packet — no flooding.
    deliver(msg, frame.src);
    return;
  }
  const std::uint8_t received_rhl = p.basic.remaining_hop_limit;
  if (received_rhl <= 1) {
    ++stats_.rhl_exhausted;
    return;
  }
  gf_route(security::share(msg->with_remaining_hop_limit(received_rhl - 1)), gac.area.center(),
           /*allow_buffer=*/true);
}

void Router::send_geo_unicast_resolving(net::GnAddress destination, net::Bytes payload,
                                        std::optional<std::uint8_t> hop_limit,
                                        std::optional<sim::Duration> lifetime) {
  assert(running_);
  if (const auto entry = loc_table_.find(destination, events_.now())) {
    send_geo_unicast(destination, entry->pv.position, std::move(payload), hop_limit, lifetime);
    return;
  }
  // Unknown destination: queue the payload and kick off the location
  // service. Additional packets for the same destination share the lookup.
  auto [it, inserted] = ls_pending_.try_emplace(destination);
  it->second.queue.push_back(LsPending::QueuedUnicast{
      std::move(payload), hop_limit.value_or(config_.default_hop_limit),
      lifetime.value_or(config_.default_lifetime)});
  if (inserted) {
    send_ls_request(destination);
    it->second.retry_timer = events_.schedule_in(
        config_.ls_retry_interval, timers_, [this, destination] { ls_retry(destination); });
  }
}

void Router::send_ls_request(net::GnAddress target) {
  net::Packet p;
  p.basic.remaining_hop_limit = config_.ls_hop_limit;
  p.common.type = net::CommonHeader::HeaderType::kLsRequest;
  p.common.max_hop_limit = config_.ls_hop_limit;
  p.extended = net::LsRequestHeader{next_sequence_++, self_pv(), target};
  duplicates_.check_and_record(p);
  ++stats_.ls_requests_sent;
  transmit(security::share(security::SecuredMessage::sign(p, signer_)),
           net::MacAddress::broadcast());
}

void Router::ls_retry(net::GnAddress target) {
  if (!running_) return;
  const auto it = ls_pending_.find(target);
  if (it == ls_pending_.end()) return;  // resolved meanwhile
  if (++it->second.retries >= config_.ls_max_retries) {
    stats_.ls_failures += it->second.queue.size();
    ls_pending_.erase(it);
    return;
  }
  send_ls_request(target);
  it->second.retry_timer = events_.schedule_in(config_.ls_retry_interval, timers_,
                                               [this, target] { ls_retry(target); });
}

void Router::send_single_hop_broadcast(net::Bytes payload) {
  assert(running_);
  net::Packet p;
  p.basic.remaining_hop_limit = 1;
  p.common.type = net::CommonHeader::HeaderType::kSingleHopBroadcast;
  p.common.max_hop_limit = 1;
  p.extended = net::ShbHeader{self_pv()};
  p.payload = std::move(payload);
  ++stats_.shb_sent;
  transmit(security::share(security::SecuredMessage::sign(p, signer_)),
           net::MacAddress::broadcast());
}

net::SequenceNumber Router::send_topo_broadcast(net::Bytes payload,
                                                std::optional<std::uint8_t> hop_limit) {
  assert(running_);
  const std::uint8_t hops = hop_limit.value_or(config_.default_hop_limit);
  net::Packet p;
  p.basic.remaining_hop_limit = hops;
  p.common.type = net::CommonHeader::HeaderType::kTopoBroadcast;
  p.common.max_hop_limit = hops;
  p.extended = net::TsbHeader{next_sequence_, self_pv()};
  p.payload = std::move(payload);
  const net::SequenceNumber sn = next_sequence_++;
  duplicates_.check_and_record(p);
  transmit(security::share(security::SecuredMessage::sign(p, signer_)),
           net::MacAddress::broadcast());
  return sn;
}

void Router::on_frame(const phy::Frame& frame) {
  // 0. Wire hardening. A fault-injected (or hostile) delivery carries its
  //    damaged wire image in `frame.raw`; decode it before trusting anything.
  //    An undecodable frame is counted and dropped here, exactly like a
  //    frame that failed the access layer's CRC. When decode succeeds the
  //    decoded packet replaces the structured one under the original
  //    security envelope: damage inside the signed portion then dies at the
  //    signature check below, while basic-header damage (RHL, lifetime —
  //    outside the signature scope, as EN 302 636-4-1 allows) slips past
  //    verification and must be caught by the semantic checks instead.
  //
  //    The clean fast path hands `frame.msg` onward by shared pointer: one
  //    transmission's frame is shared by every receiver, and nothing past
  //    this point mutates the message in place.
  if (!frame.raw.empty()) {
    auto decoded = net::Codec::decode(frame.raw);
    if (!decoded.has_value()) {
      ++stats_.ingest_decode_failures;
      return;
    }
    const security::SecuredMessagePtr reassembled =
        security::share(security::SecuredMessage::from_parts(
            std::move(*decoded), frame.msg->signer(), frame.msg->signature()));
    process_frame(reassembled, frame);
    return;
  }
  process_frame(frame.msg, frame);
}

void Router::prefetch_rx(const phy::Frame& frame, std::uint32_t ahead) const {
  const net::GnAddress source = frame.msg->packet().source_pv().address;
  if (ahead == 1) {
    loc_table_.prefetch_row(source);
    return;
  }
  loc_table_.prefetch_slot(source);
  // This router's own lines that ingest reads besides the table: the object
  // head (event queue, trust store), the config fields and address it
  // checks, the counters a beacon bumps and the running flag.
  for (const void* line : std::initializer_list<const void*>{
           this, &config_.pv_max_age, &config_.scf_enabled, &config_.nbr_monitor, &address_,
           &stats_.beacons_received, &stats_.verify_memo_hits, &running_}) {
    __builtin_prefetch(line);
  }
}

void Router::process_frame(const security::SecuredMessagePtr& msg, const phy::Frame& frame) {
  // 1. Semantic validation, before any router state is touched: a malformed
  //    packet must never reach the location table, the duplicate detector or
  //    the greedy-forwarding geometry.
  if (!validate_ingest(msg->packet())) return;

  // 2. Security: every GeoNetworking message must verify against the trust
  //    store. Forged messages (e.g. a blackhole attacker's fake beacons) die
  //    here; *replayed* ones sail through — the paper's key observation.
  //    The first receiver of a transmission pays the full check; its
  //    co-receivers ask the same question next and are answered from the
  //    trust store's last verdict.
  const security::VerifyResult verdict = msg->verify_detailed(*trust_);
  if (verdict.from_memo) {
    ++stats_.verify_memo_hits;
  } else {
    ++stats_.verify_memo_misses;
  }
  if (!verdict.ok) {
    ++stats_.auth_failures;
    return;
  }
  const net::Packet& p = msg->packet();
  const net::LongPositionVector& so = p.source_pv();
  if (so.address == address_) {
    // Our own GN address arriving from the air: either a genuine address
    // collision or — far more likely under attack — a replay of our own
    // packet (the interceptor replays every beacon it hears, including the
    // victim's). ETSI DAD would re-address here; see docs/attacks.md for
    // why that amplifies the attack.
    ++stats_.dad_conflicts;
    if (config_.dad_enabled && on_address_conflict_) on_address_conflict_();
    return;
  }

  const sim::TimePoint now = events_.now();

  // 3. Location table update. Beacon PVs must be fresh (timestamp check);
  //    multi-hop packets may legitimately carry an older source PV, which
  //    updates the table but never sets the neighbour flag unless the
  //    source itself is the link-layer sender.
  const bool direct = p.is_beacon() || frame.src == so.address.mac();
  if (p.is_beacon() && now - so.timestamp > config_.pv_max_age) {
    ++stats_.stale_pv_drops;
    return;
  }
  bool revived = false;
  if (config_.nbr_monitor && direct) revived = monitor_.heard(so.address, now);
  const bool new_neighbor = loc_table_.update(so, now, direct) || revived;
  if (config_.scf_enabled && new_neighbor && !scf_.empty()) {
    // Store-carry-forward flush: a just-learned (or revived) neighbour may
    // unblock buffered packets — try immediately instead of waiting for the
    // next retry tick.
    ++stats_.scf_flush_triggers;
    run_gf_retries();
  }
  if (p.is_beacon()) {
    handle_beacon(msg);
    return;
  }

  // ACK'd-forwarding / retransmission: confirm any unicast routed through us
  // back to the previous hop, before duplicate filtering (the retransmitter
  // may be retrying because our earlier ACK got lost).
  if (hop_confirm_enabled() && frame.dst == address_.mac() && p.duplicate_key().has_value()) {
    if (config_.retx_enabled && duplicates_.is_same_hop_retransmit(p, frame.src)) {
      ++stats_.retx_duplicate_reacks;
    }
    send_ack_for(p, frame.src);
  }

  switch (p.common.type) {
    case net::CommonHeader::HeaderType::kGeoBroadcast:
      handle_gbc(msg, frame);
      break;
    case net::CommonHeader::HeaderType::kGeoUnicast:
      handle_guc(msg, frame);
      break;
    case net::CommonHeader::HeaderType::kGeoAnycast:
      handle_gac(msg, frame);
      break;
    case net::CommonHeader::HeaderType::kTopoBroadcast:
      handle_tsb(msg, frame);
      break;
    case net::CommonHeader::HeaderType::kSingleHopBroadcast:
      deliver(msg, frame.src);
      break;
    case net::CommonHeader::HeaderType::kLsRequest:
      handle_ls_request(msg, frame);
      break;
    case net::CommonHeader::HeaderType::kLsReply:
      handle_ls_reply(msg, frame);
      break;
    case net::CommonHeader::HeaderType::kAck:
      handle_ack(msg);
      break;
    default:
      break;
  }
}

bool Router::validate_ingest(const net::Packet& p) {
  // Position vectors: a NaN/inf coordinate poisons every distance
  // comparison downstream (NaN compares false against everything, so a
  // greedy-forwarding argmin silently misroutes instead of crashing).
  bool geometry_ok = finite_lpv(p.source_pv());
  if (geometry_ok) {
    if (const auto* u = p.guc()) {
      geometry_ok = finite_spv(u->destination);
    } else if (const auto* lr = p.ls_reply()) {
      geometry_ok = finite_spv(lr->destination);
    } else if (const auto* g = p.gbc()) {
      geometry_ok = finite_area(g->area);
    } else if (const auto* a = p.gac()) {
      geometry_ok = finite_area(a->area);
    }
  }
  if (!geometry_ok) {
    ++stats_.ingest_invalid_pv;
    return false;
  }
  // Hop limits: an honest station sends RHL >= 1 and forwarders only ever
  // decrement it, so RHL == 0 (should have died a hop earlier), MHL == 0,
  // or RHL > MHL (an impossible history) cannot occur on a clean channel.
  if (p.basic.remaining_hop_limit == 0 || p.common.max_hop_limit == 0 ||
      p.basic.remaining_hop_limit > p.common.max_hop_limit) {
    ++stats_.ingest_invalid_rhl;
    return false;
  }
  // A non-positive lifetime means the packet is already dead; buffering or
  // forwarding it would only feed CBF/GF machinery with expired state.
  if (p.basic.lifetime <= sim::Duration::zero()) {
    ++stats_.ingest_invalid_lifetime;
    return false;
  }
  // Payload cap mirrors the codec's wire-format bound; the structured path
  // (in-process attacker handing the router an absurd packet) is checked
  // here so both ingest paths share one limit.
  if (p.payload.size() > net::kMaxPayloadBytes) {
    ++stats_.ingest_oversized_payload;
    return false;
  }
  return true;
}

void Router::handle_tsb(const security::SecuredMessagePtr& msg, const phy::Frame& frame) {
  const net::Packet& p = msg->packet();
  if (duplicates_.check_and_record(p, frame.src)) {
    ++stats_.duplicates;
    return;
  }
  deliver(msg, frame.src);
  const std::uint8_t received_rhl = p.basic.remaining_hop_limit;
  if (received_rhl <= 1) {
    ++stats_.rhl_exhausted;
    return;
  }
  ++stats_.tsb_forwards;
  transmit(security::share(msg->with_remaining_hop_limit(received_rhl - 1)),
           net::MacAddress::broadcast());
}

void Router::handle_ls_request(const security::SecuredMessagePtr& msg, const phy::Frame& frame) {
  const net::Packet& p = msg->packet();
  if (duplicates_.check_and_record(p, frame.src)) {
    ++stats_.duplicates;
    return;
  }
  const net::LsRequestHeader& request = *p.ls_request();
  if (request.target == address_) {
    // We are being looked for: answer with our PV, routed back to the
    // requester's advertised position.
    net::Packet reply;
    reply.basic.remaining_hop_limit = config_.ls_hop_limit;
    reply.common.type = net::CommonHeader::HeaderType::kLsReply;
    reply.common.max_hop_limit = config_.ls_hop_limit;
    net::ShortPositionVector dest;
    dest.address = request.source_pv.address;
    dest.timestamp = events_.now();
    dest.position = request.source_pv.position;
    reply.extended = net::LsReplyHeader{next_sequence_++, self_pv(), dest};
    duplicates_.check_and_record(reply);
    ++stats_.ls_replies_sent;
    gf_route(security::share(security::SecuredMessage::sign(reply, signer_)), dest.position,
             /*allow_buffer=*/true);
    return;
  }
  // Not for us: keep flooding within the hop budget.
  const std::uint8_t received_rhl = p.basic.remaining_hop_limit;
  if (received_rhl <= 1) {
    ++stats_.rhl_exhausted;
    return;
  }
  transmit(security::share(msg->with_remaining_hop_limit(received_rhl - 1)),
           net::MacAddress::broadcast());
}

void Router::handle_ls_reply(const security::SecuredMessagePtr& msg, const phy::Frame& frame) {
  const net::Packet& p = msg->packet();
  if (duplicates_.check_and_record(p, frame.src)) {
    ++stats_.duplicates;
    return;
  }
  const net::LsReplyHeader& reply = *p.ls_reply();
  if (reply.destination.address != address_) {
    const std::uint8_t received_rhl = p.basic.remaining_hop_limit;
    if (received_rhl <= 1) {
      ++stats_.rhl_exhausted;
      return;
    }
    geo::Position dest_pos = reply.destination.position;
    if (const auto entry = loc_table_.find(reply.destination.address, events_.now())) {
      dest_pos = entry->pv.position;
    }
    gf_route(security::share(msg->with_remaining_hop_limit(received_rhl - 1)), dest_pos,
             /*allow_buffer=*/true);
    return;
  }
  // Resolution arrived: the reply's source PV *is* the target's position
  // (already folded into our location table by on_frame). Flush the queue.
  const net::GnAddress target = reply.source_pv.address;
  const auto it = ls_pending_.find(target);
  if (it == ls_pending_.end()) return;  // duplicate resolution or timed out
  events_.cancel(it->second.retry_timer);
  LsPending pending = std::move(it->second);
  ls_pending_.erase(it);
  ++stats_.ls_resolved;
  for (auto& queued : pending.queue) {
    send_geo_unicast(target, reply.source_pv.position, std::move(queued.payload),
                     queued.hop_limit, queued.lifetime);
  }
}

void Router::send_ack_for(const net::Packet& packet, net::MacAddress to) {
  const auto key = packet.duplicate_key();
  assert(key.has_value());
  net::Packet ack;
  ack.basic.remaining_hop_limit = 1;
  ack.common.type = net::CommonHeader::HeaderType::kAck;
  ack.common.max_hop_limit = 1;
  ack.extended = net::AckHeader{self_pv(), key->first, key->second};
  ++stats_.acks_sent;
  transmit(security::share(security::SecuredMessage::sign(ack, signer_)), to);
}

void Router::handle_ack(const security::SecuredMessagePtr& msg) {
  const net::AckHeader& ack = *msg->packet().ack();
  const CbfKey key{ack.acked_source, ack.acked_sequence};
  const auto it = ack_pending_.find(key);
  if (it == ack_pending_.end()) return;  // late or duplicate ACK
  events_.cancel(it->second.timer);
  ack_pending_.erase(it);
  ++stats_.acks_received;
}

void Router::arm_ack_timer(const CbfKey& key) {
  auto& pending = ack_pending_.at(key);
  events_.cancel(pending.timer);
  sim::Duration timeout = config_.gf_ack_timeout;
  if (config_.retx_enabled) {
    // Exponential backoff: base * 2^attempt, plus a uniform jitter draw
    // from the router's deterministic stream so colliding retransmitters
    // desynchronise identically for every thread count.
    timeout = config_.retx_backoff_base;
    for (int i = 0; i < pending.attempts_this_hop; ++i) timeout += timeout;
    timeout += config_.retx_backoff_jitter * rng_.uniform();
  }
  pending.timer = events_.schedule_in(timeout, timers_, [this, key] { ack_timeout(key); });
}

void Router::arm_hop_confirm(security::SecuredMessagePtr msg, geo::Position destination,
                             net::GnAddress hop) {
  const auto key_opt = msg->packet().duplicate_key();
  if (!key_opt) return;
  const CbfKey key{key_opt->first, key_opt->second};
  auto& pending = ack_pending_[key];
  pending.msg = std::move(msg);
  pending.destination = destination;
  pending.tried.insert(hop);
  pending.current_hop = hop;
  pending.attempts_this_hop = 0;
  arm_ack_timer(key);
}

void Router::hop_confirm_give_up(const CbfKey& key) {
  const auto it = ack_pending_.find(key);
  AckPending& pending = it->second;
  events_.cancel(pending.timer);
  if (config_.retx_enabled) ++stats_.retx_exhausted;
  if (config_.retx_enabled && config_.scf_enabled &&
      config_.gf_fallback == GfFallback::kBuffer) {
    // Out of hops and attempts, but not out of lifetime: park the packet in
    // the SCF buffer — a new neighbour or the retry tick gives it another
    // chance.
    const sim::TimePoint expiry = scf_expiry(pending.msg->packet());
    scf_.push(std::move(pending.msg), pending.destination, expiry);
    ++stats_.gf_buffered;
    schedule_gf_retry();
  } else {
    ++stats_.ack_failures;
  }
  ack_pending_.erase(it);
}

void Router::ack_timeout(const CbfKey& key) {
  if (!running_) return;
  const auto it = ack_pending_.find(key);
  if (it == ack_pending_.end()) return;
  AckPending& pending = it->second;
  if (config_.retx_enabled && pending.attempts_this_hop < config_.retx_max_attempts) {
    // Same-hop retransmission: the frame (or our ACK) may have been lost
    // rather than the neighbour — retry it before rerouting around it.
    ++pending.attempts_this_hop;
    ++stats_.retx_attempts;
    transmit(pending.msg, pending.current_hop.mac());
    arm_ack_timer(key);
    return;
  }
  if (++pending.retries > config_.gf_ack_max_retries) {
    hop_confirm_give_up(key);
    return;
  }
  // Silent hop: pick the next-best neighbour we have not tried yet.
  const auto selection = select_next_hop(loc_table_, address_, mobility_.position(),
                                         pending.destination, events_.now(), gf_policy(),
                                         &pending.tried);
  if (!selection) {
    hop_confirm_give_up(key);
    return;
  }
  ++stats_.ack_retries;
  ++stats_.gf_unicast_forwards;
  pending.tried.insert(selection->next_hop.address);
  pending.current_hop = selection->next_hop.address;
  pending.attempts_this_hop = 0;
  transmit(pending.msg, selection->next_hop.address.mac());
  arm_ack_timer(key);
}

void Router::handle_beacon(const security::SecuredMessagePtr&) { ++stats_.beacons_received; }

void Router::handle_gbc(const security::SecuredMessagePtr& msg, const phy::Frame& frame) {
  const net::Packet& p = msg->packet();
  const auto key_opt = p.duplicate_key();
  assert(key_opt.has_value());
  const CbfKey key{key_opt->first, key_opt->second};
  const std::uint8_t received_rhl = p.basic.remaining_hop_limit;

  if (duplicates_.is_duplicate(p)) {
    ++stats_.duplicates;
    // A duplicate during contention means "another forwarder already
    // rebroadcast" — standard CBF discards the buffered copy. This is the
    // exact step the intra-area blockage attack hijacks.
    const auto outcome = cbf_.on_duplicate(key, received_rhl, config_.rhl_drop_check,
                                           config_.rhl_drop_threshold);
    if (outcome == CbfDuplicateOutcome::kDiscarded) ++stats_.cbf_suppressed;
    if (outcome == CbfDuplicateOutcome::kKeptByMitigation) ++stats_.cbf_mitigation_keeps;
    return;
  }
  duplicates_.check_and_record(p, frame.src);

  const bool inside = p.gbc()->area.contains(mobility_.position());
  if (inside) deliver(msg, frame.src);

  if (received_rhl <= 1) {
    // Hop budget exhausted: the packet is consumed, never forwarded. A
    // replayed packet with RHL rewritten to 1 dies here on every first-time
    // receiver (attack #2, step 5).
    ++stats_.rhl_exhausted;
    return;
  }
  // Copy-on-mutate: the RHL decrement is the protocol's only per-hop
  // rewrite, and it lives outside the signature scope — the copy shares the
  // original's signed-portion encoding, so the next hop's verify is a memo
  // hit too. From here the rewrite travels as one shared envelope through
  // CBF/GF, the phy frame and any ACK or SCF buffering.
  security::SecuredMessagePtr forward =
      security::share(msg->with_remaining_hop_limit(received_rhl - 1));
  if (inside) {
    cbf_contend(std::move(forward), received_rhl, frame);
  } else {
    gf_route(std::move(forward), p.gbc()->area.center(), /*allow_buffer=*/true);
  }
}

void Router::handle_guc(const security::SecuredMessagePtr& msg, const phy::Frame& frame) {
  const net::Packet& p = msg->packet();
  if (duplicates_.check_and_record(p, frame.src)) {
    ++stats_.duplicates;
    return;
  }
  const net::GucHeader& guc = *p.guc();
  if (guc.destination.address == address_) {
    deliver(msg, frame.src);
    return;
  }
  const std::uint8_t received_rhl = p.basic.remaining_hop_limit;
  if (received_rhl <= 1) {
    ++stats_.rhl_exhausted;
    return;
  }
  geo::Position dest_pos = guc.destination.position;
  if (const auto entry = loc_table_.find(guc.destination.address, events_.now())) {
    dest_pos = entry->pv.position;
  }
  gf_route(security::share(msg->with_remaining_hop_limit(received_rhl - 1)), dest_pos,
           /*allow_buffer=*/true);
}

void Router::cbf_contend(security::SecuredMessagePtr msg, std::uint8_t received_rhl,
                         const phy::Frame& frame) {
  const auto key_opt = msg->packet().duplicate_key();
  const CbfKey key{key_opt->first, key_opt->second};

  // TO is inversely proportional to the distance from the previous sender,
  // which we know from its beacons. Unknown sender -> maximum contention.
  sim::Duration timeout = config_.cbf_to_max;
  if (const auto sender = loc_table_.find_by_mac(frame.src, events_.now())) {
    const double dist = geo::distance(mobility_.position(), sender->pv.position);
    timeout = cbf_timeout(dist, config_.cbf_to_min, config_.cbf_to_max, config_.cbf_dist_max_m);
  }
  // CSMA-style desynchronisation; see RouterConfig::cbf_jitter.
  timeout += config_.cbf_jitter * rng_.uniform();
  ++stats_.cbf_contentions;
  // With the recovery layer on, bound the whole contention (including any
  // carrier-sense deferral loop) by the packet's lifetime.
  const std::optional<sim::TimePoint> expiry =
      config_.cbf_lifetime_expiry
          ? std::optional<sim::TimePoint>{events_.now() + msg->packet().basic.lifetime}
          : std::nullopt;
  cbf_.insert(
      key, std::move(msg), received_rhl, timeout,
      [this](const security::SecuredMessagePtr& buffered) {
        if (!running_) return;
        transmit(buffered, net::MacAddress::broadcast());
        ++stats_.cbf_rebroadcasts;
      },
      [this]() -> std::optional<sim::Duration> {
        // Listen-before-talk: while another station's frame is on the air,
        // hold the rebroadcast (a duplicate heard meanwhile cancels it).
        const sim::TimePoint busy = medium_.busy_until(radio_);
        if (busy <= events_.now()) return std::nullopt;
        const auto backoff = sim::Duration::micros(
            50 + static_cast<std::int64_t>(rng_.uniform() * 200.0));
        return busy - events_.now() + backoff;
      },
      expiry);
}

void Router::gf_route(security::SecuredMessagePtr msg, geo::Position destination,
                      bool allow_buffer, const std::unordered_set<net::GnAddress>* exclude) {
  const auto selection = select_next_hop(loc_table_, address_, mobility_.position(), destination,
                                         events_.now(), gf_policy(), exclude);
  if (selection) {
    transmit(msg, selection->next_hop.address.mac());
    ++stats_.gf_unicast_forwards;
    if (hop_confirm_enabled()) {
      arm_hop_confirm(std::move(msg), destination, selection->next_hop.address);
    }
    return;
  }
  // Track how often the plausibility check vetoed an otherwise-chosen hop.
  if (config_.plausibility_check) {
    GfPolicy no_check = gf_policy();
    no_check.plausibility_check = false;
    if (select_next_hop(loc_table_, address_, mobility_.position(), destination, events_.now(),
                        no_check)) {
      ++stats_.gf_plausibility_rejections;
    }
  }
  switch (config_.gf_fallback) {
    case GfFallback::kBroadcast:
      transmit(msg, net::MacAddress::broadcast());
      ++stats_.gf_broadcast_fallbacks;
      return;
    case GfFallback::kBuffer:
      if (allow_buffer) {
        const sim::TimePoint expiry = scf_expiry(msg->packet());
        scf_.push(std::move(msg), destination, expiry);
        ++stats_.gf_buffered;
        schedule_gf_retry();
        return;
      }
      [[fallthrough]];
    case GfFallback::kDrop:
      ++stats_.gf_drops;
      return;
  }
}

sim::TimePoint Router::scf_expiry(const net::Packet& p) const {
  if (config_.scf_enabled) {
    // Lifetimes are not decremented per hop in this simulator, so the field
    // still holds the packet's remaining time budget when it reaches us.
    return events_.now() + p.basic.lifetime;
  }
  return events_.now() + config_.gf_retry_interval * 20.0;
}

void Router::schedule_gf_retry() {
  if (scf_.empty() || events_.pending(gf_retry_event_)) return;
  gf_retry_event_ = events_.schedule_in(config_.gf_retry_interval, timers_, [this] {
    if (!running_) return;
    run_gf_retries();
    schedule_gf_retry();
  });
}

void Router::run_gf_retries() {
  const sim::TimePoint now = events_.now();
  const std::uint64_t expired_before = scf_.stats().expired;
  scf_.sweep(now, [this, now](const ScfBuffer::Entry& entry) {
    const auto selection = select_next_hop(loc_table_, address_, mobility_.position(),
                                           entry.destination, now, gf_policy());
    if (!selection) return false;
    transmit(entry.msg, selection->next_hop.address.mac());
    ++stats_.gf_unicast_forwards;
    if (config_.retx_enabled) {
      // A flushed packet re-enters hop confirmation with a fresh attempt
      // budget (its earlier `tried` set is stale by now anyway).
      arm_hop_confirm(entry.msg, entry.destination, selection->next_hop.address);
    }
    return true;
  });
  // Lifetime expiries surface under the legacy drop counter as well, so
  // gf_drops keeps meaning "packet abandoned by greedy forwarding".
  stats_.gf_drops += scf_.stats().expired - expired_before;
}

void Router::schedule_monitor_sweep() {
  monitor_event_ = events_.schedule_in(monitor_.config().miss_period, timers_, [this] {
    if (!running_) return;
    run_monitor_sweep();
    schedule_monitor_sweep();
  });
}

void Router::run_monitor_sweep() {
  const sim::TimePoint now = events_.now();
  for (const net::GnAddress addr : monitor_.evictable(now)) {
    loc_table_.erase(addr);
    monitor_.forget(addr);
    ++stats_.neighbor_evictions;
  }
}

void Router::deliver(const security::SecuredMessagePtr& msg, net::MacAddress from) {
  ++stats_.delivered;
  const Delivery delivery{msg, events_.now(), from};
  if (delivery_) delivery_(delivery);
  for (const auto& listener : listeners_) listener(delivery);
}

void Router::transmit(const security::SecuredMessagePtr& msg, net::MacAddress dst) {
  // Any outgoing GN packet proves our liveness/position to neighbours, so
  // the beacon timer restarts (ETSI §8.3 beacon service): a station whose
  // CAMs/forwards already advertise its PV sends no extra beacons. Beacons
  // themselves are rescheduled by their own send path.
  if (!msg->packet().is_beacon() && events_.pending(beacon_event_)) {
    events_.cancel(beacon_event_);
    schedule_beacon();
  }
  phy::Frame frame;
  frame.src = address_.mac();
  frame.dst = dst;
  frame.msg = msg;  // shares the envelope — no packet copy per transmission
  if (mac_layer_ != nullptr) {
    // Channel access via CSMA/CA (+ DCC pacing): the frame queues and
    // contends; the medium sees it at dequeue time. Beacons are classified
    // for DCC admission — everything else is paced data.
    mac_layer_->enqueue(std::move(frame), msg->packet().is_beacon()
                                              ? phy::MacAccessClass::kBeacon
                                              : phy::MacAccessClass::kData);
  } else {
    medium_.transmit(radio_, std::move(frame));
  }
}

}  // namespace vgr::gn
