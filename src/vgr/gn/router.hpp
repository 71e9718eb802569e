#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "vgr/gn/cbf.hpp"
#include "vgr/gn/config.hpp"
#include "vgr/gn/greedy_forwarder.hpp"
#include "vgr/gn/location_table.hpp"
#include "vgr/gn/mobility.hpp"
#include "vgr/gn/neighbor_monitor.hpp"
#include "vgr/gn/scf_buffer.hpp"
#include "vgr/net/duplicate_detector.hpp"
#include "vgr/phy/medium.hpp"
#include "vgr/security/secured_message.hpp"
#include "vgr/sim/event_queue.hpp"
#include "vgr/sim/random.hpp"

namespace vgr::gn {

/// Counters exposed for tests and experiment metrics.
struct RouterStats {
  std::uint64_t beacons_sent{0};
  std::uint64_t beacons_received{0};
  std::uint64_t gbc_originated{0};
  std::uint64_t delivered{0};
  std::uint64_t gf_unicast_forwards{0};
  std::uint64_t gf_broadcast_fallbacks{0};
  std::uint64_t gf_buffered{0};
  std::uint64_t gf_drops{0};
  std::uint64_t gf_plausibility_rejections{0};
  std::uint64_t cbf_contentions{0};
  std::uint64_t cbf_rebroadcasts{0};
  std::uint64_t cbf_suppressed{0};
  std::uint64_t cbf_mitigation_keeps{0};
  std::uint64_t auth_failures{0};
  // --- Verification counters (TrustStore last verdict, docs/performance.md):
  //     one increment per ingest signature check. A hit was answered from the
  //     trust store's last verdict (the same signed-portion object, signer,
  //     signature and trust generation as the previous check); a miss
  //     computed it in full.
  std::uint64_t verify_memo_hits{0};
  std::uint64_t verify_memo_misses{0};
  // --- Hardened-ingest drop counters, one per cause (see Router::ingest):
  //     every malformed or semantically invalid frame increments exactly one
  //     of these and is dropped before any router state (location table,
  //     duplicate detector, CBF buffer) is touched.
  std::uint64_t ingest_decode_failures{0};   ///< corrupted wire failed decode
  std::uint64_t ingest_invalid_pv{0};        ///< NaN/inf position vector field
  std::uint64_t ingest_invalid_rhl{0};       ///< RHL 0 or above max hop limit
  std::uint64_t ingest_invalid_lifetime{0};  ///< non-positive packet lifetime
  std::uint64_t ingest_oversized_payload{0}; ///< payload above kMaxPayloadBytes
  std::uint64_t stale_pv_drops{0};
  std::uint64_t duplicates{0};
  std::uint64_t rhl_exhausted{0};
  std::uint64_t shb_sent{0};
  std::uint64_t tsb_forwards{0};
  std::uint64_t ls_requests_sent{0};
  std::uint64_t ls_replies_sent{0};
  std::uint64_t ls_resolved{0};
  std::uint64_t ls_failures{0};
  std::uint64_t acks_sent{0};
  std::uint64_t acks_received{0};
  std::uint64_t ack_retries{0};
  std::uint64_t ack_failures{0};
  std::uint64_t identity_rotations{0};
  std::uint64_t dad_conflicts{0};
  // --- Recovery layer (docs/robustness.md): SCF buffering, neighbour
  //     soft-state and bounded retransmission. All zero unless the matching
  //     RouterConfig knobs are on; the SCF buffer's own insert/flush/expiry
  //     counters live in Router::scf().stats().
  std::uint64_t scf_flush_triggers{0};    ///< new-neighbour edges that swept the buffer
  std::uint64_t retx_attempts{0};         ///< same-hop retransmissions sent
  std::uint64_t retx_exhausted{0};        ///< forwards that ran out of hops and attempts
  std::uint64_t retx_duplicate_reacks{0}; ///< same-hop retransmits re-ACKed, not dropped
  std::uint64_t neighbor_evictions{0};    ///< monitor-evicted location-table entries

  /// Hardened-ingest drops summed over the five causes above.
  [[nodiscard]] std::uint64_t ingest_drops() const {
    return ingest_decode_failures + ingest_invalid_pv + ingest_invalid_rhl +
           ingest_invalid_lifetime + ingest_oversized_payload;
  }
};

/// A complete GeoNetworking router for one station, per ETSI EN 302
/// 636-4-1: periodic beaconing feeding a location table, Greedy Forwarding
/// for packets outside their destination area, Contention-Based Forwarding
/// inside it, and a security envelope on every transmission.
///
/// The default configuration reproduces the standard's (vulnerable)
/// behaviour analysed by the paper; the two mitigations of §V are enabled
/// through `RouterConfig::plausibility_check` / `rhl_drop_check`.
class Router {
 public:
  /// Application-layer delivery of a packet whose destination includes us.
  /// Holds the shared envelope rather than a Packet copy: handlers that
  /// store the Delivery keep the message alive through `msg`, and handing
  /// one to a handler costs a refcount, not a payload duplication.
  struct Delivery {
    security::SecuredMessagePtr msg;
    sim::TimePoint at;
    net::MacAddress from_mac;

    [[nodiscard]] const net::Packet& packet() const { return msg->packet(); }
  };
  using DeliveryHandler = std::function<void(const Delivery&)>;

  Router(sim::EventQueue& events, phy::Medium& medium, security::Signer signer,
         std::shared_ptr<const security::TrustStore> trust, const MobilityProvider& mobility,
         RouterConfig config, double tx_range_m, sim::Rng rng);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Begins periodic beaconing (first beacon desynchronised uniformly over
  /// one interval). Idempotent.
  void start();

  /// Cancels all timers and detaches from the medium. Called automatically
  /// by the destructor; also used when a vehicle leaves the road.
  void shutdown();

  // --- Transmission API -----------------------------------------------

  /// GeoBroadcast `payload` into `area`. Returns the sequence number used.
  net::SequenceNumber send_geo_broadcast(const geo::GeoArea& area, net::Bytes payload,
                                         std::optional<std::uint8_t> hop_limit = std::nullopt,
                                         std::optional<sim::Duration> lifetime = std::nullopt);

  /// GeoAnycast: `payload` to *any one* station inside `area` — the first
  /// receiver inside the area consumes the packet instead of flooding it.
  net::SequenceNumber send_geo_anycast(const geo::GeoArea& area, net::Bytes payload,
                                       std::optional<std::uint8_t> hop_limit = std::nullopt,
                                       std::optional<sim::Duration> lifetime = std::nullopt);

  /// GeoUnicast `payload` to `destination`; `position_hint` seeds the
  /// destination position when we have no location-table entry for it.
  net::SequenceNumber send_geo_unicast(net::GnAddress destination, geo::Position position_hint,
                                       net::Bytes payload,
                                       std::optional<std::uint8_t> hop_limit = std::nullopt,
                                       std::optional<sim::Duration> lifetime = std::nullopt);

  /// GeoUnicast without a position hint: when the destination is not in the
  /// location table, the packet is held while the Location Service floods a
  /// request (ETSI §10.2.2) and sent once the reply arrives.
  void send_geo_unicast_resolving(net::GnAddress destination, net::Bytes payload,
                                  std::optional<std::uint8_t> hop_limit = std::nullopt,
                                  std::optional<sim::Duration> lifetime = std::nullopt);

  /// Single-hop broadcast (SHB): payload to direct neighbours, never
  /// forwarded — the transport cooperative-awareness messages use.
  void send_single_hop_broadcast(net::Bytes payload);

  /// Topologically-scoped broadcast (TSB): hop-limited flood with duplicate
  /// suppression, no geographic constraint.
  net::SequenceNumber send_topo_broadcast(net::Bytes payload,
                                          std::optional<std::uint8_t> hop_limit = std::nullopt);

  /// Sends one beacon immediately (also used by tests).
  void send_beacon_now();

  /// Injects `frame` exactly as if it had been received from the medium —
  /// the entry point the fuzz harness and the malformed-frame tests drive.
  /// Runs the full hardened ingest pipeline: wire decode (when `frame.raw`
  /// is set), semantic validation, signature verification, then routing.
  void ingest(const phy::Frame& frame) {
    if (running_) on_frame(frame);
  }

  /// Overrides the next originated sequence number. A rebooting station
  /// calls this with a random draw so its post-reboot packets do not reuse
  /// sequence numbers its peers' duplicate detectors already hold (which
  /// would black-hole the station until the window ages out) — see
  /// docs/robustness.md.
  void seed_sequence_number(net::SequenceNumber sn) { next_sequence_ = sn; }

  /// Swaps the signing identity (pseudonym rotation, ETSI TS 102 731
  /// privacy service): subsequent transmissions use the new certificate,
  /// GN address and link-layer address. Peers' stale entries for the old
  /// alias age out of their location tables naturally.
  void rotate_identity(security::EnrolledIdentity identity);

  // --- Introspection ----------------------------------------------------

  void set_delivery_handler(DeliveryHandler handler) { delivery_ = std::move(handler); }

  /// Additional delivery observers (facilities-layer services); invoked
  /// after the primary handler, in registration order.
  void add_delivery_listener(DeliveryHandler listener) {
    listeners_.push_back(std::move(listener));
  }

  /// Invoked when duplicate address detection fires (our own GN address
  /// heard from another station) and `RouterConfig::dad_enabled` is set.
  /// The handler typically rotates to a fresh identity. Conflicts are
  /// counted in stats regardless of the flag.
  void set_address_conflict_handler(std::function<void()> handler) {
    on_address_conflict_ = std::move(handler);
  }

  [[nodiscard]] net::GnAddress address() const { return address_; }
  [[nodiscard]] net::MacAddress mac() const { return address_.mac(); }
  [[nodiscard]] const RouterStats& stats() const { return stats_; }
  /// The CSMA/CA contention layer, or nullptr when RouterConfig::mac is
  /// disabled (transmissions then hand off to the medium directly). Its
  /// stats() hold the MAC-plane counters.
  [[nodiscard]] const phy::Mac* mac_layer() const { return mac_layer_.get(); }
  [[nodiscard]] const LocationTable& location_table() const { return loc_table_; }
  [[nodiscard]] LocationTable& location_table() { return loc_table_; }
  [[nodiscard]] const RouterConfig& config() const { return config_; }
  [[nodiscard]] RouterConfig& config() { return config_; }
  [[nodiscard]] bool running() const { return running_; }

  /// The greedy next hop the router would pick right now toward
  /// `destination` (before any fallback) — introspection for the
  /// staleness/quarantine tests and the churn experiments.
  [[nodiscard]] std::optional<GfSelection> next_hop_toward(geo::Position destination) const {
    return select_next_hop(loc_table_, address_, mobility_.position(), destination,
                           events_.now(), gf_policy());
  }
  [[nodiscard]] const NeighborMonitor& neighbor_monitor() const { return monitor_; }
  [[nodiscard]] const ScfBuffer& scf() const { return scf_; }
  /// CBF contention entries dropped by the packet-lifetime bound.
  [[nodiscard]] std::uint64_t cbf_lifetime_drops() const { return cbf_.lifetime_expired(); }

  /// The router's current long position vector (self PV).
  [[nodiscard]] net::LongPositionVector self_pv() const;

 private:
  void on_frame(const phy::Frame& frame);

  /// The medium's receive hint (phy::Medium::RxHint) for `frame`, which
  /// on_frame will ingest `ahead` deliveries from now. Two ahead it starts
  /// loading the location table's probe slot for the frame's source and
  /// this router's own hot lines; one ahead, with the slot cached, the row
  /// the update will write. Reads only.
  void prefetch_rx(const phy::Frame& frame, std::uint32_t ahead) const;

  /// Routing pipeline behind `on_frame`, once the wire image (if any) has
  /// been decoded. `msg` is the *shared* immutable message — for a clean
  /// delivery it aliases `frame.msg`, which every co-receiver of the same
  /// transmission also sees, so nothing in here may mutate it; forwarding
  /// rewrites copy-on-mutate via `SecuredMessage::with_remaining_hop_limit`
  /// into a fresh shared envelope.
  void process_frame(const security::SecuredMessagePtr& msg, const phy::Frame& frame);

  /// Semantic ingest validation: rejects packets whose decoded fields could
  /// crash or poison the router (non-finite PV coordinates, impossible hop
  /// limits, non-positive lifetimes, oversized payloads), incrementing the
  /// matching per-cause drop counter. Runs before any state mutation.
  [[nodiscard]] bool validate_ingest(const net::Packet& p);

  // Handlers take the shared envelope by const reference to the pointer:
  // the per-receiver deep copy the old by-value signatures forced is
  // exactly what the encode-once/verify-once hot path removes. A handler
  // that forwards wraps its RHL rewrite in a fresh shared envelope and the
  // pointer is copied (never the message) from there on.
  void handle_beacon(const security::SecuredMessagePtr& msg);
  void handle_gbc(const security::SecuredMessagePtr& msg, const phy::Frame& frame);
  void handle_guc(const security::SecuredMessagePtr& msg, const phy::Frame& frame);
  void handle_gac(const security::SecuredMessagePtr& msg, const phy::Frame& frame);
  void handle_tsb(const security::SecuredMessagePtr& msg, const phy::Frame& frame);
  void handle_ls_request(const security::SecuredMessagePtr& msg, const phy::Frame& frame);
  void handle_ls_reply(const security::SecuredMessagePtr& msg, const phy::Frame& frame);
  void handle_ack(const security::SecuredMessagePtr& msg);
  void send_ls_request(net::GnAddress target);
  void ls_retry(net::GnAddress target);
  void send_ack_for(const net::Packet& packet, net::MacAddress to);
  void arm_ack_timer(const CbfKey& key);
  void ack_timeout(const CbfKey& key);

  /// Per-hop confirmation is armed for every GF unicast when either the
  /// legacy ACK extension or the recovery layer's bounded retransmission is
  /// on; they share the ACK wire format and pending-map machinery.
  [[nodiscard]] bool hop_confirm_enabled() const {
    return config_.gf_ack || config_.retx_enabled;
  }
  void arm_hop_confirm(security::SecuredMessagePtr msg, geo::Position destination,
                       net::GnAddress hop);
  /// Out of hops and attempts: park the packet in the SCF buffer when the
  /// recovery layer allows, otherwise count the failure.
  void hop_confirm_give_up(const CbfKey& key);

  /// Buffer deadline for a packet entering the SCF buffer: its remaining
  /// lifetime with the recovery layer on, the legacy fixed retry budget
  /// (20 retry intervals) otherwise.
  [[nodiscard]] sim::TimePoint scf_expiry(const net::Packet& p) const;

  void schedule_monitor_sweep();
  void run_monitor_sweep();

  /// Routes `msg` (a GBC/GUC whose RHL is already decremented) toward
  /// `destination` with Greedy Forwarding, applying the configured fallback.
  /// `exclude` removes unresponsive hops during ACK retries.
  void gf_route(security::SecuredMessagePtr msg, geo::Position destination, bool allow_buffer,
                const std::unordered_set<net::GnAddress>* exclude = nullptr);

  void cbf_contend(security::SecuredMessagePtr msg, std::uint8_t received_rhl,
                   const phy::Frame& frame);

  void deliver(const security::SecuredMessagePtr& msg, net::MacAddress from);
  void transmit(const security::SecuredMessagePtr& msg, net::MacAddress dst);
  void schedule_beacon();
  void schedule_gf_retry();
  void run_gf_retries();

  [[nodiscard]] GfPolicy gf_policy() const {
    return GfPolicy{config_.plausibility_check, config_.plausibility_threshold_m,
                    config_.plausibility_extrapolate,
                    config_.nbr_monitor ? &monitor_ : nullptr};
  }

  sim::EventQueue& events_;
  phy::Medium& medium_;
  security::Signer signer_;
  std::shared_ptr<const security::TrustStore> trust_;
  const MobilityProvider& mobility_;
  RouterConfig config_;
  sim::Rng rng_;

  net::GnAddress address_;
  phy::RadioId radio_{};
  /// CSMA/CA + DCC contention layer between transmit() and the medium.
  /// Only constructed when RouterConfig::mac.enabled — a null MAC keeps the
  /// synchronous router-to-medium handoff (and the RNG stream) of pre-MAC
  /// builds bit-identical. Its events live in the `timers_` cohort.
  std::unique_ptr<phy::Mac> mac_layer_;
  LocationTable loc_table_;
  net::DuplicateDetector duplicates_;
  CbfBuffer cbf_;
  RouterStats stats_;
  DeliveryHandler delivery_;
  std::vector<DeliveryHandler> listeners_;
  std::function<void()> on_address_conflict_;

  /// Store-carry-forward buffer. With `RouterConfig::scf_enabled` it runs
  /// capacity-bounded with per-packet lifetime expiry and is flushed the
  /// moment a new neighbour is learned; disabled, it is configured
  /// unbounded and reproduces the legacy GF retry buffer bit-for-bit.
  ScfBuffer scf_;
  NeighborMonitor monitor_;
  /// Cancellation cohort holding every router-owned timer (beacon, GF
  /// retry, monitor sweep, LS retries, ACK timers); shutdown retires the
  /// whole population with one generation bump instead of walking the
  /// pending maps. CBF contention timers live in the CbfBuffer's own cohort.
  sim::CohortId timers_{};
  sim::EventId gf_retry_event_{};
  sim::EventId monitor_event_{};
  sim::EventId beacon_event_{};
  net::SequenceNumber next_sequence_{0};
  bool running_{false};

  /// Location-service state: packets queued for an unresolved destination.
  struct LsPending {
    struct QueuedUnicast {
      net::Bytes payload;
      std::uint8_t hop_limit;
      sim::Duration lifetime;
    };
    std::vector<QueuedUnicast> queue;
    sim::EventId retry_timer{};
    int retries{0};
  };
  std::unordered_map<net::GnAddress, LsPending> ls_pending_;

  /// ACK'd-forwarding / retransmission state: unicast forwards awaiting
  /// confirmation. `retries` counts hop *reroutes* (legacy gf_ack
  /// semantics); with the recovery layer on, each hop additionally gets
  /// `retx_max_attempts` same-hop retransmissions with exponential backoff
  /// before being rerouted past.
  struct AckPending {
    security::SecuredMessagePtr msg;
    geo::Position destination;
    std::unordered_set<net::GnAddress> tried;
    sim::EventId timer{};
    int retries{0};
    net::GnAddress current_hop{};
    int attempts_this_hop{0};
  };
  std::unordered_map<CbfKey, AckPending, CbfKeyHash> ack_pending_;
};

}  // namespace vgr::gn
