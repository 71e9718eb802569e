#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "vgr/geo/vec2.hpp"
#include "vgr/net/address.hpp"
#include "vgr/phy/fault_injector.hpp"
#include "vgr/phy/spatial_grid.hpp"
#include "vgr/phy/technology.hpp"
#include "vgr/security/secured_message.hpp"
#include "vgr/sim/event_queue.hpp"
#include "vgr/sim/random.hpp"

namespace vgr::phy {

/// One over-the-air transmission unit: link-layer header plus the secured
/// GeoNetworking envelope. The MAC source/destination are plaintext and
/// unauthenticated.
///
/// The envelope rides as a shared immutable pointer: the sender wraps its
/// message once and every co-receiver of the transmission, every buffered
/// copy (CBF contention, SCF carry, pending retransmission) and every
/// later hop whose rewrite only touches the basic header aliases the same
/// object — and with it the message's signed-portion and wire caches. A
/// frame on the air always carries a non-null `msg`.
struct Frame {
  net::MacAddress src{};
  net::MacAddress dst{net::MacAddress::broadcast()};
  security::SecuredMessagePtr msg{};
  /// When non-empty, this receiver's copy arrived byte-corrupted: `raw` is
  /// the damaged wire image of `msg.packet` and MUST be decoded instead of
  /// trusting the structured packet (the router's ingest path does this,
  /// counting undecodable frames). Empty on the clean fast path, so no
  /// per-delivery encode/decode cost is paid without fault injection.
  net::Bytes raw{};
};

/// Identifies a node registered on the medium.
struct RadioId {
  std::uint32_t value{0};
  friend bool operator==(RadioId, RadioId) = default;
};

/// Reception model for the shared channel.
///
/// * kDisk — a frame is received by every node within the sender's
///   configured transmission range. This matches the paper's simulator and
///   keeps the reproduction deterministic.
/// * kLogDistanceFading — disk reception degraded by distance-dependent
///   loss (success probability falls from 1 at `fading_onset_fraction` of
///   the range to 0 at the range edge), for ablation studies.
enum class ReceptionModel { kDisk, kLogDistanceFading };

/// Rebuild cadence of the medium's spatial index (see Medium::set_index_mode).
///
/// * kPerEvent — the index is rebuilt lazily whenever the event queue has
///   progressed since the last build (positions can only change inside event
///   callbacks, so within one callback the snapshot is always exact). Safe
///   for any driver, including tests that poke the medium directly.
/// * kExplicit — the index is rebuilt only when `invalidate_index()` is
///   called or the node set changes. Scenario drivers whose node positions
///   move exclusively on a mobility tick (e.g. the highway's 100 ms IDM
///   tick) use this to amortise one O(N) rebuild over every frame sent
///   between ticks, which is where the O(N^2) -> O(N*k) win comes from.
enum class IndexMode { kPerEvent, kExplicit };

/// The shared broadcast radio channel.
///
/// Reception is sender-range based: each transmitter owns a TX power setting
/// expressed directly as a range in metres (the paper's attacker "changes
/// its transmission power to control its communication range"). Unicast
/// frames still propagate to *every* node in range — radio is a broadcast
/// medium — so a promiscuous sniffer overhears unicast traffic; normal
/// radios drop frames addressed elsewhere before the GN layer sees them.
class Medium {
 public:
  using RxCallback = std::function<void(const Frame&, RadioId sender)>;
  using PositionFn = std::function<geo::Position()>;
  /// Returns true when the direct path a->b is blocked (terrain, curve).
  using ObstructionFn = std::function<bool(geo::Position, geo::Position)>;

  Medium(sim::EventQueue& events, AccessTechnology tech, sim::Rng rng = sim::Rng{0x51CEu});

  struct NodeConfig {
    net::MacAddress mac{};
    PositionFn position{};
    double tx_range_m{0.0};
    /// Receive range override: when positive, this node hears exactly the
    /// frames whose sender is within this distance — no more, no less —
    /// replacing the default sender-power rule. 0 (default) models a stock
    /// vehicle radio (reception bounded by the sender's range). The
    /// roadside attacker sets this to its attack range: in the paper's
    /// model the attacker's tunable communication range governs both what
    /// it can reach and what it can overhear (§III-A, §IV-A).
    double rx_range_m{0.0};
    bool promiscuous{false};
  };

  /// Registers a node; `rx` fires for every frame the node receives.
  RadioId add_node(NodeConfig config, RxCallback rx);
  void remove_node(RadioId id);

  /// Adjusts a node's transmission power (as an effective range).
  void set_tx_range(RadioId id, double range_m);
  [[nodiscard]] double tx_range(RadioId id) const;

  /// Adjusts a node's receive-sensitivity range (see NodeConfig::rx_range_m).
  void set_rx_range(RadioId id, double range_m);

  /// Rebinds a node's link-layer address (pseudonym rotation: the station
  /// changes its MAC together with its GN address so rotations stay
  /// unlinkable at every layer).
  void set_mac(RadioId id, net::MacAddress mac);

  /// Enables co-channel interference: two frames whose airtime overlaps at
  /// a receiver destroy each other there (no capture effect). Off by
  /// default — the paper's simulator ignores interference — and available
  /// for ablation studies.
  void set_interference(bool on) { interference_ = on; }
  [[nodiscard]] std::uint64_t frames_collided() const { return frames_collided_; }

  /// Installs an obstruction predicate (empty = free space everywhere).
  void set_obstruction(ObstructionFn fn) { obstruction_ = std::move(fn); }

  /// Installs the channel fault injector (nullptr removes it). A disabled
  /// injector is inert: it draws nothing from its RNG stream and the run is
  /// bit-identical to one without any injector installed.
  void set_fault_injector(std::unique_ptr<FaultInjector> injector) {
    injector_ = std::move(injector);
  }
  [[nodiscard]] FaultInjector* fault_injector() { return injector_.get(); }
  [[nodiscard]] const FaultInjector* fault_injector() const { return injector_.get(); }

  void set_reception_model(ReceptionModel model) { reception_model_ = model; }
  /// For kLogDistanceFading: fraction of the range where loss begins.
  void set_fading_onset_fraction(double f) { fading_onset_ = f; }

  /// Link-layer bytes added to every frame's encoded GN wire size when
  /// converting it to airtime (MAC header + LLC/SNAP + FCS; the GN packet
  /// itself is already measured exactly via Codec::wire_size). 0 — the
  /// default — keeps the historical GN-only airtime, so runs without the
  /// MAC layer stay byte-identical; the MAC config carries the knob
  /// (MacConfig::airtime_overhead_bytes) and the scenario applies it only
  /// when the MAC is enabled.
  void set_airtime_overhead_bytes(std::size_t bytes) { airtime_overhead_bytes_ = bytes; }
  [[nodiscard]] std::size_t airtime_overhead_bytes() const { return airtime_overhead_bytes_; }

  /// Transmits `frame` from `sender` using the sender's configured range;
  /// `range_override_m`, when positive, applies to this frame only (the
  /// blockage-attack variant uses this for its low-power targeted replay).
  void transmit(RadioId sender, Frame frame, double range_override_m = -1.0);

  /// Carrier sense: the instant until which `id` perceives the channel as
  /// busy (any overheard transmission's airtime, including frames addressed
  /// elsewhere). Routers defer CBF rebroadcasts while busy, like CSMA/CA.
  [[nodiscard]] sim::TimePoint busy_until(RadioId id) const;

  /// Cumulative channel-busy time perceived by `id` (exact union of every
  /// overheard airtime interval — intervals always begin at the current
  /// event time, so the union needs no interval set, just the clamp against
  /// the previous `busy_until`). The MAC layer differentiates this between
  /// samples to measure the channel busy ratio feeding DCC.
  [[nodiscard]] sim::Duration busy_time(RadioId id) const;

  // --- Spatial index ----------------------------------------------------

  /// Disables/enables the spatial index; off falls back to the O(N) scan
  /// over every node per frame (reference path, used by `bench_scale` to
  /// measure the crossover). Receiver visit order is ascending RadioId in
  /// both paths, so delivery results are identical either way.
  void set_spatial_index(bool on) { use_index_ = on; }
  [[nodiscard]] bool spatial_index_enabled() const { return use_index_; }

  /// Selects the index rebuild cadence (see IndexMode). Callers choosing
  /// kExplicit take on the obligation to call `invalidate_index()` after
  /// every batch of position updates.
  void set_index_mode(IndexMode mode) { index_mode_ = mode; }

  /// Marks the index stale; the next transmit rebuilds it (and purges nodes
  /// removed since the last build).
  void invalidate_index() { index_dirty_ = true; }

  /// Number of index rebuilds so far (perf introspection).
  [[nodiscard]] std::uint64_t index_rebuilds() const { return index_rebuilds_; }

  /// Rebuilds the index now if it is stale, instead of on the next
  /// transmit (lets a caller time the rebuild on its own).
  void prepare_index() { ensure_index(); }

  [[nodiscard]] AccessTechnology technology() const { return tech_; }
  [[nodiscard]] std::size_t node_count() const { return live_nodes_; }
  [[nodiscard]] std::uint64_t frames_sent() const { return frames_sent_; }
  [[nodiscard]] std::uint64_t frames_delivered() const { return frames_delivered_; }

 private:
  struct Node {
    NodeConfig config;
    RxCallback rx;
    bool alive{true};
    sim::TimePoint busy_until{};
    /// Cumulative perceived busy time (see Medium::busy_time).
    sim::Duration busy_accum{};
    /// In-flight receptions at this node (interference bookkeeping).
    struct Reception {
      sim::TimePoint start;
      sim::TimePoint end;
      std::shared_ptr<bool> corrupted;
    };
    std::vector<Reception> inflight;
  };

  [[nodiscard]] bool receivable(const Node& to, geo::Position from_pos, geo::Position to_pos,
                                double range_m, double distance_m);

  /// Extends `node`'s carrier-sense horizon to `until`, crediting the time
  /// in [now, until] not already covered by the previous horizon to its
  /// busy-time accumulator.
  void extend_busy(Node& node, sim::TimePoint now, sim::TimePoint until);

  /// Transmit body shared by the public entry point and fault-injected
  /// duplicates; `faults` carries the frame-level decisions already drawn.
  /// Takes the frame as an immutable shared pointer: the public `transmit`
  /// wraps it exactly once, and from there the same object is held by the
  /// duplication branch and the frame's flight — no further frame copies
  /// anywhere on the clean path.
  void transmit_impl(RadioId sender, std::shared_ptr<const Frame> frame,
                     double range_override_m, const FaultInjector::FrameDecision& faults);

  /// Rebuilds the spatial index if it may be stale (dead nodes are left
  /// out of the index). No-op while the index is current.
  void ensure_index();

  // --- Delivery cursor --------------------------------------------------
  // A transmission's receivers become one *flight*: its arrivals sorted by
  // (time, event number), walked by a single calendar entry that delivers
  // to one receiver and re-arms at the next. The event numbers are reserved
  // as one block at send time, in ascending RadioId order, so each delivery
  // fires at exactly the (time, number) a per-receiver event would have.

  /// One receiver of a flight. Trivially copyable, so a flight's arrivals
  /// sort as plain memory; per-receiver extras live in Flight::extras.
  struct Arrival {
    sim::TimePoint at;
    std::uint64_t event;  ///< reserved event number
    std::uint32_t radio;  ///< RadioId value
    std::uint32_t extra;  ///< index into Flight::extras, or kNoExtra
  };
  static_assert(std::is_trivially_copyable_v<Arrival>);
  static constexpr std::uint32_t kNoExtra = ~std::uint32_t{0};
  /// What a receiver's delivery needs beyond the shared frame.
  struct Extra {
    std::shared_ptr<const Frame> damaged;  ///< corrupted copy (fault injection)
    std::shared_ptr<bool> collided;        ///< interference flag
  };
  struct Flight {
    std::shared_ptr<const Frame> frame;
    RadioId sender;
    std::vector<Arrival> arrivals;
    std::vector<Extra> extras;
    std::size_t next{0};  ///< arrival the pending calendar entry delivers
  };

  /// Delivers the next arrival of `flights_[index]` and re-arms the cursor
  /// at the one after it; the flight returns to the pool after its last
  /// receiver's callback has returned (callbacks may transmit re-entrantly).
  void deliver_next(std::uint32_t index);

  sim::EventQueue& events_;
  AccessTechnology tech_;
  sim::Rng rng_;
  ReceptionModel reception_model_{ReceptionModel::kDisk};
  double fading_onset_{0.8};
  ObstructionFn obstruction_{};
  std::unique_ptr<FaultInjector> injector_{};
  /// Node slot for RadioId `v` is nodes_[v - 1]: ids are issued
  /// sequentially from 1 and never reused, so the table is a flat vector —
  /// every per-candidate lookup on the delivery fan-out is one indexed
  /// load, not a hash probe. Removed nodes keep their (emptied) slot with
  /// alive=false; in-flight deliveries to them resolve via the alive check.
  [[nodiscard]] Node& node_at(RadioId id) {
    assert(id.value >= 1 && id.value <= nodes_.size());
    return nodes_[id.value - 1];
  }
  [[nodiscard]] const Node& node_at(RadioId id) const {
    assert(id.value >= 1 && id.value <= nodes_.size());
    return nodes_[id.value - 1];
  }

  std::uint32_t next_id_{1};
  std::vector<Node> nodes_;
  std::size_t live_nodes_{0};
  bool interference_{false};
  std::size_t airtime_overhead_bytes_{0};
  std::uint64_t frames_sent_{0};
  std::uint64_t frames_delivered_{0};
  std::uint64_t frames_collided_{0};

  /// Flight pool: boxed so a flight stays put while re-entrant transmits
  /// grow the pool; released flights keep their vectors' capacity.
  std::vector<std::unique_ptr<Flight>> flights_;
  std::vector<std::uint32_t> free_flights_;

  // Spatial index state.
  SpatialGrid grid_;
  bool use_index_{true};
  IndexMode index_mode_{IndexMode::kPerEvent};
  bool index_dirty_{true};
  sim::TimePoint index_built_at_{};
  std::uint64_t index_built_fired_{~0ULL};
  /// Largest receive-range override among indexed nodes; a transmit must
  /// query at least this far because such a node hears by *its* range even
  /// when the sender's power would not reach it.
  double max_rx_range_m_{0.0};
  std::uint64_t index_rebuilds_{0};
  std::vector<std::uint32_t> candidates_;  ///< query scratch (hot path)
  std::vector<SpatialGrid::Entry> index_entries_;  ///< rebuild scratch (hot path)
  /// Node positions captured at the last index rebuild, slot-indexed like
  /// nodes_. With the index on, the delivery fan-out reads these instead of
  /// invoking every candidate's position callback: the rebuild cadence
  /// already guarantees the snapshot is exact (kPerEvent rebuilds on any
  /// event progress; kExplicit callers invalidate after every movement
  /// batch), so the values are identical — this only removes ~2 indirect
  /// std::function calls per candidate. Dead slots hold stale values and
  /// are never queried (the grid excludes dead nodes).
  std::vector<geo::Position> pos_snapshot_;
};

}  // namespace vgr::phy
