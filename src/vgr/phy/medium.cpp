#include "vgr/phy/medium.hpp"

#include <algorithm>
#include <cassert>

namespace vgr::phy {

Medium::Medium(sim::EventQueue& events, AccessTechnology tech, sim::Rng rng)
    : events_{events}, tech_{tech}, rng_{rng} {}

RadioId Medium::add_node(NodeConfig config, RxCallback rx, RxHint hint) {
  assert(config.position && "node needs a position source");
  assert(rx && "node needs a receive callback");
  const RadioId id{next_id_++};
  nodes_.push_back(
      Node{std::move(config), std::move(rx), std::move(hint), true, {}, {}, {}, {}});
  ++live_nodes_;
  index_dirty_ = true;
  return id;
}

void Medium::remove_node(RadioId id) {
  // Mark dead rather than erase — ids are slot indexes, so the slot stays
  // and in-flight deliveries resolve safely via the alive check. The
  // callbacks are released now; the empty slot itself is a few dozen bytes.
  if (id.value == 0 || id.value > nodes_.size()) return;
  Node& node = node_at(id);
  if (!node.alive) return;
  node.alive = false;
  node.rx = nullptr;
  node.hint = nullptr;
  node.config.position = nullptr;
  node.inflight.clear();
  node.fan_out = {};
  --live_nodes_;
  index_dirty_ = true;
}

void Medium::set_tx_range(RadioId id, double range_m) {
  node_at(id).config.tx_range_m = range_m;
  index_dirty_ = true;  // ranges feed the index cell size
}

void Medium::set_rx_range(RadioId id, double range_m) {
  node_at(id).config.rx_range_m = range_m;
  index_dirty_ = true;  // rx overrides widen the query radius
}

void Medium::set_mac(RadioId id, net::MacAddress mac) {
  node_at(id).config.mac = mac;
}

double Medium::tx_range(RadioId id) const {
  return node_at(id).config.tx_range_m;
}

sim::TimePoint Medium::busy_until(RadioId id) const {
  return node_at(id).busy_until;
}

sim::Duration Medium::busy_time(RadioId id) const {
  return node_at(id).busy_accum;
}

void Medium::extend_busy(Node& node, sim::TimePoint now, sim::TimePoint until) {
  // Every busy interval starts at the current event time, so time is only
  // ever appended monotonically: the union of all intervals grows by the
  // part of [now, until] not already covered by the previous horizon.
  if (until <= node.busy_until) return;
  node.busy_accum += until - std::max(node.busy_until, now);
  node.busy_until = until;
}

bool Medium::receivable(std::uint32_t id, const Node& to, geo::Position from_pos,
                        double range_m, double distance_m) {
  const double reach = to.config.rx_range_m > 0.0 ? to.config.rx_range_m : range_m;
  if (distance_m > reach) return false;
  if (obstruction_) {
    // The position the distance was measured to: the rebuild-time snapshot
    // with the index on (exact, see pos_snapshot_), live on the scan path.
    const geo::Position to_pos = use_index_ ? pos_snapshot_[id - 1] : to.config.position();
    if (obstruction_(from_pos, to_pos)) return false;
  }
  if (reception_model_ == ReceptionModel::kLogDistanceFading) {
    const double onset = fading_onset_ * range_m;
    if (distance_m > onset) {
      const double p = (range_m - distance_m) / (range_m - onset);
      if (!rng_.bernoulli(p)) return false;
    }
  }
  return true;
}

void Medium::transmit(RadioId sender, Frame frame, double range_override_m) {
  // Frame-level fault decisions (channel-wide loss, duplication, extra
  // delay) are drawn once per transmission, before the fan-out, in the
  // single-threaded event loop — so fault-injected runs replay exactly from
  // (seed, config) regardless of the harness's thread count.
  assert(frame.msg != nullptr && "a frame on the air carries an envelope");
  FaultInjector::FrameDecision faults;
  if (injector_ && injector_->enabled()) faults = injector_->on_frame();
  transmit_impl(sender, std::make_shared<const Frame>(std::move(frame)), range_override_m,
                faults);
}

void Medium::transmit_impl(RadioId sender, std::shared_ptr<const Frame> frame,
                           double range_override_m, const FaultInjector::FrameDecision& faults) {
  Node& sender_node = node_at(sender);
  assert(sender_node.alive && "unknown sender");
  const sim::TimePoint now = events_.now();
  const geo::Position from = sender_node.config.position();
  const double range = range_override_m > 0.0 ? range_override_m : sender_node.config.tx_range_m;

  ++frames_sent_;
  // Arithmetic size — no serialization on the airtime path. The per-frame
  // wire size is exact (Codec::wire_size == encode().size()); the optional
  // overhead models the link-layer envelope around it (see
  // set_airtime_overhead_bytes).
  const sim::Duration tx_time =
      airtime(tech_, frame->msg->wire_size() + airtime_overhead_bytes_);

  // The transmitter occupies its own channel for the frame's airtime; a
  // half-duplex radio is deaf while transmitting, so under the
  // interference model its own airtime corrupts any overlapping reception.
  extend_busy(sender_node, now, now + tx_time);
  if (interference_) {
    auto& inflight = sender_node.inflight;
    const sim::TimePoint tx_end = now + tx_time;
    for (auto it = inflight.begin(); it != inflight.end();) {
      if (it->end <= now) {
        it = inflight.erase(it);
        continue;
      }
      if (it->start < tx_end) {
        if (!*it->corrupted) ++frames_collided_;
        *it->corrupted = true;
      }
      ++it;
    }
    inflight.push_back(Node::Reception{now, tx_end, std::make_shared<bool>(true)});
  }

  // Channel-wide loss (i.i.d. drop or Gilbert–Elliott burst): the frame was
  // sent — the transmitter's radio was busy for its airtime — but reaches no
  // receiver. Modelled as zero radiated energy at every receiver, so no
  // carrier sense and no interference footprint either.
  if (faults.drop) return;

  // Fault-injected duplication: a second, identical transmission airs right
  // after the original's airtime (a stale retransmission). It is a real
  // frame — it counts in frames_sent_ and contends for the channel — but is
  // exempt from further frame-level fault draws to keep the model bounded.
  // The retransmission shares the immutable frame object; nothing is copied.
  if (faults.duplicate) {
    events_.schedule_in(tx_time, [this, sender, frame, range_override_m] {
      if (!node_at(sender).alive) return;
      transmit_impl(sender, frame, range_override_m, {});
    });
  }

  // Candidate receivers. With the index on, only the nodes whose grid cells
  // a transmission of this power can reach are visited (O(k) instead of
  // O(N)); the exact per-node distance/receivable check below is unchanged,
  // so both paths select the same receivers. A node hearing by its own
  // rx-range override is reachable out to `max_rx_range_m_`, hence the
  // query radius. Visit order is ascending RadioId in both paths, which is
  // the order the flight's event numbers are handed out in.
  ensure_index();
  const std::vector<Candidate>& candidates =
      query_candidates(sender_node, from, std::max(range, max_rx_range_m_));

  // Nothing below calls back into the event queue or the pool, so the
  // flight can be filled in place and handed back if nobody receives.
  std::uint32_t index = 0;
  if (free_flights_.empty()) {
    index = static_cast<std::uint32_t>(flights_.size());
    flights_.push_back(std::make_unique<Flight>());
  } else {
    index = free_flights_.back();
    free_flights_.pop_back();
  }
  Flight& flight = *flights_[index];

  for (const Candidate& candidate : candidates) {
    const std::uint32_t id = candidate.id;
    if (id == sender.value) continue;
    Node& node = nodes_[id - 1];
    if (!node.alive) continue;
    if (!receivable(id, node, from, range, candidate.dist)) continue;
    // Carrier sense: every node in radio range perceives the channel busy
    // for the frame's airtime, regardless of link-layer addressing.
    const sim::Duration propagation = propagation_delay(candidate.dist);
    const sim::TimePoint heard_until = now + tx_time + propagation;
    extend_busy(node, now, heard_until);

    // Interference bookkeeping: any airtime overlap at this receiver
    // corrupts both frames (no capture effect). Frames addressed elsewhere
    // still radiate energy, so they participate too. The shared corruption
    // flag exists only under the interference model — with it off, nothing
    // can retroactively damage a delivery, so no per-receiver flag is
    // allocated on the common path.
    std::shared_ptr<bool> corrupted;
    if (interference_) {
      corrupted = std::make_shared<bool>(false);
      const sim::TimePoint start = now;
      auto& inflight = node.inflight;
      for (auto it = inflight.begin(); it != inflight.end();) {
        if (it->end <= start) {
          it = inflight.erase(it);  // lazily drop completed receptions
          continue;
        }
        if (it->start < heard_until && start < it->end) {
          if (!*it->corrupted) ++frames_collided_;
          if (!*corrupted) ++frames_collided_;
          *it->corrupted = true;
          *corrupted = true;
        }
        ++it;
      }
      inflight.push_back(Node::Reception{start, heard_until, corrupted});
    }

    // Link-layer address filter: radios in normal mode drop frames that are
    // neither broadcast nor addressed to them. Promiscuous sniffers see all.
    const bool deliverable = node.config.promiscuous || frame->dst.is_broadcast() ||
                             frame->dst == node.config.mac;
    if (!deliverable) continue;

    // Delivery-level faults: each (frame, receiver) pair independently
    // suffers clean loss or byte corruption. Corruption reads the message's
    // cached wire image (encoded at most once per message, not per frame),
    // damages a private copy of the bytes, and ships them in `Frame::raw`
    // for the receiver to decode — the structured packet stays pristine for
    // the other receivers.
    std::shared_ptr<const Frame> damaged;
    if (injector_ && injector_->enabled()) {
      if (injector_->drop_delivery()) continue;
      if (injector_->corrupt_delivery()) {
        auto copy = std::make_shared<Frame>(*frame);
        copy->raw = frame->msg->wire();
        injector_->corrupt_bytes(copy->raw);
        damaged = std::move(copy);
      }
    }

    // The callback runs after the frame's airtime, like a real channel.
    const sim::Duration delay = tx_time + propagation + faults.extra_delay;
    std::uint32_t extra = kNoExtra;
    if (corrupted || damaged) {
      extra = static_cast<std::uint32_t>(flight.extras.size());
      flight.extras.push_back(Extra{std::move(damaged), std::move(corrupted)});
    }
    flight.arrivals.push_back(Arrival{now + delay, 0, id, extra});
  }

  if (flight.arrivals.empty()) {
    free_flights_.push_back(index);
    return;
  }
  const std::uint64_t first = events_.reserve_ids(flight.arrivals.size());
  for (std::size_t i = 0; i < flight.arrivals.size(); ++i) flight.arrivals[i].event = first + i;
  std::sort(flight.arrivals.begin(), flight.arrivals.end(),
            [](const Arrival& a, const Arrival& b) {
              return a.at != b.at ? a.at < b.at : a.event < b.event;
            });
  flight.frame = std::move(frame);
  flight.sender = sender;
  flight.next = 0;
  const Arrival& head = flight.arrivals.front();
  events_.schedule_reserved(head.at, head.event, [this, index] { deliver_next(index); });
}

const std::vector<Medium::Candidate>& Medium::query_candidates(Node& sender,
                                                               geo::Position from,
                                                               double radius) {
  std::vector<Candidate>* list = &candidate_scratch_;
  if (!use_index_) {
    // Reference scan: every live node in ascending RadioId order (slot i is
    // id i+1), measured to its live position.
    list->clear();
    for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
      const Node& node = nodes_[i];
      if (node.alive) list->push_back({i + 1, geo::distance(from, node.config.position())});
    }
    return *list;
  }
  // Same generation, radius and position: the same query result. Every
  // change that could move a distance or the candidate set (a node added or
  // removed, a range change, invalidate_index(), any event progress under
  // kPerEvent) rebuilds the index and so starts a new generation.
  FanOut& cache = sender.fan_out;
  if (cache.generation == index_rebuilds_ && cache.radius == radius && cache.from == from) {
    if (cache.kept) return cache.list;
    cache.kept = true;  // a second transmit in this generation: keep the list
    list = &cache.list;
  } else {
    cache.generation = index_rebuilds_;
    cache.radius = radius;
    cache.from = from;
    cache.kept = false;
  }
  // Ascending RadioId (query_into's order), measured to the rebuild-time
  // snapshot (exact, see pos_snapshot_).
  grid_.query_into(from, radius, query_ids_);
  list->clear();
  for (const std::uint32_t id : query_ids_) {
    list->push_back({id, geo::distance(from, pos_snapshot_[id - 1])});
  }
  return *list;
}

void Medium::deliver_next(std::uint32_t index) {
  Flight& flight = *flights_[index];
  for (;;) {
    const Arrival arrival = flight.arrivals[flight.next++];
    // Receive hints, a two-stage pipeline along the flight: the receiver two
    // deliveries ahead starts its first cache miss (its location-table probe
    // slot, in a router), and the one just ahead, whose first line has had a
    // delivery's time to arrive, prefetches what that line points at. Each
    // receiver is a different router with a cold table, so without this
    // every delivery stalls on a chain of misses; hints only read.
    hint(flight, flight.next + 1, 2);
    hint(flight, flight.next, 1);
    const Frame* frame = flight.frame.get();
    bool lost = false;
    if (arrival.extra != kNoExtra) {
      const Extra& extra = flight.extras[arrival.extra];
      lost = extra.collided && *extra.collided;
      if (extra.damaged) frame = extra.damaged.get();
    }
    // A receiver removed mid-flight keeps its slot with alive=false.
    const Node& receiver = node_at(RadioId{arrival.radio});
    if (!lost && receiver.alive) {
      ++frames_delivered_;
      receiver.rx(*frame, flight.sender);
    }
    if (flight.next == flight.arrivals.size()) {
      flight.frame.reset();
      flight.arrivals.clear();
      flight.extras.clear();
      free_flights_.push_back(index);
      return;
    }
    // Asked after the callback: an event it scheduled, or a re-entrant
    // transmit whose flight head orders first, now comes before the next
    // arrival, which is then filed instead.
    const Arrival& after = flight.arrivals[flight.next];
    if (!events_.run_in_place(after.at, after.event)) {
      events_.schedule_reserved(after.at, after.event, [this, index] { deliver_next(index); });
      return;
    }
  }
}

void Medium::hint(const Flight& flight, std::size_t at, std::uint32_t ahead) const {
  if (at >= flight.arrivals.size()) return;
  // remove_node drops the hint with `rx`, so a node removed mid-flight gets
  // none.
  const Node& node = node_at(RadioId{flight.arrivals[at].radio});
  if (node.hint) node.hint(*flight.frame, ahead);
}

void Medium::ensure_index() {
  if (!use_index_) return;
  // In kPerEvent mode any event-queue progress invalidates the snapshot:
  // positions only move inside event callbacks, so a snapshot taken within
  // the currently-running callback is exact until the next one fires.
  const bool progressed = index_built_at_ != events_.now() ||
                          index_built_fired_ != events_.fired_count();
  if (!index_dirty_ && !(index_mode_ == IndexMode::kPerEvent && progressed)) return;

  // Dead nodes keep their slot (ids are slot indexes) but are simply not
  // indexed; in-flight deliveries to them resolve via the alive check.
  index_entries_.clear();
  index_entries_.reserve(live_nodes_);
  pos_snapshot_.resize(nodes_.size());
  double max_reach = 0.0;
  max_rx_range_m_ = 0.0;
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    if (!node.alive) continue;
    const geo::Position p = node.config.position();
    index_entries_.push_back({i + 1, p});  // slot i is id i+1
    pos_snapshot_[i] = p;
    max_reach = std::max({max_reach, node.config.tx_range_m, node.config.rx_range_m});
    max_rx_range_m_ = std::max(max_rx_range_m_, node.config.rx_range_m);
  }
  grid_.rebuild(index_entries_, max_reach);
  index_dirty_ = false;
  index_built_at_ = events_.now();
  index_built_fired_ = events_.fired_count();
  ++index_rebuilds_;
}

}  // namespace vgr::phy
