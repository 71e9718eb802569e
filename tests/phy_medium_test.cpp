#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "vgr/phy/medium.hpp"
#include "vgr/security/authority.hpp"

namespace vgr::phy {
namespace {

using namespace vgr::sim::literals;

struct TestNode {
  geo::Position pos;
  std::vector<Frame> received;
  RadioId id{};
};

class MediumTest : public ::testing::Test {
 protected:
  MediumTest() : medium_{events_, AccessTechnology::kDsrc} {}

  TestNode& add(geo::Position pos, double range, std::uint64_t mac, bool promiscuous = false) {
    nodes_.push_back(std::make_unique<TestNode>());
    TestNode& n = *nodes_.back();
    n.pos = pos;
    Medium::NodeConfig cfg;
    cfg.mac = net::MacAddress{mac};
    cfg.position = [&n] { return n.pos; };
    cfg.tx_range_m = range;
    cfg.promiscuous = promiscuous;
    n.id = medium_.add_node(std::move(cfg), [&n](const Frame& f, RadioId) {
      n.received.push_back(f);
    });
    return n;
  }

  Frame broadcast_frame(std::uint64_t src) {
    Frame f;
    f.src = net::MacAddress{src};
    f.dst = net::MacAddress::broadcast();
    f.msg = security::share(security::SecuredMessage{});
    return f;
  }

  void settle() { events_.run_until(events_.now() + 1_s); }

  sim::EventQueue events_;
  Medium medium_;
  std::vector<std::unique_ptr<TestNode>> nodes_;
};

TEST_F(MediumTest, DeliversWithinRange) {
  TestNode& a = add({0, 0}, 100.0, 1);
  TestNode& b = add({50, 0}, 100.0, 2);
  medium_.transmit(a.id, broadcast_frame(1));
  settle();
  EXPECT_EQ(b.received.size(), 1u);
  EXPECT_EQ(a.received.size(), 0u);  // no self-delivery
}

TEST_F(MediumTest, DropsBeyondRange) {
  TestNode& a = add({0, 0}, 100.0, 1);
  TestNode& b = add({150, 0}, 100.0, 2);
  medium_.transmit(a.id, broadcast_frame(1));
  settle();
  EXPECT_TRUE(b.received.empty());
}

TEST_F(MediumTest, RangeIsSenderDetermined) {
  // b has a tiny range but still hears a, whose range covers it.
  TestNode& a = add({0, 0}, 500.0, 1);
  TestNode& b = add({400, 0}, 10.0, 2);
  medium_.transmit(a.id, broadcast_frame(1));
  settle();
  EXPECT_EQ(b.received.size(), 1u);
  // The reverse direction fails: b's 10 m range cannot reach a.
  medium_.transmit(b.id, broadcast_frame(2));
  settle();
  EXPECT_TRUE(a.received.empty());
}

TEST_F(MediumTest, UnicastFilteredByMac) {
  TestNode& a = add({0, 0}, 100.0, 1);
  TestNode& b = add({10, 0}, 100.0, 2);
  TestNode& c = add({20, 0}, 100.0, 3);
  Frame f = broadcast_frame(1);
  f.dst = net::MacAddress{3};
  medium_.transmit(a.id, f);
  settle();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(c.received.size(), 1u);
}

TEST_F(MediumTest, PromiscuousNodeOverhearsUnicast) {
  TestNode& a = add({0, 0}, 100.0, 1);
  add({10, 0}, 100.0, 2);
  TestNode& sniffer = add({30, 0}, 100.0, 0xBAD, /*promiscuous=*/true);
  Frame f = broadcast_frame(1);
  f.dst = net::MacAddress{2};
  medium_.transmit(a.id, f);
  settle();
  EXPECT_EQ(sniffer.received.size(), 1u);
}

TEST_F(MediumTest, RangeOverrideAppliesToSingleFrame) {
  TestNode& a = add({0, 0}, 1000.0, 1);
  TestNode& b = add({500, 0}, 100.0, 2);
  medium_.transmit(a.id, broadcast_frame(1), /*range_override_m=*/100.0);
  settle();
  EXPECT_TRUE(b.received.empty());
  medium_.transmit(a.id, broadcast_frame(1));  // back to full power
  settle();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST_F(MediumTest, SetTxRangeTakesEffect) {
  TestNode& a = add({0, 0}, 10.0, 1);
  TestNode& b = add({500, 0}, 100.0, 2);
  medium_.set_tx_range(a.id, 600.0);
  EXPECT_DOUBLE_EQ(medium_.tx_range(a.id), 600.0);
  medium_.transmit(a.id, broadcast_frame(1));
  settle();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST_F(MediumTest, RemovedNodeReceivesNothing) {
  TestNode& a = add({0, 0}, 100.0, 1);
  TestNode& b = add({10, 0}, 100.0, 2);
  medium_.remove_node(b.id);
  medium_.transmit(a.id, broadcast_frame(1));
  settle();
  EXPECT_TRUE(b.received.empty());
}

TEST_F(MediumTest, RemovalDuringFlightIsSafe) {
  TestNode& a = add({0, 0}, 100.0, 1);
  TestNode& b = add({10, 0}, 100.0, 2);
  medium_.transmit(a.id, broadcast_frame(1));
  medium_.remove_node(b.id);  // frame already in flight
  settle();
  EXPECT_TRUE(b.received.empty());
}

TEST_F(MediumTest, ObstructionBlocksPath) {
  TestNode& a = add({-50, 0}, 200.0, 1);
  TestNode& b = add({50, 0}, 200.0, 2);
  medium_.set_obstruction([](geo::Position p, geo::Position q) {
    return (p.x < 0.0) != (q.x < 0.0);
  });
  medium_.transmit(a.id, broadcast_frame(1));
  settle();
  EXPECT_TRUE(b.received.empty());
}

TEST_F(MediumTest, DeliveryIsDelayedNotInstant) {
  TestNode& a = add({0, 0}, 100.0, 1);
  TestNode& b = add({50, 0}, 100.0, 2);
  medium_.transmit(a.id, broadcast_frame(1));
  EXPECT_TRUE(b.received.empty());  // nothing until events run
  settle();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST_F(MediumTest, CountersTrackTraffic) {
  TestNode& a = add({0, 0}, 100.0, 1);
  add({10, 0}, 100.0, 2);
  add({20, 0}, 100.0, 3);
  medium_.transmit(a.id, broadcast_frame(1));
  settle();
  EXPECT_EQ(medium_.frames_sent(), 1u);
  EXPECT_EQ(medium_.frames_delivered(), 2u);
}

TEST_F(MediumTest, FadingModelDropsNearRangeEdge) {
  medium_.set_reception_model(ReceptionModel::kLogDistanceFading);
  medium_.set_fading_onset_fraction(0.5);
  TestNode& a = add({0, 0}, 100.0, 1);
  TestNode& near = add({20, 0}, 100.0, 2);   // inside onset: always received
  TestNode& edge = add({95, 0}, 100.0, 3);   // deep in the fade zone
  for (int i = 0; i < 200; ++i) medium_.transmit(a.id, broadcast_frame(1));
  settle();
  EXPECT_EQ(near.received.size(), 200u);
  EXPECT_GT(edge.received.size(), 0u);
  EXPECT_LT(edge.received.size(), 100u);  // ~10% expected at 95/100
}

TEST_F(MediumTest, AirtimeOverheadExtendsTheBusyWindow) {
  // The airtime of a frame derives from its exact encoded GN wire size plus
  // the configured link-layer overhead. Default overhead is 0 — MAC-off
  // runs keep the historical GN-only airtime byte for byte.
  EXPECT_EQ(medium_.airtime_overhead_bytes(), 0u);
  TestNode& a = add({0, 0}, 100.0, 1);
  add({50, 0}, 100.0, 2);

  Frame f = broadcast_frame(1);
  const std::size_t wire = f.msg->wire_size();
  medium_.transmit(a.id, std::move(f));
  settle();
  // The transmitter occupies its own channel for exactly the airtime.
  EXPECT_EQ(medium_.busy_time(a.id), airtime(AccessTechnology::kDsrc, wire));

  medium_.set_airtime_overhead_bytes(38);
  medium_.transmit(a.id, broadcast_frame(1));
  settle();
  EXPECT_EQ(medium_.busy_time(a.id),
            airtime(AccessTechnology::kDsrc, wire) +
                airtime(AccessTechnology::kDsrc, wire + 38));
}

// --- Delivery order -----------------------------------------------------------
// Every reception of a small fixed scene, logged in firing order as
// "<ns since t0>:<receiver><<sender>" ('*' marks a corrupted copy). Nodes sit
// on a line with a 200 m range, so every node hears every other:
//
//   G(-30)  A(0)  C(30)  D(50)  E(70)  B(100)  F(130)
//
// A and B transmit equal-size frames at the same instant, so arrivals tie
// across frames (A->C, A->G, B->E, B->F all land at airtime + 101 ns). At a
// tie the earlier-sent frame delivers first and, within one frame, the lower
// RadioId does; an event scheduled before the transmissions fires ahead of
// them and one scheduled after fires behind.
//
// A hinted scene gives every node a receive hint. `trace_` then interleaves
// hints ("<node>+<ahead>") with receptions ("<receiver><<sender>").
struct Scene {
  explicit Scene(bool hinted) : medium_{events_, AccessTechnology::kDsrc}, hinted_{hinted} {
    for (const auto& [name, x] : std::vector<std::pair<char, double>>{
             {'A', 0.0}, {'B', 100.0}, {'C', 30.0}, {'D', 50.0}, {'E', 70.0},
             {'F', 130.0}, {'G', -30.0}}) {
      add(name, x);
    }
  }
  Scene(const Scene&) = delete;  // the medium's callbacks hold `this`
  Scene& operator=(const Scene&) = delete;

  void add(char name, double x) {
    names_.push_back(name);
    Medium::NodeConfig cfg;
    cfg.mac = net::MacAddress{static_cast<std::uint64_t>(name)};
    cfg.position = [x] { return geo::Position{x, 0.0}; };
    cfg.tx_range_m = 200.0;
    Medium::RxHint hint;
    if (hinted_) {
      hint = [this, name](const Frame& f, std::uint32_t ahead) {
        trace_ += std::string{name} + "+" + std::to_string(ahead) + " ";
        hint_frames_.push_back(&f);
      };
    }
    medium_.add_node(
        std::move(cfg),
        [this, name](const Frame& f, RadioId from) {
          log(std::string{name} + "<" + names_[from.value - 1] + (f.raw.empty() ? "" : "*"));
          trace_ += std::string{name} + "<" + names_[from.value - 1] + " ";
          rx_frames_.push_back(&f);
          counts_ += std::to_string(events_.fired_count()) + "/" +
                     std::to_string(events_.pending_count()) + " ";
          if (const auto it = on_rx_.find(name); it != on_rx_.end()) {
            auto hook = std::move(it->second);
            on_rx_.erase(it);  // one-shot
            hook();
          }
        },
        std::move(hint));
  }

  void log(const std::string& what) {
    log_ += std::to_string((events_.now() - t0_).count()) + ":" + what + " ";
  }

  [[nodiscard]] RadioId id(char name) const {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return RadioId{static_cast<std::uint32_t>(i + 1)};
    }
    return RadioId{};
  }

  void send(char name) {
    Frame f;
    f.src = net::MacAddress{static_cast<std::uint64_t>(name)};
    f.msg = security::share(security::SecuredMessage{});
    medium_.transmit(id(name), std::move(f));
  }

  [[nodiscard]] sim::Duration frame_airtime() const {
    return airtime(AccessTechnology::kDsrc, security::SecuredMessage{}.wire_size());
  }

  sim::EventQueue events_;
  Medium medium_;
  bool hinted_;
  std::vector<char> names_;
  std::map<char, std::function<void()>> on_rx_;
  sim::TimePoint t0_{};
  std::string log_;
  std::string trace_;
  std::string counts_;  ///< fired/pending counts at each reception
  std::vector<const Frame*> hint_frames_;
  std::vector<const Frame*> rx_frames_;
};

class DeliveryOrderTest : public ::testing::Test, public Scene {
 protected:
  DeliveryOrderTest() : Scene{false} {}
};

TEST_F(DeliveryOrderTest, TiesAcrossFramesRemovalAndReentrantTransmit) {
  // C's first reception removes E while both frames are still in flight to
  // it; D's first reception transmits re-entrantly from inside the callback.
  on_rx_['C'] = [this] { medium_.remove_node(id('E')); };
  on_rx_['D'] = [this] { send('D'); };
  const sim::TimePoint tie = t0_ + frame_airtime() + sim::Duration::nanos(101);
  events_.schedule_at(tie, [this] { log("before"); });
  send('A');
  send('B');
  events_.schedule_at(tie, [this] { log("after"); });
  events_.run_until(t0_ + 1_s);
  EXPECT_EQ(log_,
            "92101:before 92101:C<A 92101:G<A 92101:F<B 92101:after 92167:D<A 92167:D<B "
            "92234:C<B 92334:B<A 92334:A<B 92434:F<A 92434:G<B 184234:C<D 184334:A<D "
            "184334:B<D 184434:F<D 184434:G<D ");
}

TEST_F(DeliveryOrderTest, FaultInjectedDropsAndCorruptionsKeepTheOrder) {
  FaultConfig faults;
  faults.link_loss_probability = 0.3;
  faults.corrupt_probability = 0.3;
  medium_.set_fault_injector(std::make_unique<FaultInjector>(faults, sim::Rng{42}));
  send('A');
  send('B');
  events_.run_until(t0_ + 10_ms);
  send('C');
  send('F');
  events_.run_until(t0_ + 1_s);
  EXPECT_EQ(log_,
            "92101:C<A 92101:G<A 92101:E<B 92101:F<B 92167:D<A 92167:D<B 92234:E<A 92234:C<B "
            "92434:F<A 10092067:D<C 10092134:E<C 10092201:G<C 10092201:E<F 10092234:B<C "
            "10092267:D<F 10092334:F<C* 10092334:C<F 10092434:A<F 10092534:G<F* ");
}

TEST_F(DeliveryOrderTest, InterferenceCorruptsOnlyOverlappingReceptions) {
  // B starts 200 ns after A's airtime ends at A's own radio: A's frame has
  // already arrived at C, D and G (101-167 ns away) but is still arriving
  // at E, B and F, so those three receptions collide with B's frame.
  medium_.set_interference(true);
  send('A');
  events_.schedule_at(t0_ + frame_airtime() + sim::Duration::nanos(200), [this] { send('B'); });
  events_.run_until(t0_ + 1_s);
  EXPECT_EQ(log_, "92101:C<A 92101:G<A 92167:D<A 184367:D<B 184434:C<B 184534:A<B 184634:G<B ");
  EXPECT_GT(medium_.frames_collided(), 0u);
}

TEST_F(DeliveryOrderTest, OneCalendarEntryPerFrameOneFiredEventPerDelivery) {
  // A's broadcast reaches the six other nodes: the queue holds one entry for
  // the whole flight, yet every delivery still counts as one fired event.
  const std::uint64_t fired_before = events_.fired_count();
  send('A');
  EXPECT_EQ(events_.pending_count(), 1u);
  events_.run_until(t0_ + 1_s);
  EXPECT_EQ(events_.fired_count() - fired_before, 6u);
  EXPECT_EQ(medium_.frames_delivered(), 6u);
  EXPECT_EQ(events_.pending_count(), 0u);
}

// --- In-place delivery --------------------------------------------------------
// A's frame alone reaches C and G at 92101 ns, D at 92167, E at 92234, B at
// 92334 and F at 92434. The cursor runs each arrival in place when it is the
// queue's next event, so these check that the run's edges still cut the
// flight exactly where per-receiver events would have.

constexpr const char* kAFlight =
    "92101:C<A 92101:G<A 92167:D<A 92234:E<A 92334:B<A 92434:F<A ";

TEST_F(DeliveryOrderTest, StepFiresOneDelivery) {
  send('A');
  ASSERT_TRUE(events_.step());
  EXPECT_EQ(log_, "92101:C<A ");
  EXPECT_EQ(events_.fired_count(), 1u);
  EXPECT_EQ(events_.pending_count(), 1u);  // the rest of the flight, filed
  events_.run_until(t0_ + 1_s);
  EXPECT_EQ(log_, kAFlight);
  EXPECT_EQ(events_.fired_count(), 6u);
}

TEST_F(DeliveryOrderTest, EventBudgetStopsMidFlightAndTheNextRunContinuesIt) {
  // E's arrival is inside the horizon; only the budget stops before it.
  send('A');
  events_.set_run_budget(/*max_events=*/3, /*wall_seconds=*/0.0);
  events_.run_until(t0_ + sim::Duration::nanos(92234));
  EXPECT_TRUE(events_.budget_exceeded());
  EXPECT_EQ(log_, "92101:C<A 92101:G<A 92167:D<A ");
  EXPECT_EQ(events_.fired_count(), 3u);
  EXPECT_EQ(events_.pending_count(), 1u);
  events_.set_run_budget(0, 0.0);
  events_.run_until(t0_ + 1_s);
  EXPECT_EQ(log_, kAFlight);
  EXPECT_EQ(events_.fired_count(), 6u);
}

TEST_F(DeliveryOrderTest, HorizonInsideAFlightLeavesTheRestForTheNextRun) {
  send('A');
  events_.run_until(t0_ + sim::Duration::nanos(92200));
  EXPECT_EQ(log_, "92101:C<A 92101:G<A 92167:D<A ");
  EXPECT_EQ(events_.now(), t0_ + sim::Duration::nanos(92200));
  EXPECT_EQ(events_.pending_count(), 1u);
  events_.run_until(t0_ + 1_s);
  EXPECT_EQ(log_, kAFlight);
}

TEST_F(DeliveryOrderTest, AReceiverThatThrowsLeavesTheQueueUsable) {
  // The exception abandons the rest of A's flight with the run it left;
  // the queue is out of run mode, so step() fires exactly one delivery of
  // B's flight, and run_until delivers the rest of it.
  on_rx_['G'] = [] { throw std::runtime_error{"rx failed"}; };
  send('A');
  EXPECT_THROW(events_.run_until(t0_ + 1_s), std::runtime_error);
  EXPECT_EQ(log_, "92101:C<A 92101:G<A ");
  log_.clear();
  send('B');
  ASSERT_TRUE(events_.step());
  EXPECT_EQ(log_, "184202:E<B ");
  events_.run_until(t0_ + 1_s);
  EXPECT_EQ(log_, "184202:E<B 184202:F<B 184268:D<B 184335:C<B 184435:A<B 184535:G<B ");
}

// --- Fan-out reuse -------------------------------------------------------------
// One sender, S, transmits three times per step, so within one index
// generation its second transmit keeps its candidate list and its third
// reuses it, while the scene changes between steps: an index invalidation,
// a move without one, a narrow then a full-range burst in a fresh
// generation, a range change, a removal and an add. Other nodes' ids are
// not in position order, so a list in the grid's cell order would not be in
// id order. The indexed medium must deliver exactly what the reference scan
// delivers.
class FanOutScene {
 public:
  explicit FanOutScene(bool index) : medium_{events_, AccessTechnology::kDsrc} {
    medium_.set_spatial_index(index);
    medium_.set_index_mode(IndexMode::kExplicit);
    for (const double x : {-350.0, 260.0, -120.0, 40.0, -260.0, 180.0, 90.0, -40.0, 330.0, -190.0,
                           130.0, -80.0}) {
      add(x);
    }
    sender_ = add(0.0);
  }
  FanOutScene(const FanOutScene&) = delete;  // the medium's callbacks hold `this`
  FanOutScene& operator=(const FanOutScene&) = delete;

  /// Adds a node at (`x`, 3); its reception log entries read
  /// "<ns>:<receiver><<sender>", with '*' for a corrupted copy.
  RadioId add(double x) {
    xs_.push_back(std::make_unique<double>(x));
    const double* pos = xs_.back().get();
    const std::string name = std::to_string(xs_.size());  // its RadioId
    Medium::NodeConfig cfg;
    cfg.mac = net::MacAddress{xs_.size()};
    cfg.position = [pos] { return geo::Position{*pos, 3.0}; };
    cfg.tx_range_m = 200.0;
    return medium_.add_node(std::move(cfg), [this, name](const Frame& f, RadioId from) {
      log_ += std::to_string((events_.now() - sim::TimePoint{}).count()) + ":" + name + "<" +
              std::to_string(from.value) + (f.raw.empty() ? "" : "*") + " ";
    });
  }

  /// S transmits three times, each followed by its deliveries; then, with
  /// `others`, node 4 (at 40 m) once, so the busy times hold other
  /// senders' frames too.
  void burst(double range_override_m = -1.0, bool others = true) {
    for (int i = 0; i < 3; ++i) {
      medium_.transmit(sender_, frame(), range_override_m);
      events_.run_until(events_.now() + 2_ms);
    }
    if (!others) return;
    medium_.transmit(RadioId{4}, frame());
    events_.run_until(events_.now() + 2_ms);
  }

  void play() {
    burst();
    medium_.invalidate_index();
    burst();
    // S moves without an invalidation: the snapshot stays exact for every
    // node but S, so only S transmits until the next one.
    *xs_.back() = 60.0;
    burst(-1.0, /*others=*/false);
    medium_.invalidate_index();
    burst(/*range_override_m=*/120.0);
    burst();
    medium_.set_tx_range(sender_, 300.0);
    burst();
    medium_.remove_node(RadioId{7});
    burst();
    add(150.0);
    burst();
  }

  [[nodiscard]] std::string busy_times() const {
    std::string out;
    for (std::uint32_t id = 1; id <= xs_.size(); ++id) {
      out += std::to_string(medium_.busy_time(RadioId{id}).count()) + " ";
    }
    return out;
  }

  static Frame frame() {
    Frame f;
    f.msg = security::share(security::SecuredMessage{});
    return f;
  }

  sim::EventQueue events_;
  Medium medium_;
  std::vector<std::unique_ptr<double>> xs_;
  RadioId sender_{};
  std::string log_;
};

void expect_index_matches_scan(const std::function<void(Medium&)>& setup) {
  FanOutScene scan{false};
  FanOutScene index{true};
  for (FanOutScene* scene : {&scan, &index}) {
    setup(scene->medium_);
    scene->play();
  }
  EXPECT_FALSE(scan.log_.empty());
  EXPECT_EQ(index.log_, scan.log_);
  EXPECT_EQ(index.busy_times(), scan.busy_times());
  EXPECT_EQ(index.medium_.frames_delivered(), scan.medium_.frames_delivered());
  EXPECT_GT(index.medium_.index_rebuilds(), 0u);
}

TEST(FanOutReuse, MatchesTheScanPathUnderFading) {
  expect_index_matches_scan([](Medium& m) {
    m.set_reception_model(ReceptionModel::kLogDistanceFading);
    m.set_fading_onset_fraction(0.5);
  });
}

TEST(FanOutReuse, MatchesTheScanPathUnderFaultInjection) {
  expect_index_matches_scan([](Medium& m) {
    FaultConfig faults;
    faults.link_loss_probability = 0.3;
    faults.corrupt_probability = 0.3;
    m.set_fault_injector(std::make_unique<FaultInjector>(faults, sim::Rng{7}));
  });
}

TEST(FanOutReuse, MatchesTheScanPathWithoutDraws) {
  expect_index_matches_scan([](Medium&) {});
}

// --- Receive hints ------------------------------------------------------------

TEST(ReceiveHint, RunsTwoThenOneDeliveryAheadOnlyForLiveReceiversStillAhead) {
  // A's frame arrives at C, G, D, E, B, F in that order. Each receiver's
  // hint runs two deliveries ahead, then one, then its rx; the first
  // receiver is never ahead of anything. C's reception removes D from the
  // medium, and D gets no hint from then on.
  Scene scene{true};
  scene.on_rx_['C'] = [&scene] { scene.medium_.remove_node(scene.id('D')); };
  scene.send('A');
  scene.events_.run_until(scene.t0_ + 1_s);
  EXPECT_EQ(scene.trace_, "D+2 G+1 C<A E+2 G<A B+2 E+1 F+2 B+1 E<A F+1 B<A F<A ");
  // Hints see the flight's frame, the one every clean reception gets.
  ASSERT_FALSE(scene.rx_frames_.empty());
  for (const Frame* f : scene.hint_frames_) EXPECT_EQ(f, scene.rx_frames_.front());
  for (const Frame* f : scene.rx_frames_) EXPECT_EQ(f, scene.rx_frames_.front());
}

TEST(ReceiveHint, HintsLeaveDeliveryOrderAndQueueCountsUnchanged) {
  // The busiest scene of the order tests above (ties across frames, a
  // removal mid-flight, a re-entrant transmit, fault-injected drops and
  // corruptions), run with and without hints.
  const auto run = [](bool hinted) {
    auto scene = std::make_unique<Scene>(hinted);
    Scene& s = *scene;
    FaultConfig faults;
    faults.link_loss_probability = 0.3;
    faults.corrupt_probability = 0.3;
    s.medium_.set_fault_injector(std::make_unique<FaultInjector>(faults, sim::Rng{42}));
    s.on_rx_['C'] = [&s] { s.medium_.remove_node(s.id('E')); };
    s.on_rx_['D'] = [&s] { s.send('D'); };
    s.send('A');
    s.send('B');
    s.events_.run_until(s.t0_ + 10_ms);
    s.send('C');
    s.send('F');
    s.events_.run_until(s.t0_ + 1_s);
    return scene;
  };
  const auto plain = run(false);
  const auto hinted = run(true);
  EXPECT_TRUE(plain->hint_frames_.empty());
  EXPECT_FALSE(hinted->hint_frames_.empty());
  EXPECT_EQ(hinted->log_, plain->log_);
  EXPECT_EQ(hinted->counts_, plain->counts_);
  EXPECT_EQ(hinted->events_.fired_count(), plain->events_.fired_count());
  EXPECT_EQ(hinted->events_.pending_count(), plain->events_.pending_count());
  EXPECT_EQ(hinted->medium_.frames_delivered(), plain->medium_.frames_delivered());
}

TEST(Technology, TableIIRanges) {
  const RangeTable dsrc = range_table(AccessTechnology::kDsrc);
  EXPECT_DOUBLE_EQ(dsrc.los_median_m, 1283.0);
  EXPECT_DOUBLE_EQ(dsrc.nlos_median_m, 486.0);
  EXPECT_DOUBLE_EQ(dsrc.nlos_worst_m, 327.0);
  const RangeTable cv2x = range_table(AccessTechnology::kCv2x);
  EXPECT_DOUBLE_EQ(cv2x.los_median_m, 1703.0);
  EXPECT_DOUBLE_EQ(cv2x.nlos_median_m, 593.0);
  EXPECT_DOUBLE_EQ(cv2x.nlos_worst_m, 359.0);
}

TEST(Technology, AirtimeScalesWithSize) {
  const auto t1 = airtime(AccessTechnology::kDsrc, 100);
  const auto t2 = airtime(AccessTechnology::kDsrc, 200);
  EXPECT_GT(t2, t1);
  // 100 bytes at 6 Mbps = 133.3 us.
  EXPECT_NEAR(t1.to_seconds() * 1e6, 133.3, 0.5);
}

TEST(Technology, PropagationDelayIsLightSpeed) {
  EXPECT_NEAR(propagation_delay(300.0).to_seconds() * 1e6, 1.0, 0.01);
}

TEST(Technology, Names) {
  EXPECT_STREQ(name(AccessTechnology::kDsrc), "DSRC");
  EXPECT_STREQ(name(AccessTechnology::kCv2x), "C-V2X");
}

}  // namespace
}  // namespace vgr::phy
