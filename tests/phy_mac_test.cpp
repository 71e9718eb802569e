// CSMA/CA + DCC contention layer (docs/robustness.md): disabled passthrough,
// bounded-queue tail drop, carrier sense + retry exhaustion, DCC beacon
// gating, the medium's exact busy-time accumulator, and the fault-ordering
// contract (injected delay applies at dequeue, after MAC queueing).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "vgr/phy/fault_injector.hpp"
#include "vgr/phy/mac.hpp"
#include "vgr/phy/medium.hpp"
#include "vgr/security/authority.hpp"

namespace vgr::phy {
namespace {

using namespace vgr::sim::literals;

struct TestNode {
  geo::Position pos;
  std::vector<std::pair<Frame, sim::TimePoint>> received;
  RadioId id{};
};

class MacTest : public ::testing::Test {
 protected:
  MacTest() : medium_{events_, AccessTechnology::kDsrc} {}

  TestNode& add(geo::Position pos, double range, std::uint64_t mac) {
    nodes_.push_back(std::make_unique<TestNode>());
    TestNode& n = *nodes_.back();
    n.pos = pos;
    Medium::NodeConfig cfg;
    cfg.mac = net::MacAddress{mac};
    cfg.position = [&n] { return n.pos; };
    cfg.tx_range_m = range;
    n.id = medium_.add_node(std::move(cfg), [this, &n](const Frame& f, RadioId) {
      n.received.emplace_back(f, events_.now());
    });
    return n;
  }

  Frame frame_from(std::uint64_t src) {
    Frame f;
    f.src = net::MacAddress{src};
    f.dst = net::MacAddress::broadcast();
    f.msg = security::share(security::SecuredMessage{});
    return f;
  }

  /// A MAC on `node`'s radio with carrier sensing enabled and a fixed seed.
  std::unique_ptr<Mac> make_mac(const TestNode& node, MacConfig cfg,
                                DccConfig dcc = DccConfig{}) {
    return std::make_unique<Mac>(events_, medium_, node.id, events_.make_cohort(), cfg,
                                 dcc, sim::Rng{42});
  }

  /// Airtime of one test frame on this medium, measured empirically from the
  /// busy-time accumulator so the tests never hardcode the wire image size.
  sim::Duration frame_airtime(const TestNode& tx, const TestNode& rx) {
    const sim::Duration before = medium_.busy_time(rx.id);
    const sim::TimePoint start = events_.now();
    medium_.transmit(tx.id, frame_from(99));
    events_.run_until(start + 1_s);
    return medium_.busy_time(rx.id) - before;
  }

  void settle() { events_.run_until(events_.now() + 2_s); }

  /// Frames `node` received from link-layer source `src` (the jam-based
  /// tests share the air with a jammer whose frames everyone hears).
  std::vector<std::pair<Frame, sim::TimePoint>> received_from(const TestNode& node,
                                                              std::uint64_t src) {
    std::vector<std::pair<Frame, sim::TimePoint>> out;
    for (const auto& [f, at] : node.received) {
      if (f.src == net::MacAddress{src}) out.emplace_back(f, at);
    }
    return out;
  }

  /// Keeps the channel continuously busy with back-to-back jammer frames
  /// for at least `span`, starting immediately. Returns when the jam ends.
  sim::TimePoint jam(const TestNode& jammer, sim::Duration airtime, sim::Duration span) {
    const sim::TimePoint start = events_.now();
    const int frames = static_cast<int>(span / airtime) + 1;
    medium_.transmit(jammer.id, frame_from(7));
    for (int i = 1; i < frames; ++i) {
      events_.schedule_at(start + airtime * static_cast<double>(i),
                          [this, &jammer] { medium_.transmit(jammer.id, frame_from(7)); });
    }
    return start + airtime * static_cast<double>(frames);
  }

  sim::EventQueue events_;
  Medium medium_;
  std::vector<std::unique_ptr<TestNode>> nodes_;
};

TEST_F(MacTest, DisabledMacIsASynchronousPassthrough) {
  TestNode& a = add({0, 0}, 100.0, 1);
  TestNode& b = add({50, 0}, 100.0, 2);
  auto mac = make_mac(a, MacConfig{});  // enabled defaults to false
  mac->enqueue(frame_from(1), MacAccessClass::kData);
  settle();
  ASSERT_EQ(b.received.size(), 1u);
  // Nothing is counted, queued, or scheduled: off is free.
  EXPECT_EQ(mac->stats().enqueued, 0u);
  EXPECT_EQ(mac->stats().transmitted, 0u);
  EXPECT_EQ(mac->stats().cbr_samples, 0u);
  EXPECT_EQ(mac->queue_depth(), 0u);
}

TEST_F(MacTest, IdleChannelTransmitsWithoutBackoff) {
  TestNode& a = add({0, 0}, 100.0, 1);
  TestNode& b = add({50, 0}, 100.0, 2);
  MacConfig cfg;
  cfg.enabled = true;
  auto mac = make_mac(a, cfg);
  mac->enqueue(frame_from(1), MacAccessClass::kData);
  settle();
  EXPECT_EQ(b.received.size(), 1u);
  EXPECT_EQ(mac->stats().transmitted, 1u);
  EXPECT_EQ(mac->stats().backoff_retries, 0u);
}

TEST_F(MacTest, QueueOverflowTailDropsWithCounter) {
  TestNode& a = add({0, 0}, 100.0, 1);
  TestNode& jammer = add({30, 0}, 100.0, 7);
  MacConfig cfg;
  cfg.enabled = true;
  cfg.queue_limit = 3;
  auto mac = make_mac(a, cfg);
  // Busy channel holds the head in contention while arrivals pile up.
  medium_.transmit(jammer.id, frame_from(7));
  for (int i = 0; i < 5; ++i) mac->enqueue(frame_from(1), MacAccessClass::kData);
  EXPECT_EQ(mac->queue_depth(), 3u);
  EXPECT_EQ(mac->stats().queue_overflow_drops, 2u);
  settle();
  // Once the jammer's airtime ends, the queued 3 frames all get out.
  EXPECT_EQ(mac->stats().transmitted, 3u);
}

TEST_F(MacTest, ContinuousBusyChannelExhaustsRetries) {
  TestNode& a = add({0, 0}, 100.0, 1);
  TestNode& jammer = add({30, 0}, 100.0, 7);
  TestNode& rx = add({50, 0}, 100.0, 2);
  MacConfig cfg;
  cfg.enabled = true;
  cfg.max_retries = 3;
  auto mac = make_mac(a, cfg);
  // Back-to-back jammer transmissions for ~200 ms: every re-sense lands on
  // a busy channel, so the head burns its whole contention budget.
  const sim::Duration airtime = frame_airtime(jammer, a);
  ASSERT_GT(airtime, 0_us);
  jam(jammer, airtime, 200_ms);
  mac->enqueue(frame_from(1), MacAccessClass::kData);
  settle();
  EXPECT_EQ(mac->stats().retry_exhausted_drops, 1u);
  EXPECT_EQ(mac->stats().transmitted, 0u);
  EXPECT_GE(mac->stats().backoff_retries, 3u);
  // The frame died in contention, not on the air: rx never saw it.
  EXPECT_TRUE(received_from(rx, 1).empty());
}

TEST_F(MacTest, DccGatesBeaconsWhileClosedAndPacesData) {
  TestNode& a = add({0, 0}, 100.0, 1);
  TestNode& b = add({50, 0}, 100.0, 2);
  MacConfig cfg;
  cfg.enabled = true;
  DccConfig dcc;
  dcc.enabled = true;
  auto mac = make_mac(a, cfg, dcc);
  // First transmission closes the gate for Toff(Relaxed) = 60 ms.
  mac->enqueue(frame_from(1), MacAccessClass::kData);
  events_.run_until(events_.now() + 1_ms);
  ASSERT_EQ(mac->stats().transmitted, 1u);
  EXPECT_GT(mac->gate_open_at(), events_.now());

  // A beacon inside the gate is shed at admission; data queues and waits.
  mac->enqueue(frame_from(1), MacAccessClass::kBeacon);
  EXPECT_EQ(mac->stats().dcc_gated_drops, 1u);
  mac->enqueue(frame_from(1), MacAccessClass::kData);
  EXPECT_EQ(mac->queue_depth(), 1u);
  events_.run_until(events_.now() + 10_ms);
  EXPECT_EQ(mac->stats().transmitted, 1u);  // still gated

  settle();  // well past Toff: the paced data frame goes out
  EXPECT_EQ(mac->stats().transmitted, 2u);
  EXPECT_EQ(b.received.size(), 2u);

  // A beacon offered once the gate reopened passes.
  mac->enqueue(frame_from(1), MacAccessClass::kBeacon);
  settle();
  EXPECT_EQ(mac->stats().dcc_gated_drops, 1u);
  EXPECT_EQ(mac->stats().transmitted, 3u);
}

TEST_F(MacTest, BusyTimeAccumulatesTheExactIntervalUnion) {
  TestNode& a = add({0, 0}, 100.0, 1);
  TestNode& b = add({50, 0}, 100.0, 2);
  TestNode& c = add({25, 0}, 100.0, 3);  // hears both a and b

  const sim::Duration airtime = frame_airtime(a, c);
  ASSERT_GT(airtime, 0_us);
  const sim::Duration base = medium_.busy_time(c.id);

  // Two overlapping transmissions, the second starting at half the first's
  // airtime: the union is 1.5 airtimes, not 2.
  const sim::TimePoint start = events_.now();
  medium_.transmit(a.id, frame_from(1));
  events_.schedule_at(start + airtime * 0.5,
                      [this, &b] { medium_.transmit(b.id, frame_from(2)); });
  events_.run_until(start + 1_s);
  EXPECT_EQ(medium_.busy_time(c.id) - base, airtime * 1.5);

  // Two disjoint transmissions accumulate both airtimes in full.
  const sim::Duration mid = medium_.busy_time(c.id);
  medium_.transmit(a.id, frame_from(1));
  events_.run_until(events_.now() + 1_s);
  medium_.transmit(b.id, frame_from(2));
  events_.run_until(events_.now() + 1_s);
  EXPECT_EQ(medium_.busy_time(c.id) - mid, airtime * 2.0);
}

TEST_F(MacTest, CbrSamplingTracksChannelLoad) {
  TestNode& a = add({0, 0}, 100.0, 1);
  TestNode& jammer = add({30, 0}, 100.0, 7);
  MacConfig cfg;
  cfg.enabled = true;
  auto mac = make_mac(a, cfg);  // DCC off: sampling still runs (observation)
  const sim::Duration airtime = frame_airtime(jammer, a);
  // Half-duty jamming for one second: every other airtime slot busy.
  const int frames = static_cast<int>((1_s / airtime) / 2);
  for (int i = 0; i < frames; ++i) {
    events_.schedule_at(events_.now() + airtime * static_cast<double>(2 * i),
                        [this, &jammer] { medium_.transmit(jammer.id, frame_from(7)); });
  }
  events_.run_until(events_.now() + 1_s);
  EXPECT_GT(mac->stats().cbr_samples, 0u);
  EXPECT_NEAR(mac->dcc().peak_cbr(), 0.5, 0.15);
  EXPECT_FALSE(mac->dcc().enabled());  // observation only, no pacing
}

TEST_F(MacTest, InjectedDelayAppliesAfterMacQueueing) {
  // The fault-ordering contract from mac.hpp: FaultInjector decisions are
  // drawn inside Medium::transmit at *dequeue* time. A frame stuck behind a
  // busy channel must therefore arrive no earlier than the channel clears —
  // the injected delay stacks on top of the queueing delay instead of
  // running concurrently with it.
  TestNode& a = add({0, 0}, 100.0, 1);
  TestNode& jammer = add({30, 0}, 100.0, 7);
  TestNode& rx = add({50, 0}, 100.0, 2);

  FaultConfig fc;
  fc.max_extra_delay_s = 0.005;  // uniform [0, 5 ms) per frame, always drawn
  medium_.set_fault_injector(std::make_unique<FaultInjector>(fc, sim::Rng{7}));

  MacConfig cfg;
  cfg.enabled = true;
  cfg.max_retries = 1000;  // survive the whole jam in contention
  auto mac = make_mac(a, cfg);

  // Jam continuously for 100 ms, then enqueue: the MAC cannot dequeue
  // before the jam ends.
  const sim::Duration airtime = frame_airtime(jammer, a);
  const sim::TimePoint jam_end = jam(jammer, airtime, 100_ms);
  mac->enqueue(frame_from(1), MacAccessClass::kData);
  settle();

  ASSERT_EQ(mac->stats().transmitted, 1u);
  const auto from_a = received_from(rx, 1);
  ASSERT_EQ(from_a.size(), 1u);
  // Delivery strictly after the jam: had the injector's delay been drawn at
  // enqueue time (t=0), the 5 ms bound would have landed the frame inside
  // the jam window instead.
  EXPECT_GT(from_a.back().second, jam_end);
}

TEST(MacConfigEnv, AirtimeOverheadDefaultsTo80211Envelope) {
  // 24 B MAC header + 2 B QoS + 8 B LLC/SNAP + 4 B FCS.
  EXPECT_EQ(MacConfig{}.airtime_overhead_bytes, 38u);
}

}  // namespace
}  // namespace vgr::phy
