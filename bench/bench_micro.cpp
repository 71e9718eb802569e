// Micro-benchmarks (google-benchmark) for the hot paths of the stack:
// codec, signing/verification, location table, GF selection, CBF math,
// duplicate detection, event queue and medium delivery. These bound the
// simulator's throughput and document the cost of the security envelope.
//
// Besides the console table, the binary writes BENCH_micro.json (override
// the path with VGR_BENCH_JSON) with ns/op per kernel so the perf
// trajectory is tracked across PRs — compare the committed file against a
// fresh run before and after a change.

#include <benchmark/benchmark.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "vgr/gn/cbf.hpp"
#include "vgr/gn/greedy_forwarder.hpp"
#include "vgr/gn/location_table.hpp"
#include "vgr/gn/scf_buffer.hpp"
#include "vgr/net/codec.hpp"
#include "vgr/net/duplicate_detector.hpp"
#include "vgr/phy/dcc.hpp"
#include "vgr/phy/mac.hpp"
#include "vgr/phy/medium.hpp"
#include "vgr/security/authority.hpp"
#include "vgr/sim/event_queue.hpp"
#include "vgr/sim/random.hpp"

namespace {

using namespace vgr;

net::Packet sample_gbc() {
  net::Packet p;
  p.common.type = net::CommonHeader::HeaderType::kGeoBroadcast;
  net::LongPositionVector pv;
  pv.address = net::GnAddress{net::GnAddress::StationType::kPassengerCar, net::MacAddress{42}};
  pv.position = {1234.0, 2.5};
  pv.speed_mps = 30.0;
  p.extended = net::GbcHeader{7, pv, geo::GeoArea::circle({4020.0, 2.5}, 30.0)};
  p.payload.assign(64, 0xAB);
  return p;
}

void BM_CodecEncode(benchmark::State& state) {
  const net::Packet p = sample_gbc();
  for (auto _ : state) benchmark::DoNotOptimize(net::Codec::encode(p));
}
BENCHMARK(BM_CodecEncode);

void BM_CodecDecode(benchmark::State& state) {
  const net::Bytes wire = net::Codec::encode(sample_gbc());
  for (auto _ : state) benchmark::DoNotOptimize(net::Codec::decode(wire));
}
BENCHMARK(BM_CodecDecode);

void BM_SignMessage(benchmark::State& state) {
  security::CertificateAuthority ca;
  const security::Signer signer{ca.enroll(
      net::GnAddress{net::GnAddress::StationType::kPassengerCar, net::MacAddress{1}})};
  const net::Packet p = sample_gbc();
  for (auto _ : state) benchmark::DoNotOptimize(security::SecuredMessage::sign(p, signer));
}
BENCHMARK(BM_SignMessage);

// Cold verification: every call is computed in full — the pool of distinct
// pre-signed messages is cycled sequentially, so no call repeats the
// previous one and the trust store's last verdict never answers. This is
// the price the first receiver of a transmission pays.
void BM_VerifyMessageCold(benchmark::State& state) {
  security::CertificateAuthority ca;
  const security::Signer signer{ca.enroll(
      net::GnAddress{net::GnAddress::StationType::kPassengerCar, net::MacAddress{1}})};
  std::vector<security::SecuredMessage> pool;
  const std::size_t pool_size = 10000;  // as in the rows BENCH_micro.json holds
  pool.reserve(pool_size);
  net::Packet p = sample_gbc();
  for (std::size_t i = 0; i < pool_size; ++i) {
    p.gbc()->sequence_number = static_cast<net::SequenceNumber>(i);
    pool.push_back(security::SecuredMessage::sign(p, signer));
  }
  const auto trust = ca.trust_store();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool[i].verify(*trust));
    if (++i == pool_size) i = 0;
  }
}
BENCHMARK(BM_VerifyMessageCold);

// Warm verification: the same envelope re-verified, as every co-receiver of
// one frame does right after the first. Answered from the trust store's
// last verdict; this is most of the per-receiver security cost in a dense
// flood.
void BM_VerifyMessageWarm(benchmark::State& state) {
  security::CertificateAuthority ca;
  const security::Signer signer{ca.enroll(
      net::GnAddress{net::GnAddress::StationType::kPassengerCar, net::MacAddress{1}})};
  const auto msg = security::SecuredMessage::sign(sample_gbc(), signer);
  const auto trust = ca.trust_store();
  benchmark::DoNotOptimize(msg.verify(*trust));  // set the last verdict
  for (auto _ : state) benchmark::DoNotOptimize(msg.verify(*trust));
}
BENCHMARK(BM_VerifyMessageWarm);

// Arithmetic wire size (airtime path) vs. the encode it replaced — the
// encode cost is visible as BM_CodecEncode above.
void BM_WireSize(benchmark::State& state) {
  const net::Packet p = sample_gbc();
  for (auto _ : state) benchmark::DoNotOptimize(net::Codec::wire_size(p));
}
BENCHMARK(BM_WireSize);

// Signed-portion encoding, cold: what sign() and the raw-ingest reassembly
// pay once per message.
void BM_SignedPortionCold(benchmark::State& state) {
  const net::Packet p = sample_gbc();
  for (auto _ : state) benchmark::DoNotOptimize(net::Codec::encode_signed_portion(p));
}
BENCHMARK(BM_SignedPortionCold);

// Signed-portion access, warm: what every later consumer pays — forwarding
// copies, re-verification, the corruption path's wire rebuild.
void BM_SignedPortionWarm(benchmark::State& state) {
  security::CertificateAuthority ca;
  const security::Signer signer{ca.enroll(
      net::GnAddress{net::GnAddress::StationType::kPassengerCar, net::MacAddress{1}})};
  const auto msg = security::SecuredMessage::sign(sample_gbc(), signer);
  for (auto _ : state) benchmark::DoNotOptimize(msg.signed_portion());
}
BENCHMARK(BM_SignedPortionWarm);

void BM_LocationTableUpdate(benchmark::State& state) {
  gn::LocationTable table{sim::Duration::seconds(20.0)};
  const auto now = sim::TimePoint::at(sim::Duration::seconds(1.0));
  net::LongPositionVector pv;
  std::uint64_t i = 0;
  for (auto _ : state) {
    pv.address = net::GnAddress::from_bits(i++ % state.range(0));
    pv.timestamp = now;
    table.update(pv, now, true);
  }
}
BENCHMARK(BM_LocationTableUpdate)->Arg(64)->Arg(512);

/// The same update as a run makes it: one frame's source written into the
/// tables of 240 consecutive receivers, each a different table among 1,024
/// of ~230 rows (flood_dense's 7.5 m spacing). `hinted:1` runs the table
/// half of the router's receive hint where the medium runs it: the probe
/// slot two tables ahead, the row one ahead. `rest` is a serial multiply chain between two updates,
/// standing in for the rest of a delivery: without it the out-of-order core
/// overlaps one update's cache misses with the next one's, which it cannot
/// do in a run. One iteration is one update.
void BM_LocationTableFanOut(benchmark::State& state) {
  constexpr std::size_t kTables = 1024;
  constexpr std::size_t kRows = 230;
  constexpr std::size_t kFanOut = 240;
  const bool hinted = state.range(0) != 0;
  const std::int64_t rest_steps = state.range(1);
  const auto now = sim::TimePoint::at(sim::Duration::seconds(1.0));
  const auto address = [](std::size_t node) {
    return net::GnAddress{net::GnAddress::StationType::kPassengerCar,
                          net::MacAddress{node % kTables + 1}};
  };
  // Table t holds its road neighbours t - 115 .. t + 114.
  std::vector<gn::LocationTable> tables(kTables, gn::LocationTable{sim::Duration::seconds(20.0)});
  net::LongPositionVector pv;
  pv.timestamp = now;
  for (std::size_t t = 0; t < kTables; ++t) {
    tables[t].reserve(128);  // as a router does
    for (std::size_t r = 0; r < kRows; ++r) {
      pv.address = address(t + kTables - kRows / 2 + r);
      tables[t].update(pv, now, true);
    }
  }
  // A frame from `source` reaches receivers source - 120 .. source + 119.
  std::size_t source = 0;
  std::size_t i = 0;
  pv.address = address(source);
  const auto receiver = [&](std::size_t k) -> gn::LocationTable& {
    return tables[(source + kTables - kFanOut / 2 + k) % kTables];
  };
  std::uint64_t rest = 1;
  for (auto _ : state) {
    if (hinted) {
      if (i + 2 < kFanOut) receiver(i + 2).prefetch_slot(pv.address);
      if (i + 1 < kFanOut) receiver(i + 1).prefetch_row(pv.address);
    }
    benchmark::DoNotOptimize(receiver(i).update(pv, now, true));
    for (std::int64_t k = 0; k < rest_steps; ++k) rest = rest * 0x9E3779B97F4A7C15ULL + 1;
    benchmark::DoNotOptimize(rest);
    if (++i == kFanOut) {  // the next frame, from elsewhere on the road
      i = 0;
      source = (source + 389) % kTables;
      pv.address = address(source);
    }
  }
}
BENCHMARK(BM_LocationTableFanOut)
    ->ArgNames({"hinted", "rest"})
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 100})
    ->Args({1, 100});

void BM_GfSelect(benchmark::State& state) {
  gn::LocationTable table{sim::Duration::seconds(20.0)};
  const auto now = sim::TimePoint::at(sim::Duration::seconds(1.0));
  sim::Rng rng{1};
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    net::LongPositionVector pv;
    pv.address = net::GnAddress::from_bits(static_cast<std::uint64_t>(i) + 1);
    pv.timestamp = now;
    pv.position = {rng.uniform(0.0, 4000.0), rng.uniform(-7.5, 7.5)};
    table.update(pv, now, true);
  }
  const net::GnAddress self = net::GnAddress::from_bits(0xFFFF);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gn::select_next_hop(table, self, {2000.0, 2.5}, {4020.0, 2.5}, now, {}));
  }
}
BENCHMARK(BM_GfSelect)->Arg(32)->Arg(256)->Arg(1024);

void BM_GfSelectWithPlausibility(benchmark::State& state) {
  gn::LocationTable table{sim::Duration::seconds(20.0)};
  const auto now = sim::TimePoint::at(sim::Duration::seconds(1.0));
  sim::Rng rng{1};
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    net::LongPositionVector pv;
    pv.address = net::GnAddress::from_bits(static_cast<std::uint64_t>(i) + 1);
    pv.timestamp = now;
    pv.position = {rng.uniform(0.0, 4000.0), rng.uniform(-7.5, 7.5)};
    pv.speed_mps = 30.0;
    table.update(pv, now, true);
  }
  gn::GfPolicy policy;
  policy.plausibility_check = true;
  const net::GnAddress self = net::GnAddress::from_bits(0xFFFF);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gn::select_next_hop(table, self, {2000.0, 2.5}, {4020.0, 2.5}, now, policy));
  }
}
BENCHMARK(BM_GfSelectWithPlausibility)->Arg(256);

void BM_CbfTimeout(benchmark::State& state) {
  double d = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gn::cbf_timeout(d, sim::Duration::millis(1),
                                             sim::Duration::millis(100), 486.0));
    d += 1.0;
    if (d > 600.0) d = 0.0;
  }
}
BENCHMARK(BM_CbfTimeout);

void BM_DuplicateDetector(benchmark::State& state) {
  net::DuplicateDetector det;
  net::Packet p = sample_gbc();
  net::SequenceNumber sn = 0;
  for (auto _ : state) {
    p.gbc()->sequence_number = sn++;
    benchmark::DoNotOptimize(det.check_and_record(p));
  }
}
BENCHMARK(BM_DuplicateDetector);

void BM_EventQueueScheduleFire(benchmark::State& state) {
  sim::EventQueue q;
  for (auto _ : state) {
    q.schedule_in(sim::Duration::micros(1), [] {});
    q.step();
  }
}
BENCHMARK(BM_EventQueueScheduleFire);

// Cohort retirement: schedule range(0) timers into one cohort, retire them
// all with a single cancel_cohort (the CBF contention-cancel pattern — a
// dense flood used to cancel ~100k contention timers one EventId at a
// time), then drain the queue so the lazily-skipped heap records are
// also paid for here and not carried into the next iteration. items/s
// counts cancelled timers.
void BM_EventQueueCancelCohort(benchmark::State& state) {
  sim::EventQueue q;
  const sim::CohortId cohort = q.make_cohort();
  const std::int64_t n = state.range(0);
  std::int64_t cancelled = 0;
  for (auto _ : state) {
    for (std::int64_t i = 0; i < n; ++i) {
      q.schedule_in(sim::Duration::micros(1 + static_cast<std::uint64_t>(i)), cohort, [] {});
    }
    cancelled += static_cast<std::int64_t>(q.cancel_cohort(cohort));
    q.run_until(q.now() + sim::Duration::millis(1));
  }
  state.SetItemsProcessed(cancelled);
}
BENCHMARK(BM_EventQueueCancelCohort)->Arg(16)->Arg(256);

// Shared-envelope SCF enqueue: one signed message buffered by refcount —
// the path that used to deep-copy the SecuredMessage (and drop its wire
// and signed-portion caches) on every buffering hop. The buffer runs at a
// steady-state bound so head-drop eviction is part of the measured cost.
void BM_ScfEnqueueShared(benchmark::State& state) {
  security::CertificateAuthority ca;
  const security::Signer signer{ca.enroll(
      net::GnAddress{net::GnAddress::StationType::kPassengerCar, net::MacAddress{1}})};
  const security::SecuredMessagePtr msg = security::share(
      security::SecuredMessage::sign(sample_gbc(), signer));
  gn::ScfBuffer buffer{gn::ScfConfig{/*max_packets=*/256, /*max_bytes=*/0}};
  const auto expiry = sim::TimePoint::at(sim::Duration::seconds(60.0));
  for (auto _ : state) {
    buffer.push(msg, {4020.0, 2.5}, expiry);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ScfEnqueueShared);

// One Medium::transmit plus delivery of every scheduled reception, on a
// road populated at the paper's density (one node per 15 m, DSRC NLoS range
// 486 m) so the in-range neighbourhood k stays constant as N grows. With
// the spatial index the per-frame cost is O(k); the `Scan` variant disables
// the index to expose the O(N) reference path the seed harness used.
//
// Placement is deterministic fixed-spacing, NOT uniform-random: a random
// draw clusters nodes unevenly, so the sender's actual in-range count k
// fluctuates with N and the /800 row used to come out *cheaper* per op
// than /200 (the old BENCH_micro.json inversion). With one node exactly
// every 15 m, k is pinned to min(n-1, 2*floor(486/15)) = 64 for n >= 66
// and the per-frame cost curve is monotone in N on the scan path and flat
// on the indexed path, as the model predicts.
void medium_broadcast(benchmark::State& state, bool spatial_index) {
  sim::EventQueue events;
  phy::Medium medium{events, phy::AccessTechnology::kDsrc};
  medium.set_spatial_index(spatial_index);
  // Positions are static here, as they are between two traffic ticks of a
  // scenario run; kExplicit amortises the index rebuild the same way the
  // scenarios do (one rebuild per movement batch, not per frame).
  medium.set_index_mode(phy::IndexMode::kExplicit);
  const std::int64_t n = state.range(0);
  const std::int64_t sender_idx = n / 2;  // mid-road: full k on both sides
  phy::RadioId sender{};
  for (std::int64_t i = 0; i < n; ++i) {
    phy::Medium::NodeConfig cfg;
    cfg.mac = net::MacAddress{static_cast<std::uint64_t>(i) + 1};
    const geo::Position pos{static_cast<double>(i) * 15.0, 2.5};
    cfg.position = [pos] { return pos; };
    cfg.tx_range_m = 486.0;
    const auto id = medium.add_node(std::move(cfg), [](const phy::Frame&, phy::RadioId) {});
    if (i == sender_idx) sender = id;
  }
  phy::Frame frame;
  frame.src = net::MacAddress{1};
  security::SecuredMessage msg;
  msg.set_packet(sample_gbc());
  frame.msg = security::share(std::move(msg));
  for (auto _ : state) {
    medium.transmit(sender, frame);
    events.run_until(events.now() + sim::Duration::seconds(1.0));
  }
  // items/s == frames/s through Medium::transmit.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_MediumBroadcast(benchmark::State& state) { medium_broadcast(state, true); }
BENCHMARK(BM_MediumBroadcast)->Arg(50)->Arg(200)->Arg(800);

void BM_MediumBroadcastScan(benchmark::State& state) { medium_broadcast(state, false); }
BENCHMARK(BM_MediumBroadcastScan)->Arg(50)->Arg(200)->Arg(800);

// Per-receiver delivery cost: one broadcast into a dense cluster where
// every node is in range, items/s counted per *delivery* rather than per
// frame. This is the path the shared-frame refactor targets — one
// transmission used to deep-copy the secured message once per receiver.
void BM_MediumPerReceiverDelivery(benchmark::State& state) {
  sim::EventQueue events;
  phy::Medium medium{events, phy::AccessTechnology::kDsrc};
  medium.set_index_mode(phy::IndexMode::kExplicit);
  const std::int64_t n = state.range(0);
  sim::Rng rng{5};
  phy::RadioId sender{};
  for (std::int64_t i = 0; i < n; ++i) {
    phy::Medium::NodeConfig cfg;
    cfg.mac = net::MacAddress{static_cast<std::uint64_t>(i) + 1};
    const geo::Position pos{rng.uniform(0.0, 400.0), 2.5};  // all in range
    cfg.position = [pos] { return pos; };
    cfg.tx_range_m = 486.0;
    const auto id = medium.add_node(std::move(cfg), [](const phy::Frame&, phy::RadioId) {});
    if (i == 0) sender = id;
  }
  phy::Frame frame;
  frame.src = net::MacAddress{1};
  security::SecuredMessage msg;
  msg.set_packet(sample_gbc());
  frame.msg = security::share(std::move(msg));
  const std::uint64_t delivered_before = medium.frames_delivered();
  for (auto _ : state) {
    medium.transmit(sender, frame);
    events.run_until(events.now() + sim::Duration::seconds(1.0));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(medium.frames_delivered() - delivered_before));
}
BENCHMARK(BM_MediumPerReceiverDelivery)->Arg(64)->Arg(256);

void BM_SpatialGridRebuild(benchmark::State& state) {
  sim::Rng rng{7};
  std::vector<phy::SpatialGrid::Entry> entries;
  const double road_length = static_cast<double>(state.range(0)) * 15.0;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    entries.push_back({static_cast<std::uint32_t>(i) + 1,
                       {rng.uniform(0.0, road_length), rng.uniform(-7.5, 7.5)}});
  }
  phy::SpatialGrid grid;
  for (auto _ : state) {
    grid.rebuild(entries, 486.0);
    benchmark::DoNotOptimize(grid.cell_count());
  }
}
BENCHMARK(BM_SpatialGridRebuild)->Arg(200)->Arg(800);

// One full CSMA/CA service cycle under contention: two MAC-fronted nodes
// share the channel with a jammer transmitting every other airtime slot, so
// roughly half the sense events land busy and draw a backoff. Items/s is
// frames *through* the MAC (enqueue -> contention -> on the air), i.e. the
// per-frame overhead the contention layer adds to Medium::transmit.
void BM_MacContention(benchmark::State& state) {
  sim::EventQueue events;
  phy::Medium medium{events, phy::AccessTechnology::kDsrc};
  std::array<phy::RadioId, 3> radios{};
  for (std::size_t i = 0; i < radios.size(); ++i) {
    phy::Medium::NodeConfig cfg;
    cfg.mac = net::MacAddress{i + 1};
    const geo::Position pos{static_cast<double>(i) * 30.0, 2.5};
    cfg.position = [pos] { return pos; };
    cfg.tx_range_m = 486.0;
    radios[i] = medium.add_node(std::move(cfg), [](const phy::Frame&, phy::RadioId) {});
  }
  phy::MacConfig mc;
  mc.enabled = true;
  phy::Mac mac{events, medium, radios[0], events.make_cohort(), mc, phy::DccConfig{},
               sim::Rng{11}};
  phy::Frame frame;
  frame.src = net::MacAddress{1};
  security::SecuredMessage msg;
  msg.set_packet(sample_gbc());
  frame.msg = security::share(std::move(msg));
  // Measured airtime of one frame, to phase the jammer at half duty.
  medium.transmit(radios[2], frame);
  events.run_until(events.now() + sim::Duration::seconds(1.0));
  const sim::Duration airtime = medium.busy_time(radios[0]);
  for (auto _ : state) {
    medium.transmit(radios[2], frame);  // the contention the head senses
    mac.enqueue(frame, phy::MacAccessClass::kData);
    events.run_until(events.now() + airtime * 8.0);
    events.run_until(events.now() + sim::Duration::millis(20));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(mac.stats().transmitted));
}
BENCHMARK(BM_MacContention);

// The reactive DCC ladder's steady-state cost: one CBR sample through the
// sliding-window average and band lookup. This sits on the 100 ms sampling
// path of every MAC-enabled node, so it has to stay trivially cheap.
void BM_CbrWindow(benchmark::State& state) {
  phy::DccConfig cfg;
  cfg.enabled = true;
  cfg.window_samples = static_cast<std::size_t>(state.range(0));
  phy::Dcc dcc{cfg};
  double cbr = 0.0;
  for (auto _ : state) {
    cbr += 0.093;
    if (cbr > 1.0) cbr -= 1.0;  // sweep the whole ladder deterministically
    dcc.on_sample(cbr);
    benchmark::DoNotOptimize(dcc.toff());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CbrWindow)->Arg(10)->Arg(64);

/// Console output plus a flat JSON file: one record per benchmark run with
/// the per-iteration wall time (ns) and the items/s rate when the
/// benchmark reports one. The file is the cross-PR perf trajectory.
class TrajectoryReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      Record rec;
      rec.name = run.benchmark_name();
      rec.real_time_ns = run.GetAdjustedRealTime();
      const auto it = run.counters.find("items_per_second");
      rec.items_per_second = it != run.counters.end() ? static_cast<double>(it->second) : -1.0;
      records_.push_back(std::move(rec));
    }
  }

  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_micro: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"benchmarks\": [\n");
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(f, "    {\"name\": \"%s\", \"ns_per_op\": %.2f", r.name.c_str(),
                   r.real_time_ns);
      if (r.items_per_second >= 0.0) {
        std::fprintf(f, ", \"items_per_second\": %.1f", r.items_per_second);
      }
      std::fprintf(f, "}%s\n", i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return true;
  }

 private:
  struct Record {
    std::string name;
    double real_time_ns{0.0};
    double items_per_second{-1.0};
  };
  std::vector<Record> records_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  TrajectoryReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  const char* out = std::getenv("VGR_BENCH_JSON");
  const std::string path = out != nullptr ? out : "BENCH_micro.json";
  const bool ok = reporter.write_json(path);
  benchmark::Shutdown();
  return ok ? 0 : 1;
}
