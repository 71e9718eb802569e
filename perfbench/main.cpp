// vgr_perfbench — runs one benchmark workload and prints one JSON object.
//
//   vgr_perfbench --workload NAME --sim-seeds 3,4,5 --seconds 10 [--trace 1]
//                 [--threads N] [--once]
//
// Units run over the given simulation seeds (cycling) until `--seconds` of
// wall time have passed (`--once`: each seed exactly once, no time limit).
// run.py turns the raw per-unit numbers into the benchmark's metrics and
// checks every unit's outputs against expected.json.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"

#ifndef VGR_PERFBENCH_BUILD_TYPE
#define VGR_PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef VGR_PERFBENCH_COMPILER
#define VGR_PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::vector<std::uint64_t> seeds;
  double seconds{10.0};
  bool trace{false};
  bool once{false};
  std::size_t threads{0};
};

/// Set-up samples taken before each unit.
constexpr int kSetupSamples = 16;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "vgr_perfbench: %s\nusage: vgr_perfbench --workload NAME --sim-seeds LIST "
               "[--seconds S] [--trace 0|1] [--threads N] [--once]\n",
               why);
  std::exit(2);
}

std::vector<std::uint64_t> parse_seeds(const std::string& list) {
  std::vector<std::uint64_t> out;
  std::size_t pos = 0;
  while (pos < list.size()) {
    const std::size_t comma = list.find(',', pos);
    const std::string tok = list.substr(pos, comma == std::string::npos ? comma : comma - pos);
    char* end = nullptr;
    const unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
    if (tok.empty() || *end != '\0' || v == 0) usage("--sim-seeds wants positive integers");
    out.push_back(v);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--sim-seeds") {
      a.seeds = parse_seeds(value());
    } else if (k == "--seconds") {
      a.seconds = std::atof(value().c_str());
    } else if (k == "--trace") {
      a.trace = value() == "1";
    } else if (k == "--threads") {
      a.threads = static_cast<std::size_t>(std::atoi(value().c_str()));
    } else if (k == "--once") {
      a.once = true;
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (a.workload.empty() || a.seeds.empty()) usage("--workload and --sim-seeds are required");
  return a;
}

std::string json_array(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) s += ',';
    s += fmt_double(v[i]);
  }
  return s + "]";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  std::unique_ptr<Workload> wl = make_workload(args.workload, args.threads);
  if (!wl) usage(("unknown workload " + args.workload).c_str());

  // Timed units. Before each one the set-up it pays (the construction) is
  // sampled a few times, so the set-up median sees the same host as the
  // units. The first unit warms caches and allocator; run.py keeps it out
  // of the timing medians. In traced mode every other unit records its
  // spans, so their cost shows as the traced-minus-untraced unit walls.
  std::vector<double> setup;
  std::vector<UnitResult> units;
  std::vector<bool> traced;
  const auto t0 = Clock::now();
  for (std::size_t i = 0;; ++i) {
    if (args.once ? i >= args.seeds.size() : (i > 1 && seconds_since(t0) >= args.seconds)) break;
    for (int k = 0; k < kSetupSamples; ++k) setup.push_back(wl->setup_sample());
    const bool spans = args.trace && i % 2 == 1;
    units.push_back(wl->run_unit(args.seeds[i % args.seeds.size()], spans));
    traced.push_back(spans);
  }
  const auto [arms, distinct] = wl->arm_census(args.seeds.front());

  LayerMetrics layers;
  if (args.trace) {
    const ArmSpec arm = wl->replay_arm();
    const std::uint64_t seed = wl->replay_arm_seed(args.seeds.front());
    const ArmRun real = run_arm(arm, seed, /*spans=*/false);
    layers = replay_layers(arm, seed, real.counts);
  }

  std::printf("{\"workload\":\"%s\",\"threads\":%zu,\"nproc\":%u,\"build_type\":\"%s\","
              "\"compiler\":\"%s\",\"peak_rss_mb\":%s,\"arms\":%zu,\"arms_distinct\":%zu,"
              "\"setup_s\":%s,\"units\":[",
              wl->name().c_str(), wl->threads(), std::thread::hardware_concurrency(),
              VGR_PERFBENCH_BUILD_TYPE, VGR_PERFBENCH_COMPILER, fmt_double(peak_rss_mb()).c_str(),
              arms, distinct, json_array(setup).c_str());
  for (std::size_t i = 0; i < units.size(); ++i) {
    const UnitResult& u = units[i];
    std::printf("%s{\"seed\":%llu,\"traced\":%d,\"wall_s\":%s,\"cpu_s\":%s,\"sim_s\":%s,"
                "\"construct_s\":%s,\"run_s\":%s,\"outputs\":%s}",
                i ? "," : "", static_cast<unsigned long long>(u.seed), traced[i] ? 1 : 0,
                fmt_double(u.wall_s).c_str(), fmt_double(u.cpu_s).c_str(),
                fmt_double(u.sim_s).c_str(), json_array(u.construct_s).c_str(),
                json_array(u.run_s).c_str(), json_object(u.outputs).c_str());
  }
  Outputs layer_text;
  for (const auto& [k, v] : layers) layer_text[k] = fmt_double(v);
  std::printf("],\"layers\":%s}\n", json_object(layer_text).c_str());
  return 0;
}
