#!/usr/bin/env python3
"""Repository benchmark: one highway workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (and the simulator sources it compiles) in Release under
.bench_build/perfbench, runs the workload for S seconds, checks every
simulated output exactly against perfbench/expected.json, and prints the
metrics. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(spans around the scenario calls plus the replay in replay.cpp). The exit
code is non-zero when any output differs from the expected values.

Other modes:
    --record            regenerate this workload's expected outputs
    --held-out          use simulation seeds outside the expected table
                        (outputs then get invariant checks only)
    --expected PATH     compare against another expected-outputs file
See perfbench/README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "vgr_perfbench")
EXPECTED = os.path.join(HERE, "expected.json")
RUN_TIMEOUT_S = 170

# Simulation seeds recorded in expected.json per workload. A run walks the
# table from a --seed dependent offset, so every unit has exact outputs to
# match.
TABLE_SIZE = {"flood_dense": 32, "gf_intercept": 64, "mac_congestion": 32, "fig9_sweep": 16}

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "sim_s_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {  # name -> unit
    "scenario.construct_us": "us",
    "scenario.run_ms_p50": "ms",
    "scenario.run_ms_p90": "ms",
    "scenario.run_ms_tail_pct": "%",
    "scenario.run_samples": "count",
    "scenario.ab_call_s": "s",
    "scenario.cpu_util": "ratio",
    "scenario.arms_distinct_ratio": "ratio",
    "phy.frames": "count",
    "phy.deliveries": "count",
    "phy.rx_per_frame": "count",
    "phy.index_rebuilds": "count",
    "phy.transmit_ns_per_frame": "ns",
    "phy.delivery_ns_per_rx": "ns",
    "phy.index_rebuild_us": "us",
    "phy.mac_enqueue_ns": "ns",
    "sim.events": "count",
    "sim.peak_pending": "count",
    "sim.schedule_fire_ns": "ns",
    "gn.ingest_beacon_ns": "ns",
    "gn.ingest_gbc_ns": "ns",
    "gn.loct_update_ns": "ns",
    "gn.loct_rows": "count",
    "gn.gf_select_ns": "ns",
    "gn.gf_select_plaus_ns": "ns",
    "security.sign_us": "us",
    "security.verify_cold_ns": "ns",
    "security.verify_warm_ns": "ns",
    "security.memo_hit_ratio": "ratio",
    "net.encode_ns": "ns",
    "traffic.tick_us": "us",
    "traffic.vehicles": "count",
    "attack.replays": "count",
    "replay.frames_ratio": "ratio",
    "replay.deliveries_ratio": "ratio",
    "replay.valid": "bool",
    "trace.overhead_s": "s",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds vgr_perfbench; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: simulator sources (src/) not found next to perfbench/")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def sim_seeds(workload, seed, held_out):
    """The unit seeds a run walks: the whole expected table, rotated by
    --seed (or, with --held-out, seeds past the table)."""
    size = TABLE_SIZE[workload]
    start = (seed * 7) % size
    if held_out:
        return [size + 1 + ((start + i) % size) for i in range(size)]
    return [1 + ((start + i) % size) for i in range(size)]


def run_binary(args, seeds, once=False):
    env = {k: v for k, v in os.environ.items() if not k.startswith("VGR_")}
    cmd = [BINARY, "--workload", args.workload, "--sim-seeds", ",".join(map(str, seeds)),
           "--seconds", str(args.seconds), "--trace", "1" if args.trace else "0"]
    if once:
        cmd.append("--once")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=env, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        raise RuntimeError("vgr_perfbench exited with %d" % proc.returncode)
    return json.loads(proc.stdout)


def tail_percentile(values):
    """The 90th percentile when at least ten samples lie beyond it, else the
    highest percentile that has ten beyond it, else the median. Returns
    (value, percentile, samples); nearest-rank on the sorted samples."""
    xs = sorted(values)
    n = len(xs)
    median_idx = (n - 1) // 2
    p90_idx = math.ceil(0.9 * n) - 1
    if p90_idx <= n - 11:
        return xs[p90_idx], 90.0, n
    idx = n - 11  # exactly ten samples beyond
    if idx <= median_idx:
        return statistics.median(xs), 50.0, n
    return xs[idx], 100.0 * (idx + 1) / n, n


def invariant_errors(outputs):
    """Checks that hold for any seed: no watchdog trips, rates in [0, 1]."""
    errors = []
    for key, value in outputs.items():
        if key.endswith(".timed_out") or key.endswith(".timed_out_runs"):
            if value != 0:
                errors.append("%s = %s" % (key, value))
        elif "reception" in key and not 0.0 <= value <= 1.0:
            errors.append("%s = %s out of [0, 1]" % (key, value))
    return errors


def check_units(units, table, held_out):
    """Counts units whose outputs are wrong. Returns (failed, messages)."""
    failed = 0
    messages = []
    for u in units:
        errors = invariant_errors(u["outputs"])
        if not held_out:
            want = table.get(str(u["seed"]))
            if want is None:
                errors.append("no expected outputs for seed %d" % u["seed"])
            else:
                for key in sorted(set(want) | set(u["outputs"])):
                    if want.get(key) != u["outputs"].get(key):
                        errors.append("%s: got %r, expected %r"
                                      % (key, u["outputs"].get(key), want.get(key)))
        if errors:
            failed += 1
            messages.append("seed %d: %s" % (u["seed"], "; ".join(errors[:5])))
    return failed, messages


def end_to_end_metrics(raw):
    units = timed_units(raw)
    return {
        "wall_s": statistics.median(u["wall_s"] for u in units),
        "sim_s_per_s": statistics.median(u["sim_s"] / u["wall_s"] for u in units),
        "cpu_s": statistics.median(u["cpu_s"] for u in units),
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": statistics.median(raw["setup_s"]),
    }


def timed_units(raw):
    """Every unit but the first, which warms caches (kept if it is alone)."""
    return raw["units"][1:] or raw["units"]


def per_layer_metrics(raw):
    units = timed_units(raw)
    traced = [u for u in units if u["traced"]]
    untraced = [u for u in units if not u["traced"]]
    construct = [s for u in traced for s in u["construct_s"]]
    runs = [s for u in traced for s in u["run_s"]]
    p90, pct, n = tail_percentile(runs)
    if raw["workload"] == "fig9_sweep":
        ab_call = statistics.median(runs)  # one run_intra_area_ab call per row
    else:
        ab_call = statistics.median(u["wall_s"] for u in units)  # one serial A/B set
    m = {
        "scenario.construct_us": statistics.median(construct) * 1e6,
        "scenario.run_ms_p50": statistics.median(runs) * 1e3,
        "scenario.run_ms_p90": p90 * 1e3,
        "scenario.run_ms_tail_pct": pct,
        "scenario.run_samples": n,
        "scenario.ab_call_s": ab_call,
        "scenario.cpu_util": statistics.median(
            u["cpu_s"] / (u["wall_s"] * raw["threads"]) for u in units),
        "scenario.arms_distinct_ratio": raw["arms_distinct"] / raw["arms"],
        "trace.overhead_s": (statistics.median(u["wall_s"] for u in traced)
                             - statistics.median(u["wall_s"] for u in untraced))
        if traced and untraced else 0.0,
    }
    for name in PER_LAYER:
        if name not in m:
            m[name] = raw["layers"][name]
    return m


def git_describe():
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unavailable"


def load_expected(path):
    with open(path) as f:
        return json.load(f)


def record(args):
    """Runs every table seed once and stores its outputs."""
    size = TABLE_SIZE[args.workload]
    raw = run_binary(args, list(range(1, size + 1)), once=True)
    try:
        data = load_expected(args.expected)
    except FileNotFoundError:
        data = {}
    data[args.workload] = {str(u["seed"]): u["outputs"] for u in raw["units"]}
    with open(args.expected, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")
    log("recorded %d seeds of %s into %s" % (size, args.workload, args.expected))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(TABLE_SIZE))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--expected", default=EXPECTED)
    p.add_argument("--record", action="store_true")
    p.add_argument("--held-out", action="store_true")
    args = p.parse_args(argv)

    if not build():
        return 1
    if args.record:
        return record(args)
    table = {} if args.held_out else load_expected(args.expected).get(args.workload, {})
    raw = run_binary(args, sim_seeds(args.workload, args.seed, args.held_out))

    failed, messages = check_units(raw["units"], table, args.held_out)
    for msg in messages:
        log("OUTPUT MISMATCH " + msg)
    attempted = len(raw["units"])

    if raw["build_type"] != "Release":
        log("WARNING: build type is %r, not Release; timings are not comparable"
            % raw["build_type"])
    print("host: nproc=%d compiler=%s build=%s git=%s workload=%s threads=%d seed=%d"
          % (raw["nproc"], raw["compiler"], raw["build_type"], git_describe(), raw["workload"],
             raw["threads"], args.seed))
    print("units: %d attempted, %d failed, failed_ratio=%.4f%s"
          % (attempted, failed, failed / attempted, " (held-out seeds: invariants only)"
             if args.held_out else ""))
    if args.trace:
        values = per_layer_metrics(raw)
        units = PER_LAYER
        layers = raw["layers"]
        print("replay: frames %d of real %d, deliveries %d of real %d, skipped %d, "
              "verify failures %d" % (layers["replay.frames"], layers["phy.frames"],
                                      layers["replay.deliveries"], layers["phy.deliveries"],
                                      layers["replay.skipped"], layers["replay.verify_failures"]))
        if values["replay.valid"] != 1.0:
            log("WARNING: replay counts are off by more than a tenth; per-layer numbers invalid")
    else:
        values = end_to_end_metrics(raw)
        units = END_TO_END
    for name, unit in units.items():
        print("%-28s %16.6g %s" % (name, values[name], unit))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
