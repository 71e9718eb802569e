#!/usr/bin/env python3
"""Compare a fresh bench_micro JSON against the committed baseline.

Usage: perf_diff.py BASELINE.json FRESH.json [--max-regression 0.25]

Only the gated hot-path kernels are thresholded — they are the paths the
perf PRs pinned and they are stable enough on shared runners to gate on
(single-digit-nanosecond last-verdict answers and flat-table probes, not
multi-microsecond scenario slices). Every other benchmark is reported for
the trajectory but never fails the job. Exit code 1 on any gated kernel
regressing by more than --max-regression (fractional, default 0.25).
"""

import argparse
import json
import sys

# Hot-path kernels under the regression gate. Substring-free exact names;
# parameterised benchmarks gate each Arg row listed here.
GATED = [
    "BM_VerifyMessageWarm",
    "BM_EventQueueScheduleFire",
    "BM_GfSelect/256",
    "BM_GfSelect/1024",
    "BM_LocationTableUpdate/64",
    "BM_LocationTableUpdate/512",
]


def load(path):
    with open(path) as f:
        doc = json.load(f)
    return {b["name"]: b["ns_per_op"] for b in doc["benchmarks"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--max-regression", type=float, default=0.25)
    args = ap.parse_args()

    base = load(args.baseline)
    fresh = load(args.fresh)

    failures = []
    print(f"{'benchmark':<40} {'baseline':>12} {'fresh':>12} {'delta':>8}  gate")
    for name in sorted(set(base) | set(fresh)):
        if name not in base:
            print(f"{name:<40} {'-':>12} {fresh[name]:>12.2f} {'new':>8}  -")
            continue
        if name not in fresh:
            # A gated kernel silently disappearing is itself a failure: the
            # gate would otherwise go dark without anyone noticing.
            if name in GATED:
                failures.append(f"{name}: present in baseline but missing from fresh run")
            print(f"{name:<40} {base[name]:>12.2f} {'-':>12} {'gone':>8}  {'FAIL' if name in GATED else '-'}")
            continue
        delta = (fresh[name] - base[name]) / base[name] if base[name] > 0 else 0.0
        gated = name in GATED
        verdict = "-"
        if gated:
            verdict = "ok"
            if delta > args.max_regression:
                verdict = "FAIL"
                failures.append(
                    f"{name}: {base[name]:.2f} -> {fresh[name]:.2f} ns/op "
                    f"(+{delta * 100.0:.1f}% > {args.max_regression * 100.0:.0f}%)"
                )
        print(f"{name:<40} {base[name]:>12.2f} {fresh[name]:>12.2f} {delta * 100.0:>+7.1f}%  {verdict}")

    if failures:
        print("\nperf_diff: hot-path regression(s) over threshold:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nperf_diff: all gated kernels within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
