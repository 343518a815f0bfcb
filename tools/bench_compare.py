#!/usr/bin/env python3
"""Compare two google-benchmark JSON files and fail on throughput regressions.

Usage: bench_compare.py BASELINE.json CURRENT.json [--threshold 0.15]
                        [--series walker]

The guarded series are the production chunk walker's rows (benchmark labels
containing "walker" by default); the reference/oracle series are
informational only, so a slow oracle never blocks a PR. Benchmarks are matched by
name+label; entries present on only one side are reported and skipped (new
benchmarks have no baseline yet, retired ones no longer matter). The metric
is bytes_per_second when both sides report it, else 1/real_time. Entries
that carry one of the LOWER_IS_BETTER side metrics — "p99_ms" tail latency
(the rispard serving sweep) or the "load_ms"/"reload_ms" bundle timings (the
BENCH_bundle_load cold-start sweep) — are additionally gated on each, with
the regression direction flipped, at the same threshold: a serving path can
lose a PR on p99 growth even when aggregate throughput held, and the
zero-copy loader can lose one on load-time growth.

Repeated runs (--benchmark_repetitions=N) are gated on their "median"
aggregate, matched by run_name+label; the other aggregates (mean, stddev,
cv) are ignored. A median is never compared against a single run: when only
one side reports aggregates the entry is a fresh baseline, so switching a
binary to repetitions resets its series once.

A missing or unreadable baseline file exits 0 with a note: the very first CI
run (and any run after artifact expiry) has nothing to compare against —
this script is the gate only once a trajectory exists.
"""

import argparse
import json
import sys

# Per-entry side metrics gated lower-is-better (latency-shaped), unlike the
# higher-is-better throughput headline. Benchmark counters surface as
# top-level fields of each entry in google-benchmark JSON, so adding a
# counter with one of these names to any benchmark opts it into the gate.
LOWER_IS_BETTER = ("p99_ms", "load_ms", "reload_ms")


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        return error


def series_key(entry):
    # run_name already encodes the Args (name adds the aggregate suffix);
    # the label carries the human series tag (e.g. "c=8/walker"), which
    # distinguishes relabeled runs.
    return (entry.get("run_name", entry.get("name", "")), entry.get("label", ""))


def gated_entries(results):
    """The entries a file is gated on: its medians when it has repetitions,
    else its single runs."""
    entries = results.get("benchmarks", [])
    if any(e.get("run_type") == "aggregate" for e in entries):
        return [e for e in entries if e.get("aggregate_name") == "median"]
    return entries


def metric(entry):
    """Higher-is-better throughput figure for one benchmark entry."""
    kind = "median " if entry.get("aggregate_name") == "median" else ""
    bps = entry.get("bytes_per_second")
    if bps:
        return float(bps), kind + "bytes_per_second"
    real = float(entry.get("real_time", 0.0))
    return (1.0 / real if real > 0 else 0.0), kind + "1/real_time"


def guarded(entry, tags):
    haystack = (entry.get("label", "") + " " + entry.get("name", "")).lower()
    return any(tag in haystack for tag in tags)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="maximum allowed fractional throughput drop "
                             "in a guarded series (default 0.15)")
    parser.add_argument("--series", default="walker",
                        help="comma-separated substrings of guarded series "
                             "labels (default: walker)")
    args = parser.parse_args()
    tags = [tag.strip().lower() for tag in args.series.split(",") if tag.strip()]

    baseline = load(args.baseline)
    if isinstance(baseline, Exception):
        print(f"bench_compare: no usable baseline ({args.baseline}: {baseline}); "
              "nothing to compare — first run records the trajectory.")
        return 0
    current = load(args.current)
    if isinstance(current, Exception):
        print(f"bench_compare: cannot read current results {args.current}: "
              f"{current}", file=sys.stderr)
        return 2

    old = {series_key(e): e for e in gated_entries(baseline)}
    new = {series_key(e): e for e in gated_entries(current)}

    regressions = []
    compared = 0
    for key, entry in sorted(new.items()):
        if not guarded(entry, tags):
            continue
        if key not in old:
            print(f"  new (no baseline): {key[0]} [{key[1]}]")
            continue
        new_value, how = metric(entry)
        old_value, old_how = metric(old[key])
        if how != old_how:
            # A bench gained/lost SetBytesProcessed, or one side is a median
            # and the other a single run: the ratio would compare different
            # things. Treat as a fresh baseline, not a result.
            print(f"  metric changed ({old_how} -> {how}): {key[0]} [{key[1]}]")
            continue
        if old_value <= 0:
            continue
        compared += 1
        change = new_value / old_value - 1.0
        marker = "REGRESSION" if change < -args.threshold else "ok"
        print(f"  {marker:>10}: {key[0]} [{key[1]}] {change:+.1%} ({how})")
        if change < -args.threshold:
            regressions.append((key, change))

        # Lower-is-better side metrics, where reported (tail latency, bundle
        # load/reload timings): the regression direction flips relative to
        # throughput.
        for field in LOWER_IS_BETTER:
            old_side = float(old[key].get(field, 0.0))
            new_side = float(entry.get(field, 0.0))
            if old_side > 0 and new_side > 0:
                side_change = new_side / old_side - 1.0
                marker = "REGRESSION" if side_change > args.threshold else "ok"
                print(f"  {marker:>10}: {key[0]} [{key[1]}] "
                      f"{side_change:+.1%} ({field})")
                if side_change > args.threshold:
                    regressions.append((key, side_change))

    for key in sorted(set(old) - set(new)):
        if guarded(old[key], tags):
            print(f"  retired (in baseline only): {key[0]} [{key[1]}]")

    if regressions:
        print(f"bench_compare: {len(regressions)} guarded series regressed "
              f"more than {args.threshold:.0%}:", file=sys.stderr)
        for key, change in regressions:
            print(f"  {key[0]} [{key[1]}]: {change:+.1%}", file=sys.stderr)
        return 1
    print(f"bench_compare: {compared} guarded series compared, none regressed "
          f"more than {args.threshold:.0%}.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
