#!/usr/bin/env python3
"""Compare two sets of benchmark runs (the records run.py writes).

    python3 perfbench/compare.py --base <record.json>... --new <record.json>...

Refuses (exit 2) when the records' host fingerprints differ (nproc, AVX2,
compiler, build type) or their run lengths differ: such numbers do not
compare. Otherwise prints, per workload and end-to-end metric of
BENCHMARK.json, both medians and quartiles, the change as a share of the
base median (positive = worse), the metric's bound, and a verdict:

  worse      the new median is worse than the base median by more than the bound
  unresolved the base runs spread wider than the bound, so "no change" is unknown
  ok         within the bound
The "wins" column counts the pairs (i-th base run, i-th new run) the new
side wins; a gain claim needs at least nine in ten.

Incorrect runs stay in the comparison (their ok_ratio is below 1), and a
workload whose new side has more incorrect runs than its base is "worse"
however its medians read.
Exit code 1 when anything is worse.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HOST_KEYS = ("nproc", "avx2", "compiler", "build_type")


def load(paths):
    """The untraced records: only they carry the end-to-end metrics."""
    records = []
    for path in paths:
        with open(path) as handle:
            record = json.load(handle)
        if record["trace"] == 0:
            records.append(record)
        else:
            print(f"skipping {path}: traced run")
    return records


def incorrect(runs):
    return sum(not r["result"]["correct"] for r in runs)


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    base, new = load(args.base), load(args.new)
    if not base or not new:
        sys.exit("compare.py: no usable runs on one side")

    hosts = {tuple(r["fingerprint"].get(k) for k in HOST_KEYS) for r in base + new}
    if len(hosts) != 1:
        print("compare.py: refusing to compare runs from different hosts or builds:")
        for host in sorted(hosts, key=str):
            print("  " + ", ".join(f"{k}={v}" for k, v in zip(HOST_KEYS, host)))
        sys.exit(2)
    if len({r["seconds"] for r in base + new}) != 1:
        sys.exit("compare.py: refusing to compare runs of different lengths")

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        metrics = json.load(handle)["end_to_end"]
    worse = False
    print(f"{'workload':16} {'metric':12} {'base q1/med/q3':>30} {'new q1/med/q3':>30} "
          f"{'change':>8} {'bound':>6} {'wins':>6}  verdict")
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        b_runs = [r for r in base if r["workload"] == workload]
        n_runs = [r for r in new if r["workload"] == workload]
        b_bad, n_bad = incorrect(b_runs), incorrect(n_runs)
        print(f"{workload:16} {'incorrect':12} {b_bad:>30} {n_bad:>30}"
              f"{'':25}  {'worse' if n_bad > b_bad else 'ok'}")
        worse = worse or n_bad > b_bad
        for metric in metrics:
            name, sign = metric["name"], (1 if metric["better"] == "lower" else -1)
            b = [r["result"]["metrics"][name]["value"] for r in b_runs]
            n = [r["result"]["metrics"][name]["value"] for r in n_runs]
            bq, nq = spread(b), spread(n)
            change = sign * (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            wins = sum(sign * (y - x) < 0 for x, y in zip(b, n))
            if change > metric["bound"]:
                verdict, worse = "worse", True
            elif bq[1] and (bq[2] - bq[0]) / bq[1] > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
            print(f"{workload:16} {name:12} {fmt(bq):>30} {fmt(nq):>30} {change:+8.3f} "
                  f"{metric['bound']:6.2f} {wins:>2}/{min(len(b), len(n)):<3}  {verdict}")
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
