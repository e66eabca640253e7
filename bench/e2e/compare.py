#!/usr/bin/env python3
"""Compare two sets of bench_e2e result files against BENCHMARK.json.

Usage:
    compare.py BENCHMARK.json A.json... --vs B.json... [--repeatability]

Each file is one `bench_e2e --out FILE` document (one or more runs, each of
one workload and seed). A is the parent (or first) set, B the change (or
second) set. One row is printed per (workload, end-to-end metric) with each
side's median and quartiles, taken over that side's runs, and a verdict:

  ok          B's median is no worse than A's by more than the bound.
  regressed   B's median is worse than A's by more than the bound.
  improved    B wins at least 9 of 10 seed-matched pairs (ties count for
              neither), there are at least 10 pairs, and the medians differ
              by more than A's quartile spread.
  unresolved  a side's quartile spread (q3 - q1, as a share of its median)
              is wider than the bound, and not every B run beats every A run.

With --repeatability, A and B are two sets of the same commit. A row fails
(`noisy`) when a side's spread exceeds the bound or
(`drift`) when B's median is worse than A's by more than the bound; runs of
the same workload and seed must also produce the same assignment hash.

Exit status: 1 on any regression (or any repeatability failure), or when a
run reports correct = false; 0 otherwise.
"""
import argparse
import json
import statistics
import sys


def load_runs(paths):
    runs = []
    for path in paths:
        with open(path) as f:
            runs.extend(json.load(f)["runs"])
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def worse_by(base, change, better):
    """How much worse `change` reads than `base`, as a share of `base`."""
    if base == 0:
        return 0.0
    delta = (change - base) if better == "lower" else (base - change)
    return delta / abs(base)


def beats(x, y, better):
    return x < y if better == "lower" else x > y


def by_workload(runs):
    out = {}
    for run in runs:
        if not run["trace"]:
            out.setdefault(run["workload"], []).append(run)
    for group in out.values():
        group.sort(key=lambda r: r["seed"])
    return out


def verdict(metric, a, b, a_seeds, b_seeds):
    bound, better = metric["bound"], metric["better"]
    a_med, b_med = statistics.median(a), statistics.median(b)
    if max(spread(a), spread(b)) > bound and not all(
        beats(y, x, better) for x in a for y in b
    ):
        return "unresolved"
    if worse_by(a_med, b_med, better) > bound:
        return "regressed"
    pairs = [(x, b[b_seeds.index(s)]) for x, s in zip(a, a_seeds) if s in b_seeds]
    wins = sum(1 for x, y in pairs if beats(y, x, better))
    q1, _, q3 = quartiles(a)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and abs(b_med - a_med) > q3 - q1:
        return "improved"
    return "ok"


def repeatability(metric, a, b):
    bound = metric["bound"]
    if max(spread(a), spread(b)) > bound:
        return "noisy"
    if worse_by(statistics.median(a), statistics.median(b), metric["better"]) > bound:
        return "drift"
    return "ok"


def fmt(x):
    return f"{x:.6g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("benchmark")
    parser.add_argument("base", nargs="+")
    parser.add_argument("--vs", nargs="+", required=True, dest="change")
    parser.add_argument("--repeatability", action="store_true")
    args = parser.parse_args()

    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    a_runs, b_runs = load_runs(args.base), load_runs(args.change)
    failed = False
    for run in a_runs + b_runs:
        if not run["correct"]:
            print(f"run {run['workload']} seed {run['seed']} is not correct: {run['errors']}")
            failed = True

    a_by, b_by = by_workload(a_runs), by_workload(b_runs)
    header = ("workload", "metric", "A median", "A q1", "A q3", "B median", "B q1",
              "B q3", "B vs A", "spread/bound", "verdict")
    rows = [header]
    for workload in sorted(set(a_by) & set(b_by)):
        a_group, b_group = a_by[workload], b_by[workload]
        a_seeds = [r["seed"] for r in a_group]
        b_seeds = [r["seed"] for r in b_group]
        for metric in metrics:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in a_group]
            b = [r["metrics"][name]["value"] for r in b_group]
            if args.repeatability:
                v = repeatability(metric, a, b)
            else:
                v = verdict(metric, a, b, a_seeds, b_seeds)
            failed = failed or v in ("regressed", "noisy", "drift")
            aq, bq = quartiles(a), quartiles(b)
            change = -worse_by(statistics.median(a), statistics.median(b), metric["better"])
            rows.append((workload, name, fmt(aq[1]), fmt(aq[0]), fmt(aq[2]), fmt(bq[1]),
                         fmt(bq[0]), fmt(bq[2]), f"{change:+.2%}",
                         f"{max(spread(a), spread(b)) / metric['bound']:.2f}", v))
        if args.repeatability:
            a_hash = {r["seed"]: r["detail"].get("assignment_fnv1a") for r in a_group}
            for r in b_group:
                if r["seed"] in a_hash and r["detail"].get("assignment_fnv1a") != a_hash[r["seed"]]:
                    print(f"{workload} seed {r['seed']}: assignment hash differs between sets")
                    failed = True
    widths = [max(len(str(row[i])) for row in rows) for i in range(len(header))]
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip())
    print("B vs A: positive = B better. spread/bound: the wider side's (q3-q1)/median "
          "over the metric's bound.")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
