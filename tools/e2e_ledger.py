#!/usr/bin/env python3
"""Append one parent-vs-change comparison to the end-to-end ledger.

Usage:
    e2e_ledger.py BENCHMARK.json A.json... --vs B.json... --parent COMMIT --pr N
        [--ledger BENCH_e2e.json] [--note TEXT]

A and B are `bench_e2e --out` files of the parent and of the change, as for
bench/e2e/compare.py; this script imports compare.py's loading, quartile and
verdict functions instead of repeating them. The entry, keyed by the parent
commit and the change number, holds per (workload, end-to-end metric) each
side's median, q1 and q3 over its untraced runs, the change (positive = B
better) and compare.py's verdict, plus per workload the seeds and whether
every seed-matched pair produced the same assignment hash. An entry with the
same key is replaced, so a re-run with more pairs updates it in place.

Exit status: 1 when a run is not correct or a verdict is `regressed`, as
compare.py; the entry is written either way.
"""
import argparse
import json
import os
import statistics
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ inside bench/e2e
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench", "e2e"))
import compare  # noqa: E402


def side(values):
    q1, med, q3 = compare.quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def build_entry(metrics, a_runs, b_runs):
    a_by, b_by = compare.by_workload(a_runs), compare.by_workload(b_runs)
    workloads, rows = {}, []
    for workload in sorted(set(a_by) & set(b_by)):
        a_group, b_group = a_by[workload], b_by[workload]
        a_seeds = [r["seed"] for r in a_group]
        b_seeds = [r["seed"] for r in b_group]
        a_hash = {r["seed"]: r["detail"].get("assignment_fnv1a") for r in a_group}
        workloads[workload] = {
            "a_seeds": a_seeds,
            "b_seeds": b_seeds,
            "same_assignment_hash": all(
                a_hash[r["seed"]] == r["detail"].get("assignment_fnv1a")
                for r in b_group if r["seed"] in a_hash),
        }
        for metric in metrics:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in a_group]
            b = [r["metrics"][name]["value"] for r in b_group]
            change = -compare.worse_by(statistics.median(a), statistics.median(b),
                                       metric["better"])
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": metric["unit"],
                "a": side(a),
                "b": side(b),
                "change": round(change, 6),
                "verdict": compare.verdict(metric, a, b, a_seeds, b_seeds),
            })
    return workloads, rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("benchmark")
    parser.add_argument("base", nargs="+")
    parser.add_argument("--vs", nargs="+", required=True, dest="change")
    parser.add_argument("--parent", required=True, help="parent commit hash")
    parser.add_argument("--pr", required=True, type=int, help="number of the change")
    parser.add_argument("--ledger", default="BENCH_e2e.json")
    parser.add_argument("--note", default="")
    args = parser.parse_args()

    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    a_runs, b_runs = compare.load_runs(args.base), compare.load_runs(args.change)
    incorrect = [f"{r['workload']} seed {r['seed']}" for r in a_runs + b_runs
                 if not r["correct"]]
    workloads, rows = build_entry(metrics, a_runs, b_runs)
    entry = {"parent": args.parent, "pr": args.pr, "note": args.note,
             "incorrect_runs": incorrect, "workloads": workloads, "rows": rows}

    ledger = {"schema": "oms.e2e_ledger.v1", "entries": []}
    if os.path.exists(args.ledger):
        with open(args.ledger) as f:
            ledger = json.load(f)
    ledger["entries"] = [e for e in ledger["entries"]
                         if (e["parent"], e["pr"]) != (args.parent, args.pr)]
    ledger["entries"].append(entry)
    with open(args.ledger, "w") as f:
        json.dump(ledger, f, indent=1)
        f.write("\n")

    for row in rows:
        print(f"{row['workload']:<12} {row['metric']:<17} "
              f"A {row['a']['median']:<12.6g} B {row['b']['median']:<12.6g} "
              f"{row['change']:+.2%}  {row['verdict']}")
    failed = bool(incorrect) or any(r["verdict"] == "regressed" for r in rows)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
