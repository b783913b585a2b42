#!/usr/bin/env python3
"""Merge per-binary bench --json outputs into BENCH_smoke.json and report
a warn-only per-record delta against the committed baseline.

Usage:
  bench_smoke.py --out BENCH_smoke.json [--baseline OLD.json] IN.json...

Each input is the JSON array a bench binary writes with --json=<path>
(see bench/bench_common.h). Records are keyed by
(bench, query, algo, threads, variant); the merge sorts by that key so
BENCH_smoke.json diffs are stable across runs. When a baseline is given
(ci/check.sh passes the committed BENCH_smoke.json), every key present in
both is compared on mean-ns and a delta table is printed. The delta is
WARN-ONLY: smoke timings on shared CI machines are too noisy to gate on,
the table exists so a perf cliff is visible in the log, not to fail it.
For bench_costmodel, which times each query under every fixed algorithm
and the cost-based choice, a second warn-only table prints the choice's
time against the fastest fixed algorithm's.
Exit is non-zero only for malformed inputs.
"""

import argparse
import json
import sys


def key(r):
    return (
        r.get("bench", ""),
        r.get("query", ""),
        r.get("algo", ""),
        r.get("threads", 1),
        r.get("variant", ""),
    )


def load(path):
    with open(path) as f:
        records = json.load(f)
    if not isinstance(records, list):
        raise ValueError(f"{path}: expected a JSON array of records")
    return records


def report_cost_based(records):
    """Prints CostBased's time over the best fixed NL/SC/TJ time, per
    bench_costmodel query (warn-only)."""
    fixed = ("NLJoin", "SCJoin", "TwigJoin")
    by_query = {}
    for r in records:
        if r.get("bench") != "bench_costmodel":
            continue
        by_query.setdefault((r["query"], r.get("threads", 1)), {})[
            r["algo"]] = r["ns"]
    rows = []
    for (query, threads), times in sorted(by_query.items()):
        cb = times.get("CostBased")
        best = [times[a] for a in fixed if times.get(a)]
        if not cb or not best:
            continue
        rows.append((cb / min(best), query, threads))
    if not rows:
        return
    print("bench_smoke: CostBased vs best fixed algorithm (warn-only):")
    for ratio, query, threads in rows:
        marker = "  ** off the best? **" if ratio > 1.1 else ""
        print(f"  x{ratio:5.2f}  t{threads}  {query}{marker}")


def main(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    ap.add_argument("--baseline")
    ap.add_argument("inputs", nargs="+")
    args = ap.parse_args(argv)

    merged = {}
    for path in args.inputs:
        for r in load(path):
            merged[key(r)] = r  # later inputs win on key collision
    records = [merged[k] for k in sorted(merged)]
    with open(args.out, "w") as f:
        json.dump(records, f, indent=2)
        f.write("\n")
    print(f"bench_smoke: wrote {len(records)} records to {args.out}")
    report_cost_based(records)

    if args.baseline:
        try:
            base = {key(r): r for r in load(args.baseline)}
        except (OSError, ValueError) as e:
            print(f"bench_smoke: no usable baseline ({e}); skipping delta")
            return 0
        rows = []
        for k, r in merged.items():
            old = base.get(k)
            if old is None or not old.get("ns"):
                continue
            delta = (r["ns"] - old["ns"]) / old["ns"] * 100.0
            rows.append((delta, k))
        if not rows:
            print("bench_smoke: no overlapping baseline records; no delta")
            return 0
        rows.sort(reverse=True)
        print("bench_smoke: mean-ns delta vs baseline (warn-only):")
        for delta, k in rows:
            bench, query, algo, threads, variant = k
            tag = f"{bench}/{query}/{algo}/t{threads}"
            if variant:
                tag += f"/{variant}"
            marker = "  ** regression? **" if delta > 25.0 else ""
            print(f"  {delta:+7.1f}%  {tag}{marker}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
