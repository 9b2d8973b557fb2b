#!/usr/bin/env python3
"""Gate a Google Benchmark run against the speed floors in bench/baseline.json.

Usage: tools/bench_compare.py GBENCH.json BASELINE.json [--floors-key KEY]
                              [--tolerance 0.10]

GBENCH.json is Google Benchmark output (`bench_sim_microbench
--benchmark_out=... --benchmark_out_format=json`, ideally with
--benchmark_repetitions); BASELINE.json is bench/baseline.json, whose object
named by --floors-key (default "microbench"; the sweep-throughput entries
gate against "microbench_opensys", "microbench_topology",
"microbench_multiqueue" and "microbench_rt") maps benchmark names to
items_per_second floors. The gate takes the MAX items/sec across
repetitions (single-core CI boxes dip, they do not spike, so the max is the
least noisy estimate of real throughput) and fails on a >--tolerance drop
below the floor. Throughput gains do not fail the gate — raise the recorded
floor when one lands.

Result documents (sweeps, open sweeps) are compared by
`tools/affsched_report.py diff`, not here.
"""

import argparse
import json
import sys


def microbench_rates(path):
    """Max items_per_second per benchmark family from Google Benchmark JSON."""
    with open(path) as f:
        doc = json.load(f)
    rates = {}
    for bench in doc.get("benchmarks", []):
        # Repetition rows are "Name/repeats:5" (aggregates carry run_type
        # "aggregate"); fold everything onto the family name.
        if bench.get("run_type") == "aggregate":
            continue
        rate = bench.get("items_per_second")
        if rate is None:
            continue
        family = bench["name"].split("/")[0]
        rates[family] = max(rates.get(family, 0.0), rate)
    return rates


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current")
    parser.add_argument("baseline")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="max allowed relative drop (default 0.10)")
    parser.add_argument("--floors-key", default="microbench",
                        help="BASELINE object holding the floors (default "
                             "'microbench'; bench_sim_microbench's sweep "
                             "entries use 'microbench_opensys', "
                             "'microbench_topology', 'microbench_multiqueue' "
                             "and 'microbench_rt')")
    args = parser.parse_args()

    current = microbench_rates(args.current)
    with open(args.baseline) as f:
        floors = json.load(f).get(args.floors_key, {})
    if not floors:
        sys.exit(
            f"{args.baseline}: no top-level {args.floors_key!r} object to gate on")

    failures = []
    for name in sorted(floors):
        floor = floors[name]
        if name not in current:
            failures.append(f"benchmark missing from current run: {name}")
            continue
        rate = current[name]
        drop = (floor - rate) / floor
        mark = "" if drop <= args.tolerance else "  <-- REGRESSION"
        print(f"{name}: baseline {floor:,.0f} items/s, current {rate:,.0f} "
              f"({-drop:+.1%}){mark}")
        if mark:
            failures.append(
                f"{name}: {rate:,.0f} items/s is {drop:.1%} below the "
                f"{floor:,.0f} floor (tolerance {args.tolerance:.0%})")

    if failures:
        print(f"\nFAIL: {len(failures)} microbench regression(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nOK: {len(floors)} microbench rate(s) within {args.tolerance:.0%} "
          "of the recorded floor")
    return 0


if __name__ == "__main__":
    sys.exit(main())
