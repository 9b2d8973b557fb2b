#!/usr/bin/env python3
"""Compare a sweep-runner BENCH json against the committed baseline.

Usage: tools/bench_compare.py CURRENT.json BASELINE.json [--tolerance 0.10]
       tools/bench_compare.py --subset CURRENT.json BASELINE.json
       tools/bench_compare.py --microbench GBENCH.json BASELINE.json

Default mode: both files are `simctl --sweep` output (schema_version 1) or
`simctl --open` output (schema_version 2, "mode":"open") — the mode is
detected from the files and both must match. For closed sweeps the gate
fails if:
  * the two files were produced from different grids (spec mismatch),
  * any relative_response ratio drifts more than --tolerance (relative)
    from the baseline ratio,
  * any per-job mean_response_s drifts more than --tolerance, or
  * an affinity policy's ratio exceeds the sanity bound (--max-ratio,
    default 1.10): affinity scheduling must never be grossly worse than
    Equipartition, the paper's central claim.

For open sweeps (schema 2) the gate fails if the grids differ, if any
cell's p50/p95/p99 sojourn or reject rate drifts more than --tolerance,
or if any current cell's built-in Little's-law check failed.

With a deterministic sweep (fixed replication count, derived per-cell
seeds) the expected drift is exactly zero, so any nonzero delta means the
simulation changed; the tolerance only forgives intentional, reviewed
model changes that come with a baseline refresh.

--subset mode (closed sweeps only): CURRENT ran a slice of BASELINE's
grid — e.g. the CI policy matrix runs `mq;steal=<name>` one steal policy
at a time against the full committed mq golden. The spec gate relaxes to
"CURRENT's policies and mixes are subsets of BASELINE's" (name, seed and
machine must still match), and only the keys present in CURRENT are
value-compared; a current key absent from the baseline still fails. Cell
seeds derive from (root_seed, mix, rep) alone, so a subset run reproduces
the full run's trajectories exactly and the same zero-drift expectation
applies.

--microbench mode: GBENCH.json is Google Benchmark output
(`bench_sim_microbench --benchmark_out=... --benchmark_out_format=json`,
ideally with --benchmark_repetitions); BASELINE.json is the committed sweep
baseline, whose object named by --floors-key (default "microbench"; the
sweep-throughput entries gate against "microbench_opensys",
"microbench_topology", "microbench_multiqueue" and "microbench_rt") maps
benchmark names to items_per_second floors. The gate takes the MAX items/sec across
repetitions (single-core CI boxes dip, they do not spike, so the max is
the least noisy estimate of real throughput) and fails on a >--tolerance
drop below the floor. Throughput gains do not fail the gate — raise the
recorded floor when one lands.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    # Schema 3 is schema 1 plus an opt-in "observability" object; every field
    # this gate reads is identical.
    if doc.get("schema_version") not in (1, 2, 3):
        sys.exit(f"{path}: unsupported schema_version {doc.get('schema_version')!r}")
    return doc


def is_open(doc):
    return doc.get("schema_version") == 2 and doc.get("mode") == "open"


def spec_key(doc):
    spec = doc["spec"]
    return (
        spec["name"].split(";")[0],
        spec["root_seed"],
        tuple(spec["policies"]),
        tuple(spec["mixes"]),
        spec["machine"]["procs"],
    )


def subset_spec_failure(current, baseline):
    """Spec check for --subset: same grid, but a slice of policies/mixes."""
    cur, base = current["spec"], baseline["spec"]
    problems = []
    for field, c, b in (
        ("name", cur["name"].split(";")[0], base["name"].split(";")[0]),
        ("root_seed", cur["root_seed"], base["root_seed"]),
        ("procs", cur["machine"]["procs"], base["machine"]["procs"]),
    ):
        if c != b:
            problems.append(f"{field} {c!r} vs baseline {b!r}")
    for field in ("policies", "mixes"):
        extra = set(cur[field]) - set(base[field])
        if extra:
            problems.append(f"{field} {sorted(extra)} not in baseline {base[field]}")
    if problems:
        return "spec mismatch (--subset): " + "; ".join(problems)
    return None


def ratio_map(doc):
    return {
        (r["mix"], r["policy"], r["job"]): r["ratio"]
        for r in doc.get("relative_response", [])
    }


def response_map(doc):
    out = {}
    for exp in doc["experiments"]:
        for job in exp["jobs"]:
            out[(exp["mix"], exp["policy"], job["index"])] = job["mean_response_s"]
    return out


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


def open_spec_key(doc):
    spec = doc["spec"]
    return (
        spec["name"].split(";")[0],
        spec["root_seed"],
        tuple(spec["policies"]),
        tuple(spec["arrivals"]),
        tuple(round(r * 1000) for r in spec["rhos"]),
        spec["replications"],
        spec["jobs_per_cell"],
        spec["machine"]["procs"],
    )


def open_cell_map(doc):
    return {
        (c["arrivals"], round(c["rho"] * 1000), c["policy"], c["rep"]): c
        for c in doc["cells"]
    }


def compare_open(current, baseline, args):
    """Gate an open-sweep (schema 2) run against its baseline."""
    failures = []
    if open_spec_key(current) != open_spec_key(baseline):
        failures.append(
            f"spec mismatch: current {open_spec_key(current)} "
            f"vs baseline {open_spec_key(baseline)}")

    gated = ("p50_sojourn_s", "p95_sojourn_s", "p99_sojourn_s", "reject_rate")
    cur_cells, base_cells = open_cell_map(current), open_cell_map(baseline)
    for key in sorted(base_cells):
        if key not in cur_cells:
            failures.append(f"cell missing from current run: {key}")
            continue
        base, cur = base_cells[key], cur_cells[key]
        marks = []
        for field in gated:
            b, c = base[field], cur[field]
            drift = abs(c - b) / abs(b) if b else abs(c)
            if drift > args.tolerance:
                marks.append(f"{field} {b:.4f} -> {c:.4f}")
        if not cur["littles_law"]["ok"]:
            marks.append(
                f"littles_law rel_err {cur['littles_law']['rel_err']:.4f}")
        arrivals, rho_pm, policy, rep = key
        line = (f"cell {arrivals} rho={rho_pm / 1000:.3f} {policy:<8} rep={rep}: "
                f"p95 {base['p95_sojourn_s']:.3f}s -> {cur['p95_sojourn_s']:.3f}s")
        if marks:
            print(f"{line}  <-- {'; '.join(marks)}")
            failures.extend(f"cell {key}: {m}" for m in marks)
        else:
            print(line)

    if failures:
        print(f"\nFAIL: {len(failures)} open-sweep regression(s) vs "
              f"{args.baseline}:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nOK: {len(base_cells)} open cells within {args.tolerance:.0%} of "
          "baseline; Little's law holds in every cell")
    return 0


def compare_microbench(args):
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


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current")
    parser.add_argument("baseline")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="max allowed relative drift (default 0.10)")
    parser.add_argument("--max-ratio", type=float, default=1.10,
                        help="sanity bound on policy-vs-equi response ratios")
    parser.add_argument("--subset", action="store_true",
                        help="CURRENT ran a slice of BASELINE's grid: allow "
                             "policies/mixes to be subsets and gate only the "
                             "keys CURRENT produced (closed sweeps only)")
    parser.add_argument("--microbench", action="store_true",
                        help="treat CURRENT as Google Benchmark JSON and gate "
                             "items/sec against BASELINE's floors")
    parser.add_argument("--floors-key", default="microbench",
                        help="BASELINE object holding the --microbench floors "
                             "(default 'microbench'; bench_sim_microbench's "
                             "sweep entries use 'microbench_opensys', "
                             "'microbench_topology', 'microbench_multiqueue' "
                             "and 'microbench_rt')")
    args = parser.parse_args()

    if args.microbench:
        return compare_microbench(args)

    current = load(args.current)
    baseline = load(args.baseline)
    if is_open(current) != is_open(baseline):
        sys.exit("mode mismatch: one file is an open sweep (schema 2), the "
                 "other a closed sweep (schema 1)")
    if is_open(current):
        if args.subset:
            sys.exit("--subset is only supported for closed sweeps")
        return compare_open(current, baseline, args)

    failures = []
    if args.subset:
        mismatch = subset_spec_failure(current, baseline)
        if mismatch:
            failures.append(mismatch)
    elif spec_key(current) != spec_key(baseline):
        failures.append(
            f"spec mismatch: current {spec_key(current)} vs baseline {spec_key(baseline)}")

    cur_ratios, base_ratios = ratio_map(current), ratio_map(baseline)
    # --subset gates the keys CURRENT produced; full mode demands every
    # baseline key shows up in the current run.
    for key in sorted(cur_ratios if args.subset else base_ratios):
        if key not in cur_ratios:
            failures.append(f"ratio missing from current run: {key}")
            continue
        if key not in base_ratios:
            failures.append(f"ratio not in baseline: {key}")
            continue
        base, cur = base_ratios[key], cur_ratios[key]
        drift = abs(cur - base) / abs(base) if base else abs(cur)
        mark = "" if drift <= args.tolerance else "  <-- DRIFT"
        if mark:
            failures.append(
                f"ratio {key}: {base:.4f} -> {cur:.4f} ({drift:+.1%} drift)")
        print(f"ratio mix={key[0]} policy={key[1]:<8} job={key[2]}: "
              f"baseline {base:.4f} current {cur:.4f}{mark}")
        if cur > args.max_ratio:
            failures.append(
                f"ratio {key}: {cur:.4f} exceeds sanity bound {args.max_ratio}")

    cur_resp, base_resp = response_map(current), response_map(baseline)
    for key in sorted(cur_resp if args.subset else base_resp):
        if key not in cur_resp:
            failures.append(f"experiment missing from current run: {key}")
            continue
        if key not in base_resp:
            failures.append(f"experiment not in baseline: {key}")
            continue
        base, cur = base_resp[key], cur_resp[key]
        drift = abs(cur - base) / base
        if drift > args.tolerance:
            failures.append(
                f"mean_response_s {key}: {base:.3f}s -> {cur:.3f}s ({drift:+.1%} drift)")

    if failures:
        print(f"\nFAIL: {len(failures)} regression(s) vs {args.baseline}:",
              file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    gated_ratios = len(cur_ratios if args.subset else base_ratios)
    gated_resp = len(cur_resp if args.subset else base_resp)
    scope = " (subset)" if args.subset else ""
    print(f"\nOK: {gated_ratios} ratios and {gated_resp} response times "
          f"within {args.tolerance:.0%} of baseline{scope}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
