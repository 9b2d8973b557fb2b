#!/usr/bin/env python3
"""Render and diff affsched sweep results.

Usage:
  tools/affsched_report.py summary RESULT.json
  tools/affsched_report.py diff CURRENT.json BASELINE.json [--threshold 0.02]
                                [--subset] [--all]

summary: prints human-readable tables for any result document the toolchain
writes — a closed sweep (schema_version 1 or 3, `simctl --sweep`), an open
sweep (schema_version 2, `simctl --open`), or a run manifest
(`simctl --manifest`). A closed sweep renders the paper's tables from its
fields: the programs in each mix (Table 2); per job, the mean response, its
ratio to Equipartition (Figure 5) and the affinity terms %affinity,
#reallocations and reallocation interval (Table 3), plus the per-tier steal
and balance counters when the grid ran a multi-queue policy; and per policy,
the range of its vs-equi ratios (Figure 6's spread) and its mean job
response in each mix (Table 4). Schema-3 documents additionally get the
affinity-efficiency table from their "observability" block and the
deadline/tardiness table from their "rt" block (`simctl --sweep=rt`).
Statistics that are missing or NaN (e.g. percentiles of a cell that
completed zero jobs) render as "n/a".

diff: compares two result documents of the same kind (the one tool that
does), prints per-metric deltas and a per-policy worst-drift table, and
exits nonzero if any gate fails:
  * grid: both ran the same grid (preset name, seed, procs, policies, and
    the mixes, or the open grid's arrivals, rhos, replications and jobs
    per cell);
  * drift: no metric moves beyond --threshold (relative, default 2%) or goes
    missing. Closed sweeps gate mean response, vs-equi ratios and the rt
    deadline terms; open sweeps p50/p95/p99 sojourn and reject rate;
  * Little's law: every current open cell passed its built-in check.
--subset (closed sweeps only): CURRENT ran a slice of BASELINE's grid, as
`mq;steal=numa` does of the mq golden. Its policies and mixes may be
subsets, and only the metrics it produced are gated. Cell seeds ignore the
policy axis, so a slice reproduces the full run's values exactly. Use diff
to answer "did this change move the paper's numbers?" in CI or by hand.

Stdlib only; no third-party dependencies.
"""

import argparse
import json
import math
import sys


# --- formatting --------------------------------------------------------------

def fmt(value, digits=3):
    """Format a numeric stat; None/NaN/inf render as n/a (zero-job cells)."""
    if value is None:
        return "n/a"
    try:
        v = float(value)
    except (TypeError, ValueError):
        return str(value)
    if not math.isfinite(v):
        return "n/a"
    return f"{v:.{digits}f}"


def render_table(header, rows):
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))
    lines = []
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(c).ljust(widths[i]) for i, c in enumerate(row)))
    return "\n".join(lines)


def load(path):
    with open(path) as f:
        return json.load(f)


def doc_kind(doc):
    schema = doc.get("schema_version")
    if schema in (1, 3):
        return "sweep"
    if schema == 2:
        return "open"
    if doc.get("tool") in ("simctl", "simctl-open") or "git_sha" in doc:
        return "manifest"
    return None


# --- summary -----------------------------------------------------------------

def summarize_sweep(doc):
    spec = doc["spec"]
    print(f"sweep '{spec['name']}' (schema {doc['schema_version']}): "
          f"seed {spec['root_seed']}, {spec['machine']['procs']} procs, "
          f"{len(doc['experiments'])} experiments")
    print()

    programs = {}
    for exp in doc["experiments"]:
        counts = programs.setdefault(exp["mix"], {})
        if not counts:
            for job in exp["jobs"]:
                counts[job["app"]] = counts.get(job["app"], 0) + 1
    for mix, counts in programs.items():
        print(f"mix {mix}: " + ", ".join(f"{n} {app}" for app, n in counts.items()))
    print()

    ratios = {(r["mix"], r["policy"], r["job"]): r["ratio"]
              for r in doc.get("relative_response", [])}
    steals = any("steals" in job["mean_stats"]
                 for exp in doc["experiments"] for job in exp["jobs"])
    rows = []
    for exp in doc["experiments"]:
        for job in exp["jobs"]:
            key = (exp["mix"], exp["policy"], job["index"])
            stats = job["mean_stats"]
            row = [
                exp["mix"], exp["policy"],
                f"{job['app']} ({job['index']})", exp["replications"],
                fmt(job.get("mean_response_s"), 2),
                fmt(job.get("ci_half_width_s"), 2),
                fmt(ratios.get(key), 3) if key in ratios else "-",
                fmt(100.0 * stats["affinity_fraction"], 0) + "%",
                stats["reallocations"],
                fmt(1e3 * stats["realloc_interval_s"], 0),
            ]
            if steals:
                tiers = stats.get("steals", {})
                row += [f"{tiers.get('same_cluster', 0)}/{tiers.get('same_node', 0)}/"
                        f"{tiers.get('cross_node', 0)}", stats.get("balance_migrations", 0)]
            rows.append(row)
    header = ["mix", "policy", "job", "reps", "mean RT (s)", "ci (s)", "vs equi",
              "aff %", "reallocs", "interval (ms)"]
    if steals:
        header += ["steals c/n/x", "balance"]
    print(render_table(header, rows))

    # Per policy: the spread of its vs-equi ratios over every job, and the
    # mean over a mix's jobs of their mean responses.
    print()
    by_cell = {(exp["policy"], exp["mix"]): exp for exp in doc["experiments"]}
    rows = []
    for policy in spec["policies"]:
        policy_ratios = [r for (_, p, _), r in ratios.items() if p == policy]
        row = [policy, f"[{fmt(min(policy_ratios), 3)}, {fmt(max(policy_ratios), 3)}]"
               if policy_ratios else "-"]
        for mix in programs:
            jobs = by_cell.get((policy, mix), {}).get("jobs")
            if not jobs:
                row.append("-")
                continue
            total = 0.0  # left to right: sum() compensates from Python 3.12
            for job in jobs:
                total += job["mean_response_s"]
            row.append(fmt(total / len(jobs), 2))
        rows.append(row)
    print(render_table(["policy", "vs equi range"] +
                       [f"mix {mix} mean RT (s)" for mix in programs], rows))

    obs = doc.get("observability", {}).get("experiments")
    if obs:
        print()
        rows = []
        for entry in obs:
            m = entry.get("migrations", {})
            rows.append([
                entry["mix"], entry["policy"],
                fmt(entry.get("reload_transient_fraction"), 4),
                fmt(entry.get("affine_fraction"), 3),
                m.get("same_core", 0), m.get("same_cluster", 0),
                m.get("same_node", 0), m.get("cross_node", 0),
            ])
        print(render_table(
            ["mix", "policy", "reload frac", "affine frac",
             "mig core", "mig cluster", "mig node", "mig cross"],
            rows))

    rt = doc.get("rt", {})
    if rt.get("experiments"):
        print()
        print(f"real-time ({rt.get('deadline_mix', '?')} deadline mix):")
        rows = []
        for entry in rt["experiments"]:
            rows.append([
                entry["mix"], entry["policy"], entry.get("completions", 0),
                entry.get("deadline_misses", 0),
                fmt(entry.get("deadline_miss_rate"), 3),
                fmt(entry.get("mean_tardiness_s"), 4),
                fmt(entry.get("p99_tardiness_s"), 4),
                fmt(entry.get("worst_reload_s"), 9),
            ])
        print(render_table(
            ["mix", "policy", "done", "misses", "miss rate",
             "mean tardy (s)", "p99 tardy (s)", "worst reload (s)"],
            rows))


def summarize_open(doc):
    spec = doc["spec"]
    print(f"open sweep '{spec['name']}' (schema 2): seed {spec['root_seed']}, "
          f"{len(doc['cells'])} cells")
    print()
    rows = []
    for cell in doc["cells"]:
        rows.append([
            cell["arrivals"], fmt(cell["rho"], 2), cell["policy"], cell["rep"],
            fmt(cell.get("p50_sojourn_s"), 2), fmt(cell.get("p95_sojourn_s"), 2),
            fmt(cell.get("p99_sojourn_s"), 2),
            fmt(100.0 * cell.get("reject_rate", 0.0), 1),
            "ok" if cell.get("littles_law", {}).get("ok") else "FAIL",
        ])
    print(render_table(
        ["arrivals", "rho", "policy", "rep", "p50 (s)", "p95 (s)", "p99 (s)",
         "rej %", "L=lamW"],
        rows))


def summarize_manifest(doc):
    print(f"run manifest: tool {doc.get('tool', '?')}, "
          f"git {doc.get('git_rev', doc.get('git_sha', '?'))}, "
          f"host {doc.get('hostname', '?')}")
    rows = [[k, json.dumps(v)] for k, v in sorted(doc.items())
            if k not in ("metrics", "profile", "argv")]
    print()
    print(render_table(["key", "value"], rows))
    if "argv" in doc:
        print()
        print("argv:", " ".join(doc["argv"]))
    metrics = doc.get("metrics")
    if isinstance(metrics, dict):
        print(f"\nmetrics: {sum(len(v) for v in metrics.values() if isinstance(v, list))} "
              "entries (use jq for details)")


def cmd_summary(args):
    doc = load(args.result)
    kind = doc_kind(doc)
    if kind == "sweep":
        summarize_sweep(doc)
    elif kind == "open":
        summarize_open(doc)
    elif kind == "manifest":
        summarize_manifest(doc)
    else:
        sys.exit(f"{args.result}: unrecognized result document")
    return 0


# --- diff --------------------------------------------------------------------

def drift(base, cur):
    """Relative drift; NaN-aware (NaN vs NaN = no drift, NaN vs number = inf)."""
    b = float("nan") if base is None else float(base)
    c = float("nan") if cur is None else float(cur)
    if math.isnan(b) and math.isnan(c):
        return 0.0
    if math.isnan(b) or math.isnan(c):
        return float("inf")
    if b == 0.0:
        return abs(c)
    return abs(c - b) / abs(b)


def sweep_metrics(doc):
    """Flat {(metric, policy, mix, job): value} map for a closed sweep."""
    out = {}
    for exp in doc["experiments"]:
        for job in exp["jobs"]:
            out[("mean_response_s", exp["policy"], exp["mix"], job["index"])] = \
                job.get("mean_response_s")
    for r in doc.get("relative_response", []):
        out[("vs_equi_ratio", r["policy"], r["mix"], r["job"])] = r["ratio"]
    # Real-time documents gate the deadline terms too; the job slot is the
    # literal "rt" because these aggregate over the experiment's jobs.
    for entry in doc.get("rt", {}).get("experiments", []):
        key = (entry["policy"], entry["mix"], "rt")
        for field in ("deadline_miss_rate", "p99_tardiness_s", "worst_reload_s"):
            out[(field,) + key] = entry.get(field)
    return out


def open_metrics(doc):
    """Flat {(metric, policy, arrivals, rho, rep): value} map for an open sweep."""
    out = {}
    for cell in doc["cells"]:
        key = (cell["policy"], cell["arrivals"], cell["rho"], cell["rep"])
        for field in ("p50_sojourn_s", "p95_sojourn_s", "p99_sojourn_s",
                      "reject_rate"):
            out[(field,) + key] = cell.get(field)
    return out


def grid_key(doc, kind):
    spec = doc["spec"]
    key = (spec["name"].split(";")[0], spec["root_seed"],
           spec["machine"]["procs"], tuple(spec["policies"]))
    if kind == "sweep":
        return key + (tuple(spec["mixes"]),)
    return key + (tuple(spec["arrivals"]),
                  tuple(round(r * 1000) for r in spec["rhos"]),
                  spec["replications"], spec["jobs_per_cell"])


def grid_failures(current, baseline, kind, subset):
    """Both documents ran the same grid, or CURRENT a slice of BASELINE's."""
    cur, base = grid_key(current, kind), grid_key(baseline, kind)
    if not subset:
        return [] if cur == base else [f"grid mismatch: current {cur} vs baseline {base}"]
    problems = [f"{field} {c!r} vs baseline {b!r}"
                for field, c, b in zip(("name", "root_seed", "procs"), cur, base)
                if c != b]
    for field in ("policies", "mixes"):
        extra = sorted(set(current["spec"][field]) - set(baseline["spec"][field]))
        if extra:
            problems.append(f"{field} {extra} not in baseline {baseline['spec'][field]}")
    return [f"grid mismatch (--subset): {p}" for p in problems]


def cmd_diff(args):
    current, baseline = load(args.current), load(args.baseline)
    kind, base_kind = doc_kind(current), doc_kind(baseline)
    if kind != base_kind or kind not in ("sweep", "open"):
        sys.exit(f"cannot diff a {kind} document against a {base_kind} one")
    if args.subset and kind == "open":
        sys.exit("--subset is only supported for closed sweeps")
    extract = sweep_metrics if kind == "sweep" else open_metrics
    cur, base = extract(current), extract(baseline)

    failures = grid_failures(current, baseline, kind, args.subset)
    worst_by_policy = {}
    rows = []
    # --subset gates the metrics CURRENT produced; otherwise every baseline
    # metric must show up in CURRENT.
    gated = cur if args.subset else base
    for key in sorted(gated, key=str):
        if key not in base:
            failures.append(f"{key}: {fmt(cur[key])} not in baseline")
            continue
        d = drift(base[key], cur.get(key))
        worst_by_policy[key[1]] = max(worst_by_policy.get(key[1], 0.0), d)
        exceeded = d > args.threshold
        if exceeded:
            failures.append(
                f"{key}: {fmt(base[key])} -> {fmt(cur.get(key))} "
                f"({'missing' if key not in cur else f'{d:+.2%} drift'})")
        if exceeded or args.all:
            rows.append([
                *key, fmt(base[key]), fmt(cur.get(key)),
                "n/a" if not math.isfinite(d) else f"{d:.2%}",
                "<-- DRIFT" if exceeded else "",
            ])
    for key in sorted(cur, key=str):
        if key not in base:
            rows.append([*key, "n/a", fmt(cur[key]), "new", ""])
    if kind == "open":
        failures += [f"cell {cell['policy']} {cell['arrivals']} rho={fmt(cell['rho'])} "
                     f"rep={cell['rep']}: Little's law fails "
                     f"(rel_err {fmt(cell['littles_law'].get('rel_err'), 4)})"
                     for cell in current["cells"] if not cell["littles_law"]["ok"]]

    if rows:
        n_keys = max(len(r) for r in rows) - 5
        header = ["metric"] + [f"k{i}" for i in range(n_keys)] + \
                 ["baseline", "current", "drift", ""]
        print(render_table(header, rows))
        print()
    print(render_table(
        ["policy", "worst drift"],
        [[p, "n/a" if not math.isfinite(d) else f"{d:.2%}"]
         for p, d in sorted(worst_by_policy.items())]))

    if failures:
        print(f"\nFAIL: {len(failures)} check(s) failed against "
              f"{args.baseline}:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nOK: {len(gated)} metrics within {args.threshold:.0%} of baseline"
          f"{' (subset)' if args.subset else ''}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_summary = sub.add_parser("summary", help="render a result document")
    p_summary.add_argument("result")
    p_summary.set_defaults(func=cmd_summary)

    p_diff = sub.add_parser("diff", help="compare two result documents")
    p_diff.add_argument("current")
    p_diff.add_argument("baseline")
    p_diff.add_argument("--threshold", type=float, default=0.02,
                        help="max allowed relative drift (default 0.02)")
    p_diff.add_argument("--subset", action="store_true",
                        help="CURRENT ran a slice of BASELINE's grid: gate only "
                             "the metrics CURRENT produced (closed sweeps only)")
    p_diff.add_argument("--all", action="store_true",
                        help="print every compared metric, not just drifts")
    p_diff.set_defaults(func=cmd_diff)

    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
