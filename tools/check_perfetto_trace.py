#!/usr/bin/env python3
"""Validate an exported Chrome/Perfetto trace-event JSON file.

Usage:
  tools/check_perfetto_trace.py TRACE.json [--require-decisions] [--require-steals]
                                           [--require-rt]
  tools/check_perfetto_trace.py --run-simctl PATH/TO/simctl [--steals] [--rt]

A minimal schema check for the files ChromeTraceWriter emits (simctl
--chrome-trace): enough structure that chrome://tracing and Perfetto will
load the file, without re-implementing either. Checks:

  * top level is an object with a "traceEvents" array;
  * every event is an object with a known "ph" and the keys that phase
    requires (pid/tid everywhere; ts+name on slices; dur >= 0 on "X";
    id on flow events; "bp":"e" on flow finishes);
  * "B"/"E" events balance per (pid, tid) track and never go negative;
  * timestamps are non-negative and non-decreasing within each B/E track;
  * every flow-finish ("f") id was started by some flow-start ("s").

With --require-decisions the file must additionally carry the decision
provenance layer: a pid-3 scheduler process with at least one "decision"
slice, at least one flow start, and at least one flow finish.

With --require-steals (implies the decision checks) the trace must carry
multi-queue steal provenance: at least one "decision" slice whose name is
the "steal" reason code, each such slice carrying a "site" arg and paired
with a flow start on the same (pid, tid, ts) — the arrow from the steal
decision to the dispatch it caused.

With --require-rt the trace must carry the real-time layer: at least one
"deadline miss" instant (cat "rt"), every one of them on the pid-2 jobs
process and on a track that also carried a job lifecycle span (the miss
marker pairs with the span it annotates, even though it is emitted after
the span closes).

--run-simctl builds the fixture itself: it runs the given simctl binary in
a temp directory with --chrome-trace/--decision-trace/--spans, then
validates the result with --require-decisions. With --steals it runs the
mq-numa steal policy on the hierarchical mq-preset machine instead and
validates with --require-steals. With --rt it runs rt-static-affinity and
rt-color-iso on an 8-color machine under the guaranteed-miss "tight"
deadline mix and validates each with --require-rt. This is what the tier-1
ctests use.

Observers must not move the trajectory: --run-simctl runs every scenario
twice more, once with no observer flag and once with --metrics, --manifest
and --samples, and fails unless the job rows and the "makespan:" line are
the same in all three runs. The default scenario also points each output
flag (--decision-trace, --spans, --samples, --chrome-trace, --manifest, and
--manifest under --open) into a missing directory, once per flag, and
fails unless simctl exits 1.

Exit status: 0 valid, 1 invalid, 2 usage/IO error.

Stdlib only; no third-party dependencies.
"""

import argparse
import difflib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

KNOWN_PHASES = {"M", "B", "E", "X", "i", "I", "C", "s", "t", "f"}
# Keys every event of the phase must carry (beyond pid/tid, checked for all).
REQUIRED_KEYS = {
    "M": ("name", "args"),
    "B": ("name", "ts"),
    "E": ("ts",),
    "X": ("name", "ts", "dur"),
    "i": ("name", "ts", "s"),
    "I": ("name", "ts"),
    "C": ("name", "ts", "args"),
    "s": ("name", "ts", "id"),
    "t": ("name", "ts", "id"),
    "f": ("name", "ts", "id", "bp"),
}


def validate(doc, require_decisions=False, require_steals=False, require_rt=False):
    """Returns a list of problem strings; empty means the trace is valid."""
    require_decisions = require_decisions or require_steals
    problems = []
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        return ['top level must be an object with a "traceEvents" array']
    events = doc["traceEvents"]
    if not events:
        problems.append("traceEvents is empty")

    depth = {}       # (pid, tid) -> open B count
    last_ts = {}     # (pid, tid) -> last B/E timestamp
    flow_starts, flow_finishes = set(), set()
    flow_start_sites = set()     # (pid, tid, ts) of each flow start
    steal_slices = []            # (index, (pid, tid, ts)) of "steal" decisions
    rt_instants = []             # (index, (pid, tid)) of "deadline miss" markers
    span_tracks = set()          # (pid, tid) tracks that carried a "B" span
    pids = set()
    decision_slices = 0

    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: event is not an object")
            continue
        ph = ev.get("ph")
        if ph not in KNOWN_PHASES:
            problems.append(f"{where}: unknown or missing ph {ph!r}")
            continue
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                problems.append(f"{where} (ph={ph}): missing integer {key!r}")
        for key in REQUIRED_KEYS[ph]:
            if key not in ev:
                problems.append(f"{where} (ph={ph}): missing required key {key!r}")
        ts = ev.get("ts")
        if ts is not None and (not isinstance(ts, (int, float)) or ts < 0):
            problems.append(f"{where}: ts must be a non-negative number, got {ts!r}")

        pids.add(ev.get("pid"))
        track = (ev.get("pid"), ev.get("tid"))
        if ph == "B":
            depth[track] = depth.get(track, 0) + 1
            span_tracks.add(track)
        elif ph == "E":
            depth[track] = depth.get(track, 0) - 1
            if depth[track] < 0:
                problems.append(f'{where}: "E" with no open "B" on track {track}')
        if ph in ("B", "E") and isinstance(ts, (int, float)):
            if ts < last_ts.get(track, float("-inf")):
                problems.append(
                    f"{where}: ts {ts} goes backwards on track {track} "
                    f"(last {last_ts[track]})")
            last_ts[track] = ts
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: X slice dur must be >= 0, got {dur!r}")
            if ev.get("cat") == "decision":
                decision_slices += 1
                if ev.get("name") == "steal":
                    steal_slices.append((i, track + (ts,)))
                    args_obj = ev.get("args")
                    if not isinstance(args_obj, dict) or \
                            not isinstance(args_obj.get("site"), str):
                        problems.append(
                            f'{where}: steal decision slice must carry a '
                            f'"site" string in args')
        if ph == "i" and ev.get("cat") == "rt":
            rt_instants.append((i, track))
        if ph == "f" and ev.get("bp") != "e":
            problems.append(f'{where}: flow finish must use "bp":"e", got {ev.get("bp")!r}')
        if ph == "s":
            flow_starts.add(ev.get("id"))
            flow_start_sites.add(track + (ts,))
        if ph == "f":
            flow_finishes.add(ev.get("id"))

    for track, d in sorted(depth.items(), key=str):
        if d != 0:
            problems.append(f'track {track}: {d} unbalanced "B" event(s)')
    orphans = flow_finishes - flow_starts
    if orphans:
        sample = sorted(orphans)[:5]
        problems.append(
            f"{len(orphans)} flow finish id(s) with no matching start, e.g. {sample}")

    if require_decisions:
        if 3 not in pids:
            problems.append("decision layer required but no pid-3 scheduler process found")
        if decision_slices == 0:
            problems.append('decision layer required but no "decision" X slices found')
        if not flow_starts:
            problems.append("decision layer required but no flow starts found")
        if not flow_finishes:
            problems.append("decision layer required but no flow finishes found")

    if require_steals:
        if not steal_slices:
            problems.append(
                'steal provenance required but no "steal" decision slices found')
        for i, site in steal_slices:
            if site not in flow_start_sites:
                problems.append(
                    f"traceEvents[{i}]: steal decision slice has no flow start "
                    f"on its (pid, tid, ts) {site}")

    if require_rt:
        if not rt_instants:
            problems.append('rt layer required but no "rt" instant markers found')
        for i, track in rt_instants:
            if track[0] != 2:
                problems.append(
                    f"traceEvents[{i}]: rt instant must live on the pid-2 jobs "
                    f"process, got pid {track[0]}")
            elif track not in span_tracks:
                problems.append(
                    f"traceEvents[{i}]: rt instant on track {track} pairs with "
                    f"no job lifecycle span")

    return problems


def check_file(path, require_decisions, require_steals=False, require_rt=False):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"{path}: {e}", file=sys.stderr)
        return 2
    problems = validate(doc, require_decisions, require_steals, require_rt)
    if problems:
        print(f"{path}: INVALID — {len(problems)} problem(s):", file=sys.stderr)
        for p in problems[:25]:
            print(f"  {p}", file=sys.stderr)
        if len(problems) > 25:
            print(f"  ... and {len(problems) - 25} more", file=sys.stderr)
        return 1
    n = len(doc["traceEvents"])
    print(f"{path}: OK ({n} events, pids "
          f"{sorted(p for p in {e.get('pid') for e in doc['traceEvents']} if p is not None)})")
    return 0


def report_rows(stdout):
    """The job rows and the "makespan:" line: simctl's stdout up to it."""
    lines = stdout.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("makespan:"):
            return lines[:i + 1]
    return None


def run(cmd):
    cmd = [str(c) for c in cmd]
    print("+", " ".join(cmd), flush=True)
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True)


def check_scenario(binary, scenario, tmp, steals, rt):
    """Runs `scenario` with the trace sinks, with no observer, and with the
    metric observers; validates the trace and compares the three reports."""
    trace = tmp / "trace.json"
    sinks = [f"--chrome-trace={trace}", f"--decision-trace={tmp / 'decisions.jsonl'}",
             f"--spans={tmp / 'spans.jsonl'}"]
    observers = ["--metrics", f"--manifest={tmp / 'manifest.json'}",
                 f"--samples={tmp / 'samples.csv'}"]
    reports = []
    for extra in (sinks, [], observers):
        result = run([binary, *scenario, *extra])
        if result.returncode != 0:
            print(f"simctl exited {result.returncode}", file=sys.stderr)
            return 2
        reports.append(report_rows(result.stdout))
    if reports[0] is None:
        print('simctl printed no "makespan:" line', file=sys.stderr)
        return 1
    for label, report in zip(("no observer", "--metrics/--manifest/--samples"), reports[1:]):
        if report != reports[0]:
            print(f"observers moved the trajectory: the run with {label} differs "
                  f"from the run with the trace sinks:", file=sys.stderr)
            for line in difflib.unified_diff(reports[0], report or [], lineterm=""):
                print(f"  {line}", file=sys.stderr)
            return 1
    for side in ("decisions.jsonl", "spans.jsonl"):
        if not (tmp / side).stat().st_size:
            print(f"{side}: empty sidecar output", file=sys.stderr)
            return 1
    return check_file(trace, require_decisions=True, require_steals=steals, require_rt=rt)


def check_unwritable_outputs(binary, scenario, tmp):
    """Every output flag pointed into a missing directory must exit 1."""
    missing = tmp / "missing-dir" / "out"
    cases = [[*scenario, f"--{flag}={missing}"]
             for flag in ("decision-trace", "spans", "samples", "chrome-trace", "manifest")]
    cases.append(["--open", "--preset=opensys-smoke;policies=equi;rhos=0.7;count=12",
                  "--jobs=1", f"--manifest={missing}"])
    failures = 0
    for args in cases:
        result = run([binary, *args])
        if result.returncode != 1:
            print(f"expected exit 1 for an unwritable output, got {result.returncode}",
                  file=sys.stderr)
            failures += 1
    return 1 if failures else 0


def run_simctl(binary, steals=False, rt=False):
    if steals:
        # The mq-preset machine: widest steal radius on the hierarchical
        # topology, so the trace carries tier-1..3 steal decisions.
        scenarios = [[
            "--mix=5", "--policy=mq-numa", "--procs=16", "--seed=42",
            "--topology=numa-4x8,cores-per-cluster=4,clusters-per-node=2",
        ]]
    elif rt:
        # The rt-preset machine under the guaranteed-miss tight mix, so
        # every deadline-bearing job contributes a miss marker. Both static
        # rt policies: rt-color-iso also answers the color-mask query.
        scenarios = [[
            "--mix=5", f"--policy={policy}", "--procs=16", "--seed=42",
            "--rt", "--deadline-mix=tight", "--colors=8",
        ] for policy in ("rt-static-affinity", "rt-color-iso")]
    else:
        scenarios = [["--mix=5", "--policy=dyn-aff", "--procs=16", "--seed=42"]]
    for scenario in scenarios:
        with tempfile.TemporaryDirectory(prefix="affsched-trace-") as tmp:
            status = check_scenario(binary, scenario, Path(tmp), steals, rt)
            if status == 0 and not (steals or rt):
                status = check_unwritable_outputs(binary, scenario, Path(tmp))
        if status != 0:
            return status
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", nargs="?", help="trace-event JSON file to check")
    parser.add_argument("--require-decisions", action="store_true",
                        help="fail unless the decision provenance layer is present")
    parser.add_argument("--require-steals", action="store_true",
                        help="fail unless the trace carries paired 'steal' "
                             "decision slices (implies --require-decisions)")
    parser.add_argument("--run-simctl", metavar="BINARY",
                        help="run this simctl binary to produce the trace, then "
                             "validate it with --require-decisions")
    parser.add_argument("--require-rt", action="store_true",
                        help="fail unless the trace carries 'deadline miss' "
                             "instants paired with job lifecycle spans")
    parser.add_argument("--steals", action="store_true",
                        help="with --run-simctl: run the mq-numa steal policy "
                             "on the hierarchical machine and validate with "
                             "--require-steals")
    parser.add_argument("--rt", action="store_true",
                        help="with --run-simctl: run rt-static-affinity and "
                             "rt-color-iso under the tight deadline mix on an "
                             "8-color machine and validate with --require-rt")
    args = parser.parse_args()

    if args.run_simctl:
        return run_simctl(args.run_simctl, steals=args.steals, rt=args.rt)
    if not args.trace:
        parser.error("either TRACE.json or --run-simctl is required")
    return check_file(args.trace, args.require_decisions, args.require_steals,
                      args.require_rt)


if __name__ == "__main__":
    sys.exit(main())
