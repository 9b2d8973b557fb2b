#!/usr/bin/env python3
"""Check tools/affsched_report.py against the committed golden documents.

Usage: tools/affsched_report_test.py

Runs `summary` on every tests/golden/*.json and `diff` of each golden
against itself, and fails unless:
  * every run exits 0;
  * every closed sweep renders the Table 3 columns and the per-policy table;
  * the steal columns appear on the mq golden and on no other;
  * the real-time block appears on the rt golden and on no other.
Runs no simulation. Stdlib only.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
REPORT = ROOT / "tools" / "affsched_report.py"
GOLDEN = ROOT / "tests" / "golden"

TABLE3_COLUMNS = ("aff %", "reallocs", "interval (ms)")
PER_POLICY_TABLE = "vs equi range"
STEAL_COLUMNS = "steals c/n/x"
RT_BLOCK = "real-time ("
STEAL_GOLDEN = "sweep_mq_seed1000.json"
RT_GOLDEN = "sweep_rt_seed1000.json"


def report(*args):
    return subprocess.run([sys.executable, str(REPORT), *args],
                          capture_output=True, text=True)


def check(path):
    """Returns the failures for one golden document."""
    name = path.name
    failures = []
    summary = report("summary", str(path))
    if summary.returncode != 0:
        return [f"summary {name} exited {summary.returncode}: {summary.stderr.strip()}"]
    out = summary.stdout

    with open(path) as f:
        closed = json.load(f).get("schema_version") in (1, 3)
    if closed:
        for marker in TABLE3_COLUMNS + (PER_POLICY_TABLE,):
            if marker not in out:
                failures.append(f"summary {name}: no {marker!r}")
    for marker, owner in ((STEAL_COLUMNS, STEAL_GOLDEN), (RT_BLOCK, RT_GOLDEN)):
        if (marker in out) != (name == owner):
            failures.append(f"summary {name}: {marker!r} "
                            f"{'missing' if name == owner else 'unexpected'}")

    diff = report("diff", str(path), str(path))
    if diff.returncode != 0:
        failures.append(f"diff {name} against itself exited {diff.returncode}")
    return failures


def main():
    goldens = sorted(GOLDEN.glob("*.json"))
    names = {path.name for path in goldens}
    failures = [f"{owner} not found in {GOLDEN}"
                for owner in (STEAL_GOLDEN, RT_GOLDEN) if owner not in names]
    for path in goldens:
        failures += check(path)
    if failures:
        print(f"FAIL: {len(failures)} problem(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"OK: summary and self-diff on {len(goldens)} golden documents")
    return 0


if __name__ == "__main__":
    sys.exit(main())
