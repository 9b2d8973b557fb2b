#!/usr/bin/env python3
"""Check tools/affsched_report.py against the committed golden documents.

Usage: tools/affsched_report_test.py

Runs `summary` on every tests/golden/*.json and `diff` of each golden
against itself, and fails unless:
  * every run exits 0;
  * no vs-equi ratio in a closed golden exceeds 1.10, or 2.0 in the mq
    golden, whose queues trade response for locality;
  * every closed sweep renders the Table 3 columns and the per-policy table;
  * the steal columns appear on the mq golden and on no other;
  * the real-time block appears on the rt golden and on no other.
Then diffs edited golden copies: each gate must fail its own edit (a
changed seed, a ratio drifting beyond --threshold, an extra mix, a failed
Little's-law cell, a changed open jobs_per_cell, a --subset slice with a
policy the baseline lacks), and a one-policy slice of the mq golden must
pass --subset. Runs no simulation. Stdlib only.
"""

import json
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
REPORT = ROOT / "tools" / "affsched_report.py"
GOLDEN = ROOT / "tests" / "golden"

TABLE3_COLUMNS = ("aff %", "reallocs", "interval (ms)")
PER_POLICY_TABLE = "vs equi range"
STEAL_COLUMNS = "steals c/n/x"
RT_BLOCK = "real-time ("
STEAL_GOLDEN = "sweep_mq_seed1000.json"
RT_GOLDEN = "sweep_rt_seed1000.json"
SMOKE_GOLDEN = "sweep_smoke_seed1000.json"
OPEN_GOLDEN = "open_smoke_rho700.json"


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

    doc = load(path)
    if doc.get("schema_version") in (1, 3):
        for marker in TABLE3_COLUMNS + (PER_POLICY_TABLE,):
            if marker not in out:
                failures.append(f"summary {name}: no {marker!r}")
        bound = 2.0 if name == STEAL_GOLDEN else 1.10
        worst = max((r["ratio"] for r in doc.get("relative_response", [])), default=0.0)
        if worst > bound:
            failures.append(f"{name}: vs-equi ratio {worst} exceeds {bound}")
    for marker, owner in ((STEAL_COLUMNS, STEAL_GOLDEN), (RT_BLOCK, RT_GOLDEN)):
        if (marker in out) != (name == owner):
            failures.append(f"summary {name}: {marker!r} "
                            f"{'missing' if name == owner else 'unexpected'}")

    diff = report("diff", str(path), str(path))
    if diff.returncode != 0:
        failures.append(f"diff {name} against itself exited "
                        f"{diff.returncode}: {diff.stderr.strip()}")
    return failures


def load(path):
    with open(path) as f:
        return json.load(f)


def mq_slice(doc, *policies):
    """Cuts the mq golden down to `policies`, as `mq;steal=...` writes it:
    without Equipartition in the grid there are no vs-equi ratios."""
    doc["experiments"] = [e for e in doc["experiments"] if e["policy"] in policies]
    del doc["relative_response"]
    doc["spec"]["policies"] = list(policies)


def check_gates(tmp):
    """Returns the failures of the diff gates on edited golden copies."""
    def edit(name, golden, change):
        doc = load(GOLDEN / golden)
        change(doc)
        out = tmp / f"{name}.json"
        out.write_text(json.dumps(doc))
        return str(out)

    smoke, mq, opened = (str(GOLDEN / g) for g in (SMOKE_GOLDEN, STEAL_GOLDEN, OPEN_GOLDEN))
    littles = edit("littles", OPEN_GOLDEN,
                   lambda d: d["cells"][0]["littles_law"].update(ok=False))
    # (case, diff arguments, exit code, text the output must hold). The edits
    # that break the grid leave every value alone, the ratio edit leaves the
    # grid alone, and the Little's-law copy is diffed against itself, so each
    # case fails its own gate and no other.
    cases = [
        ("changed root seed",
         [edit("seed", SMOKE_GOLDEN, lambda d: d["spec"].update(root_seed=1001)), smoke],
         1, "grid mismatch"),
        ("ratio drifting beyond --threshold",
         [edit("ratio", SMOKE_GOLDEN, lambda d: d["relative_response"][0].update(ratio=1.2)),
          smoke],
         1, "% drift)"),
        ("extra mix",
         [edit("mix", SMOKE_GOLDEN, lambda d: d["spec"]["mixes"].append(7)), smoke],
         1, "grid mismatch"),
        ("open cell failing Little's law", [littles, littles], 1, "Little's law fails"),
        ("changed open jobs_per_cell",
         [edit("jobs", OPEN_GOLDEN, lambda d: d["spec"].update(jobs_per_cell=13)), opened],
         1, "grid mismatch"),
        ("--subset policy the baseline lacks",
         ["--subset", edit("extra_policy", STEAL_GOLDEN,
                           lambda d: mq_slice(d, "mq-numa", "dyn-aff")), mq],
         1, "grid mismatch (--subset)"),
        ("one-policy mq slice",
         ["--subset", edit("slice", STEAL_GOLDEN, lambda d: mq_slice(d, "mq-numa")), mq],
         0, "OK:"),
    ]
    failures = []
    for case, args, want, marker in cases:
        diff = report("diff", *args)
        if diff.returncode != want or marker not in diff.stdout + diff.stderr:
            failures.append(f"diff on {case} exited {diff.returncode} (want {want} "
                            f"with {marker!r}): {diff.stderr.strip()}")
    return failures


def main():
    goldens = sorted(GOLDEN.glob("*.json"))
    names = {path.name for path in goldens}
    failures = [f"{owner} not found in {GOLDEN}"
                for owner in (STEAL_GOLDEN, RT_GOLDEN) if owner not in names]
    for path in goldens:
        failures += check(path)
    with tempfile.TemporaryDirectory() as tmp:
        failures += check_gates(pathlib.Path(tmp))
    if failures:
        print(f"FAIL: {len(failures)} problem(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"OK: summary and self-diff on {len(goldens)} golden documents; "
          "every diff gate fails its edited copy")
    return 0


if __name__ == "__main__":
    sys.exit(main())
