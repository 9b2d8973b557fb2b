#!/usr/bin/env python3
"""The simulator benchmark: host cost per cell on four workloads.

Usage (from the root of a checkout):
  python3 perfbench/run.py --workload fig5-flat --seed 1000 --seconds 20 --trace 0
  python3 perfbench/run.py --workload all --seed 4242
  python3 perfbench/run.py --self-test

The first run builds the simulator and the benchmark driver from source into
.bench_build/perfbench. Each run prints one line per metric (name, value,
unit, sample count), the raw per-cell samples and the calibration loop's
time, and, as its last line, one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 a traced pass gives the per-layer metrics instead. The exit code is
nonzero when an output check fails. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import serve  # noqa: E402
import stats  # noqa: E402
from cpus import CpuRotation  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ["fig5-flat", "mq-numa-observed", "open-stream", "serve-resubmit"]
SETUP_PROBES = 15


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(targets):
    """Configures (once) and builds the benchmark's targets; exits on failure."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no simulator sources next to perfbench/ (expected src/)")
        sys.exit(2)
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure + generator, stdout=sys.stderr).returncode != 0:
            log("perfbench: cmake configure failed")
            sys.exit(2)
    command = ["cmake", "--build", BUILD_DIR, "-j", "4", "--target"] + targets
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        log("perfbench: build failed")
        sys.exit(2)


def binary(name):
    return os.path.join(BUILD_DIR, name)


def setup_times(workload, seed):
    """Process start to the first cell starting, over fresh processes."""
    times = []
    rotation = CpuRotation()
    for _ in range(SETUP_PROBES):
        os.sched_setaffinity(0, rotation.next())  # the probe inherits it
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [binary("perfbench_driver"), "run", "--workload", workload, "--seed", str(seed),
             "--probe-setup"], cwd=ROOT, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        times.append(time.perf_counter() - t0)
        proc.stdout.close()
        proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe for %s failed" % workload)
    os.sched_setaffinity(0, rotation.all())
    return times


def run_driver(workload, seed, seconds, trace):
    out = subprocess.run(
        [binary("perfbench_driver"), "run", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1" if trace else "0",
         "--golden-dir", os.path.join(ROOT, "tests", "golden"), "--out-dir", OUT_DIR],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        raise RuntimeError("perfbench_driver failed on %s" % workload)
    return json.loads(out.stdout)


def simulating_metrics(report):
    """End-to-end metrics of a fig5-flat / mq-numa-observed / open-stream run."""
    cells = report["cells"]
    ms = [c[0] for c in cells]
    host_s = [c[0] / 1e3 for c in cells]
    hits = report["hit_ms_per_cell"]
    return {
        "setup_s": (stats.median(report["setup_s"]), len(report["setup_s"])),
        "peak_rss_mb": (report["peak_rss_mb"], 1),
        "cell_ms_p50": (stats.median(ms), len(ms)),
        "cell_ms_p90": (stats.tail(ms, 0.9), len(ms)),
        "sim_s_per_host_s": (stats.median([c[1] / h for c, h in zip(cells, host_s)]), len(ms)),
        "jobs_per_host_s": (sum(c[2] for c in cells) / sum(host_s), len(ms)),
        "hit_cell_ms_p50": (stats.median(hits), len(hits)),
        "hit_cell_ms_p90": (stats.tail(hits, 0.9), len(hits)),
        "pass_s": (stats.median(report["passes_s"]) if report["passes_s"] else None,
                   len(report["passes_s"])),
    }


def serve_metrics(report):
    """End-to-end metrics of a serve-resubmit run."""
    ok = [s for s in report["submissions"] if s["ok"]]
    miss = [s for s in ok if s["hits"] == 0]
    miss_ms, hit_ms = serve.per_cell_latency_ms(ok)
    return {
        "setup_s": (stats.median(report["setup_s"]), len(report["setup_s"])),
        "peak_rss_mb": (report["peak_rss_mb"], 1),
        "cell_ms_p50": (stats.median(miss_ms), len(miss_ms)),
        "cell_ms_p90": (stats.tail(miss_ms, 0.9), len(miss_ms)),
        "sim_s_per_host_s": (stats.median([s["sim_s"] / s["latency_s"] for s in miss]),
                             len(miss)),
        "jobs_per_host_s": (sum(s["jobs"] for s in ok) / sum(s["latency_s"] for s in ok),
                            len(ok)),
        "hit_cell_ms_p50": (stats.median(hit_ms), len(hit_ms)),
        "hit_cell_ms_p90": (stats.tail(hit_ms, 0.9), len(hit_ms)),
        "pass_s": (stats.median(report["rounds_s"]), len(report["rounds_s"])),
        "miss_cell_ms_p50": (stats.median(miss_ms), len(miss_ms)),
        "miss_cell_ms_p90": (stats.tail(miss_ms, 0.9), len(miss_ms)),
    }


# Units of the metrics printed beside the gated ones.
EXTRA_UNITS = {"cell_ms_p90": "ms", "hit_cell_ms_p50": "ms", "hit_cell_ms_p90": "ms",
               "pass_s": "s", "miss_cell_ms_p50": "ms", "miss_cell_ms_p90": "ms",
               "failed_frac": "ratio"}


def run_workload(spec, workload, seed, seconds, trace):
    """Runs one workload; prints its report lines; returns the result object."""
    os.makedirs(OUT_DIR, exist_ok=True)
    if workload == "serve-resubmit":
        work_dir = os.path.join(OUT_DIR, "serve-%d-%d" % (seed, os.getpid()))
        shutil.rmtree(work_dir, ignore_errors=True)
        report = serve.run(binary("affsched_served"), binary("perfbench_driver"), ROOT,
                           work_dir, seed, seconds, trace)
        shutil.rmtree(work_dir, ignore_errors=True)
        values = serve_metrics(report) if not trace else {}
    else:
        setup = [] if trace else setup_times(workload, seed)
        report = run_driver(workload, seed, seconds, trace)
        report["setup_s"] = setup
        values = simulating_metrics(report) if not trace else {}

    attempted = max(1, int(report["attempted"]))
    failed = int(report["failed"])
    values["failed_frac"] = (failed / attempted, attempted)
    raw_path = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json" % (workload, seed, int(trace)))
    with open(raw_path, "w") as f:
        json.dump(report, f)

    print("== %s seed=%d trace=%d" % (workload, seed, int(trace)))
    print("host.calib_ms %s ms (fixed loop before, after)"
          % " ".join("%.3f" % c for c in report["calib_ms"]))
    for message in report.get("messages", []):
        print("check failed: %s" % message)
    if report.get("golden", "none") != "none":
        print("golden document: %s" % report["golden"])
    metrics = {}
    if trace:
        layers = report.get("layers", {})
        layers["host.calib_ms"] = stats.median(report["calib_ms"])
        for m in spec["per_layer"]:
            value = float(layers.get(m["name"], 0.0))
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print("%-36s %14.6g %s" % (m["name"], value, m["unit"]))
        for layer, (count, self_ms) in sorted(report.get("self_ms", {}).items()):
            if count:
                print("self time %-26s %12.3f ms over %d spans" % (layer, self_ms, count))
        if report.get("spans"):
            print("spans: %s (%d kept, %d past the cap)"
                  % (report["spans"], report["spans_kept"], report["spans_dropped"]))
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        units.update(EXTRA_UNITS)
        for name, (value, count) in values.items():
            if value is not None:
                shown = "%.6g" % value
            elif name == "pass_s":
                shown = "n/a (no pass completed)"
            else:
                shown = "n/a (fewer than 10 samples beyond)"
            print("%-20s %s %s (n=%d)" % (name, shown, units[name], count))
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]][0], "unit": m["unit"]}
        if "cells" in report:
            print("raw cell_ms: %s" % " ".join("%.3f" % c[0] for c in report["cells"]))
    print("raw report: %s" % os.path.relpath(raw_path, ROOT))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def self_test():
    build(["perfbench_selftest"])
    code = subprocess.run([binary("perfbench_selftest")], cwd=ROOT).returncode
    code |= subprocess.run([sys.executable, "-m", "unittest", "discover", "-s", HERE, "-p",
                            "test_*.py"], cwd=ROOT).returncode
    return 0 if code == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    build(["perfbench_driver", "affsched_served"])
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = [run_workload(spec, w, args.seed, seconds, bool(args.trace)) for w in workloads]
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {"%s/%s" % (w, k): v for w, r in zip(workloads, results)
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
