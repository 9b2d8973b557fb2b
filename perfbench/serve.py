"""The serve-resubmit workload: one socket client against affsched_served.

The daemon (two simulation threads) starts on a fresh cache directory. The
client sends a seeded sequence of submissions in rounds, each waiting for
the previous reply (closed loop, one client):

  * two smoke grids (one replication) at new seeds, which miss every cell,
    so the daemon simulates and writes cache entries;
  * resubmits and respellings of this and earlier rounds' grids, which hit
    every cell and only read entries;
  * once per round, the first grid widened to the preset's two replications
    (a mixed submission: half hits), then that widened grid again (all hits).

Latency is timed from sending the request to the "done" event. Every
document is checked afterwards against an in-process SweepRunner run of the
same spec (perfbench_driver serve-verify).
"""

import json
import os
import random
import socket
import subprocess
import time

import stats
from cpus import CpuRotation, pin_process

HITS_PER_ROUND = 16
SETUP_PROBES = 15


class LineSocket:
    """Line-framed JSON over a Unix stream socket (src/serve/wire.h)."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        # A daemon that stops answering fails the run instead of hanging it.
        self.sock.settimeout(120)
        self.buffer = b""

    def send(self, obj):
        self.sock.sendall(json.dumps(obj).encode() + b"\n")

    def recv(self):
        while b"\n" not in self.buffer:
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return json.loads(line)

    def close(self):
        self.sock.close()


class Daemon:
    """An affsched_served process on a private socket and cache directory."""

    def __init__(self, served, root, work_dir, tag):
        os.makedirs(work_dir, exist_ok=True)
        self.root = root
        # Socket paths are limited to ~100 bytes, so bind relative to the
        # checkout root (the daemon's working directory).
        self.socket = os.path.relpath(os.path.join(work_dir, tag + ".sock"), root)
        self.cache_dir = os.path.join(work_dir, tag + "-cache")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [served, "--socket", self.socket, "--cache-dir", self.cache_dir, "--jobs", "2"],
            cwd=root, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        self.channel = None

    def connect(self, timeout_s=30.0):
        """Connects and pings; returns seconds from process start to pong."""
        deadline = time.perf_counter() + timeout_s
        path = os.path.join(self.root, self.socket)
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError("affsched_served exited with %d" % self.proc.returncode)
            try:
                self.channel = LineSocket(path)
                break
            except OSError:
                if time.perf_counter() > deadline:
                    raise
                # Start-up takes a few ms; poll finely so the wait adds little.
                time.sleep(0.0001)
        self.channel.send({"op": "ping"})
        if self.channel.recv().get("event") != "pong":
            raise RuntimeError("daemon did not answer ping")
        return time.perf_counter() - self.started

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1]) / 1024.0
        return 0.0

    def submit(self, spec):
        """Returns (latency_s, result event or None, error message or None)."""
        t0 = time.perf_counter()
        self.channel.send({"op": "submit", "spec": spec})
        result = None
        while True:
            event = self.channel.recv()
            kind = event.get("event")
            if kind == "error":
                return time.perf_counter() - t0, None, event.get("message", "error")
            if kind == "result":
                result = event
            if kind == "done":
                return time.perf_counter() - t0, result, None

    def stop(self):
        try:
            if self.channel is not None:
                self.channel.send({"op": "shutdown"})
                self.channel.recv()
                self.channel.close()
        except (OSError, ConnectionError, ValueError):
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def round_specs(rng, seed, index):
    """The submissions of one round, in send order: (spec, kind)."""
    fresh = [seed * 1000 + 2 * index, seed * 1000 + 2 * index + 1]
    hits = []
    for base in fresh:
        hits += [
            "smoke;reps=1;seed=%d" % base,
            "smoke;seed=%d;reps=1" % base,
            "seed=%d;policies=equi,dynamic,dyn-aff;mixes=1,5;reps=1" % base,
        ]
    if index > 0:
        hits.append("smoke;reps=1;seed=%d" % (seed * 1000 + rng.randrange(2 * index)))
    # The first fresh grid widened from one replication to the preset's two:
    # half its cells hit, half miss.
    widened = "smoke;seed=%d" % fresh[0]
    order = [("smoke;reps=1;seed=%d" % base, "miss") for base in fresh]
    for i in range(HITS_PER_ROUND):
        if i == HITS_PER_ROUND // 2:
            order.append((widened, "mixed"))
            hits.append(widened)
        order.append((rng.choice(hits), "hit"))
    return order


def per_cell_latency_ms(subs):
    """(all-miss, all-hit) submission latencies over cells, in ms."""
    ok = [s for s in subs if s["ok"]]
    miss = [1e3 * s["latency_s"] / s["cells"] for s in ok if s["hits"] == 0]
    hit = [1e3 * s["latency_s"] / s["cells"] for s in ok if s["hits"] == s["cells"]]
    return miss, hit


def doc_cells(doc):
    """(cells, jobs delivered, simulated seconds) of a sweep document."""
    cells = jobs = 0
    sim_s = 0.0
    for experiment in doc["experiments"]:
        n = len(experiment["cells"])
        cells += n
        jobs += n * len(experiment["jobs"])
        sim_s += sum(c["makespan_s"] for c in experiment["cells"])
    return cells, jobs, sim_s


def measure_setup(served, root, work_dir, rotation):
    """Daemon start-to-pong times, a fresh cache and the next CPU each."""
    times = []
    for i in range(SETUP_PROBES):
        os.sched_setaffinity(0, rotation.next())
        daemon = Daemon(served, root, work_dir, "setup%d" % i)
        try:
            times.append(daemon.connect())
        finally:
            daemon.stop()
    os.sched_setaffinity(0, rotation.all())
    return times


def run(served, driver, root, work_dir, seed, seconds, trace):
    """Runs the workload; returns a report dict shaped like perfbench_driver's."""
    rotation = CpuRotation()
    setup = measure_setup(served, root, work_dir, rotation)
    calib_before = json.loads(subprocess.check_output([driver, "calib"]))["calib_ms"]
    daemon = Daemon(served, root, work_dir, "main")
    rng = random.Random(seed)
    subs = []
    rounds_s = []
    errors = []
    check_failures = 0
    try:
        daemon.connect()
        deadline = time.perf_counter() + seconds
        index = 0
        while index == 0 or time.perf_counter() < deadline:
            r0 = time.perf_counter()
            for spec, kind in round_specs(rng, seed, index):
                # Each submission moves the daemon (two simulation threads)
                # and the client to the next CPUs in turn.
                placement = rotation.next(3)
                client_cpu = {min(placement)}
                pin_process(daemon.proc.pid, (placement - client_cpu) or placement)
                os.sched_setaffinity(0, client_cpu)
                latency, result, error = daemon.submit(spec)
                if error is not None:
                    errors.append("%s: %s" % (spec, error))
                    subs.append({"spec": spec, "kind": kind, "latency_s": latency, "ok": False})
                    continue
                doc_text = result["json"]
                cells, jobs, sim_s = doc_cells(json.loads(doc_text))
                subs.append({"spec": spec, "kind": kind, "latency_s": latency, "ok": True,
                             "cells": result["cells"], "hits": result["hits"],
                             "executed": result["executed"], "jobs": jobs, "sim_s": sim_s,
                             "doc": doc_text})
                if cells != result["cells"]:
                    check_failures += 1
                    errors.append("%s: document has %d cells, result says %d"
                                  % (spec, cells, result["cells"]))
            rounds_s.append(time.perf_counter() - r0)
            index += 1
        peak_rss = daemon.peak_rss_mb()
    finally:
        os.sched_setaffinity(0, rotation.all())
        daemon.stop()

    # Same spec text, same bytes; then each distinct spec against the
    # in-process runner.
    first = {}
    for s in subs:
        if not s["ok"]:
            continue
        if s["spec"] not in first:
            first[s["spec"]] = s["doc"]
        elif first[s["spec"]] != s["doc"]:
            check_failures += 1
            errors.append("resubmitted %s returned different bytes" % s["spec"])
    requests_path = os.path.join(work_dir, "requests.tsv")
    with open(requests_path, "w") as f:
        for i, (spec, doc) in enumerate(first.items()):
            doc_path = os.path.join(work_dir, "doc%d.json" % i)
            with open(doc_path, "w") as d:
                d.write(doc)
            f.write("%s\t%s\n" % (spec, doc_path))
    verify = json.loads(subprocess.check_output(
        [driver, "serve-verify", "--requests", requests_path, "--jobs", "3"]))
    errors.extend(verify["messages"])

    layers = {}
    if trace:
        specs_path = os.path.join(work_dir, "specs.txt")
        with open(specs_path, "w") as f:
            f.write("".join(spec + "\n" for spec in first))
        layers = json.loads(subprocess.check_output(
            [driver, "serve-replay", "--specs", specs_path, "--cache-dir", daemon.cache_dir,
             "--scratch", os.path.join(work_dir, "replay-cache")]))
        served_cells = sum(s["cells"] for s in subs if s["ok"])
        layers["serve.hit_frac"] = (sum(s["hits"] for s in subs if s["ok"]) / served_cells
                                    if served_cells else 0.0)
        miss_ms, hit_ms = per_cell_latency_ms(subs)
        layers["serve.miss_cell_ms_p50"] = stats.median(miss_ms) if miss_ms else 0.0
        layers["serve.hit_cell_ms_p50"] = stats.median(hit_ms) if hit_ms else 0.0
        # Nothing is wrapped inside the daemon: the replay runs after the
        # session, so tracing adds no work to it.
        layers["trace.overhead_ratio"] = 1.0
    calib_after = json.loads(subprocess.check_output([driver, "calib"]))["calib_ms"]

    failed_subs = sum(1 for s in subs if not s["ok"])
    return {
        "workload": "serve-resubmit",
        "seed": seed,
        "trace": 1 if trace else 0,
        "calib_ms": [calib_before, calib_after],
        "peak_rss_mb": peak_rss,
        "setup_s": setup,
        "submissions": [{k: v for k, v in s.items() if k != "doc"} for s in subs],
        "rounds_s": rounds_s,
        "attempted": len(subs),
        "failed": min(len(subs), failed_subs + verify["failed"] + check_failures),
        "messages": errors[:20],
        "layers": layers,
    }
