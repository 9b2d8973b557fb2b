#!/usr/bin/env python3
"""Integration tests for the affsched_served sweep daemon.

Three scenarios, each driving the real daemon binary through the real
reference client (tools/affsched_client.py), so the wire protocol, the
content-addressed cache, and the crash recovery path are all exercised end
to end:

  cache-twice   Submit the same spec twice against a fresh cache: the second
                run must be >= 95% cache hits and its saved document byte-
                identical to the first (and to `simctl --sweep` when
                --simctl is given).

  kill-resume   Run the sweep once uninterrupted for a golden document. Then
                start a throttled daemon on a fresh cache, SIGKILL it after
                some cells have checkpointed, restart on the same cache, and
                resubmit: the completed cells must carry over as hits, only
                the missing ones re-simulate, and the final document must be
                byte-identical to the golden.

  hostile-spec  Submit specs carrying non-finite or absurd numbers, or sizes
                that cannot fit in memory: each must come back as an "error"
                event. On one raw connection, send a line that is not JSON,
                an object without "op" and an unknown op (each must get an
                "error" event), then a valid submit that must get its result.
                Stream 2 MiB with no newline: the daemon must answer "error"
                and close that connection, and a valid submit on a new
                connection must get its result. Then a client submits and
                hangs up after "planned": the daemon must finish and cache
                that sweep, so the same spec resubmitted on a new connection
                is all cache hits.

Usage:
  tools/serve_integration_test.py --served BIN --mode cache-twice \
      [--simctl BIN] [--client tools/affsched_client.py] [--spec SPEC]
"""

import argparse
import json
import os
import pathlib
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time

DEFAULT_SPEC = "smoke;reps=2"


class Harness:
    def __init__(self, args, workdir):
        self.args = args
        self.workdir = pathlib.Path(workdir)
        self.procs = []

    def path(self, name):
        return str(self.workdir / name)

    def start_daemon(self, *extra, socket_name="daemon.sock", cache="cache"):
        cmd = [self.args.served, "--socket", self.path(socket_name),
               "--cache-dir", self.path(cache), "--jobs", "2"] + list(extra)
        proc = subprocess.Popen(cmd, stderr=subprocess.PIPE)
        self.procs.append(proc)
        self.wait_for_socket(self.path(socket_name), proc)
        return proc

    def wait_for_socket(self, path, proc, timeout=30.0):
        deadline = time.time() + timeout
        while time.time() < deadline:
            if os.path.exists(path):
                return
            if proc.poll() is not None:
                fail("daemon exited before listening: %s" % proc.stderr.read().decode())
            time.sleep(0.05)
        fail("daemon socket %s never appeared" % path)

    def client(self, socket_name, *argv, check=True):
        cmd = [sys.executable, self.args.client, "--socket", self.path(socket_name)] + list(argv)
        result = subprocess.run(cmd, capture_output=True, text=True)
        if check and result.returncode != 0:
            fail("client %s failed:\n%s\n%s" % (argv, result.stdout, result.stderr))
        return result

    def connect(self, socket_name):
        """A raw line-oriented connection to the daemon, for requests the
        reference client never sends."""
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(self.path(socket_name))
        return RawConnection(sock)

    def submit(self, socket_name, out_name, spec=None):
        """Submits and returns the summary dict {cells, hits, executed}."""
        result = self.client(socket_name, "submit", spec or self.args.spec,
                             "--quiet", "--out", self.path(out_name))
        return json.loads(result.stdout.strip().splitlines()[-1])

    def shutdown(self, socket_name):
        self.client(socket_name, "shutdown")

    def cleanup(self):
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


class RawConnection:
    def __init__(self, sock):
        self.sock = sock
        self.stream = sock.makefile("rw", encoding="utf-8", newline="\n")

    def send_line(self, line):
        try:
            self.stream.write(line + "\n")
            self.stream.flush()
        except OSError as e:
            fail("sending %r to the daemon failed: %s" % (line, e))

    def next_event(self):
        try:
            line = self.stream.readline()
        except OSError as e:
            fail("reading from the daemon failed: %s" % e)
        if not line:
            fail("daemon closed the connection")
        return json.loads(line)

    def close(self):
        self.stream.close()
        self.sock.close()


def fail(message):
    print("FAIL: %s" % message, file=sys.stderr)
    sys.exit(1)


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def cell_count(cache_dir):
    if not os.path.isdir(cache_dir):
        return 0
    return sum(1 for name in os.listdir(cache_dir) if name.endswith(".cell"))


def batch_golden(harness, out_name):
    """Runs `simctl --sweep` for the same spec; returns the document bytes."""
    out = harness.path(out_name)
    subprocess.run([harness.args.simctl, "--sweep=" + harness.args.spec,
                    "--jobs=2", "--out=" + out],
                   check=True, capture_output=True)
    return read_bytes(out)


def mode_cache_twice(harness):
    harness.start_daemon()
    first = harness.submit("daemon.sock", "r1.json")
    if first["hits"] != 0:
        fail("fresh cache reported hits: %s" % first)
    second = harness.submit("daemon.sock", "r2.json")
    if second["cells"] == 0 or second["hits"] < 0.95 * second["cells"]:
        fail("resubmission not served from cache: %s" % second)
    stats = json.loads(harness.client("daemon.sock", "stats").stdout)
    harness.shutdown("daemon.sock")
    r1, r2 = read_bytes(harness.path("r1.json")), read_bytes(harness.path("r2.json"))
    if r1 != r2:
        fail("resubmission document differs from first run")
    if harness.args.simctl:
        if r1 != batch_golden(harness, "batch.json"):
            fail("served document differs from simctl --sweep")
    print("cache-twice: %d/%d cells from cache, documents byte-identical"
          % (second["hits"], second["cells"]))
    print(json.dumps(stats["cache"]))


def mode_kill_resume(harness):
    # Golden, uninterrupted run on its own cache.
    harness.start_daemon(socket_name="golden.sock", cache="cache-golden")
    golden_summary = harness.submit("golden.sock", "golden.json")
    harness.shutdown("golden.sock")
    golden = read_bytes(harness.path("golden.json"))
    total = golden_summary["cells"]

    # Throttled run on a fresh cache, killed after some cells checkpoint.
    daemon = harness.start_daemon("--cell-delay-ms", "200",
                                  socket_name="victim.sock", cache="cache")
    victim = subprocess.Popen(
        [sys.executable, harness.args.client, "--socket", harness.path("victim.sock"),
         "submit", harness.args.spec, "--quiet"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    harness.procs.append(victim)
    deadline = time.time() + 60
    while cell_count(harness.path("cache")) < 3:
        if time.time() > deadline:
            fail("no cells checkpointed before the kill window")
        if daemon.poll() is not None:
            fail("daemon exited before it could be killed")
        time.sleep(0.02)
    daemon.send_signal(signal.SIGKILL)
    daemon.wait()
    victim.wait()
    survivors = cell_count(harness.path("cache"))
    if survivors == 0 or survivors >= total:
        fail("kill window missed: %d/%d cells survived" % (survivors, total))

    # Resume on the surviving cache: only the missing cells may re-simulate.
    harness.start_daemon(socket_name="resume.sock", cache="cache")
    resumed = harness.submit("resume.sock", "resumed.json")
    harness.shutdown("resume.sock")
    if resumed["hits"] < survivors:
        fail("resume re-simulated checkpointed cells: %d survivors, summary %s"
             % (survivors, resumed))
    if resumed["executed"] != total - resumed["hits"]:
        fail("resume cell accounting off: %s (total %d)" % (resumed, total))
    if read_bytes(harness.path("resumed.json")) != golden:
        fail("resumed document differs from uninterrupted golden")
    print("kill-resume: %d/%d cells survived the kill, %d re-simulated, "
          "document matches golden" % (survivors, total, resumed["executed"]))


def submit_valid(conn, after):
    """Submits a one-rep smoke sweep on `conn`; it must get a non-empty result."""
    conn.send_line(json.dumps({"op": "submit", "spec": "smoke;reps=1"}))
    while True:
        event = conn.next_event()
        if event.get("event") == "error":
            fail("valid submit after %s failed: %s" % (after, event))
        if event.get("event") == "result":
            break
    if event["cells"] == 0:
        fail("valid submit after %s returned no cells: %s" % (after, event))


def mode_hostile_spec(harness):
    daemon = harness.start_daemon()

    def check_alive(after):
        if daemon.poll() is not None:
            fail("daemon exited after %s" % after)

    for spec in ("smoke;speed=nan", "smoke;cache=nan", "smoke;topology=numa-4x8,remote=nan",
                 "smoke;reps=1;speed=1e-300", "smoke;reps=1;speed=1e300",
                 "smoke;reps=1000000000", "smoke;procs=1000000000"):
        # Rejected while parsing, before the daemon allocates anything for it.
        result = harness.client("daemon.sock", "submit", spec, "--quiet", check=False)
        if result.returncode == 0 or "server error: bad spec:" not in result.stderr:
            fail("%s was not rejected as a bad spec:\n%s" % (spec, result.stderr))
        check_alive(spec)

    # Malformed requests among valid ones, all on one connection.
    conn = harness.connect("daemon.sock")
    for line in ("this is not json", '{"spec":"smoke"}', '{"op":"frobnicate"}'):
        conn.send_line(line)
        event = conn.next_event()
        if event.get("event") != "error":
            fail("request %r was answered with %s" % (line, event))
    submit_valid(conn, "malformed requests")
    conn.close()
    check_alive("malformed requests")

    # 2 MiB with no newline: the daemon stops reading at 1 MiB, answers
    # "error" and closes the connection.
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(30)  # a daemon that waits for the newline fails, not hangs
    sock.connect(harness.path("daemon.sock"))
    try:
        sock.sendall(b"x" * (2 << 20))
    except OSError:
        pass  # the daemon closed the connection mid-line, as it should
    try:
        reply = sock.makefile("r", encoding="utf-8").readline()
    except OSError as e:
        fail("no answer to a 2 MiB unterminated line: %s" % e)
    sock.close()
    if not reply or json.loads(reply).get("event") != "error":
        fail("a 2 MiB unterminated line was answered with %r" % reply)
    check_alive("a 2 MiB unterminated line")
    conn = harness.connect("daemon.sock")
    submit_valid(conn, "a 2 MiB unterminated line")
    conn.close()

    # A client that hangs up mid-stream: the daemon keeps serving and still
    # finishes the abandoned sweep into the cache. Adaptive reps give the
    # sweep two rounds, so a daemon that stopped at the hang-up would leave
    # the second round's cells unsimulated.
    abandoned = "smoke;reps=1-2;seed=11"
    conn = harness.connect("daemon.sock")
    conn.send_line(json.dumps({"op": "submit", "spec": abandoned}))
    event = conn.next_event()
    if event.get("event") != "planned":
        fail("submit did not start with a planned event: %s" % event)
    conn.close()
    summary = harness.submit("daemon.sock", "resubmit.json", spec=abandoned)
    check_alive("a client hung up mid-stream")
    harness.shutdown("daemon.sock")
    if summary["cells"] == 0 or summary["hits"] != summary["cells"]:
        fail("abandoned sweep was not finished into the cache: %s" % summary)
    print("hostile-spec: hostile specs, malformed requests and an over-long line rejected, "
          "abandoned sweep cached (%d/%d hits on resubmit)" % (summary["hits"], summary["cells"]))


MODES = {
    "cache-twice": mode_cache_twice,
    "kill-resume": mode_kill_resume,
    "hostile-spec": mode_hostile_spec,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--served", required=True, help="affsched_served binary")
    parser.add_argument("--simctl", help="simctl binary (enables batch golden comparison)")
    parser.add_argument("--client",
                        default=str(pathlib.Path(__file__).parent / "affsched_client.py"),
                        help="reference client script")
    parser.add_argument("--mode", required=True, choices=sorted(MODES))
    parser.add_argument("--spec", default=DEFAULT_SPEC, help="sweep spec to submit")
    args = parser.parse_args()

    workdir = tempfile.mkdtemp(prefix="affserve-%s-" % args.mode)
    harness = Harness(args, workdir)
    try:
        MODES[args.mode](harness)
        print("PASS: %s" % args.mode)
        return 0
    finally:
        harness.cleanup()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
