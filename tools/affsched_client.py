#!/usr/bin/env python3
"""Reference client for the affsched_served sweep daemon.

The wire protocol is line-delimited JSON over a Unix-domain stream socket
(see src/serve/wire.h). This client is the protocol's executable
documentation: everything it does fits in a screenful, and anything it can
do, any language with sockets and a JSON library can do too.

Usage:
  tools/affsched_client.py --socket /tmp/aff.sock ping
  tools/affsched_client.py --socket /tmp/aff.sock submit "smoke;reps=2" \
      [--out result.json] [--quiet]
  tools/affsched_client.py --socket /tmp/aff.sock stats
  tools/affsched_client.py --socket /tmp/aff.sock shutdown

`submit` streams the daemon's per-cell events to stderr and exits 0 only on
a terminal "done" event. With --out, the embedded result document — byte-
identical to `simctl --sweep` output for the same spec — is saved verbatim.
`submit` prints one summary JSON object to stdout:
  {"cells": N, "hits": N, "executed": N}
"""

import argparse
import json
import socket
import sys


class LineSocket:
    """Blocking line-framed JSON over a connected socket."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.buffer = b""

    def send(self, obj):
        self.sock.sendall(json.dumps(obj).encode() + b"\n")

    def recv(self):
        """Returns the next decoded JSON line, or None on EOF."""
        while b"\n" not in self.buffer:
            chunk = self.sock.recv(65536)
            if not chunk:
                if self.buffer:
                    line, self.buffer = self.buffer, b""
                    return json.loads(line)
                return None
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return json.loads(line)

    def close(self):
        self.sock.close()


def one_shot(channel, request, expect_event):
    channel.send(request)
    event = channel.recv()
    if event is None:
        print("daemon closed the connection", file=sys.stderr)
        return 1
    print(json.dumps(event))
    return 0 if event.get("event") == expect_event else 1


def submit(channel, args):
    channel.send({"op": "submit", "spec": args.spec})
    summary = None
    while True:
        event = channel.recv()
        if event is None:
            print("daemon closed the connection before done", file=sys.stderr)
            return 1
        kind = event.get("event")
        if kind == "error":
            print("server error: %s" % event.get("message"), file=sys.stderr)
            return 1
        if kind in ("planned", "cell") and not args.quiet:
            print(json.dumps(event), file=sys.stderr)
        if kind == "result":
            summary = {k: event.get(k, 0) for k in ("cells", "hits", "executed")}
            if args.out:
                with open(args.out, "w") as f:
                    f.write(event["json"])
        if kind == "done":
            if summary is None:
                print("done arrived without a result event", file=sys.stderr)
                return 1
            print(json.dumps(summary))
            return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--socket", required=True, help="daemon Unix socket path")
    sub = parser.add_subparsers(dest="op", required=True)
    p_submit = sub.add_parser("submit", help="run a sweep spec via the daemon")
    p_submit.add_argument("spec", help="sweep spec string (same syntax as simctl --sweep)")
    p_submit.add_argument("--out", help="save the result JSON document here")
    p_submit.add_argument("--quiet", action="store_true", help="suppress per-cell events")
    sub.add_parser("stats", help="print cache/service counters")
    sub.add_parser("ping", help="liveness check")
    sub.add_parser("shutdown", help="stop the daemon")
    args = parser.parse_args()

    channel = LineSocket(args.socket)
    try:
        if args.op == "submit":
            return submit(channel, args)
        expect = {"stats": "stats", "ping": "pong", "shutdown": "bye"}[args.op]
        return one_shot(channel, {"op": args.op}, expect)
    finally:
        channel.close()


if __name__ == "__main__":
    sys.exit(main())
