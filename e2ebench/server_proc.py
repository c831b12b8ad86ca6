"""The serve-paper server process: ``anyopt serve`` as a user starts
it, plus a hook that reports the bound port and, at exit, what the
server retained.  With ``--spans`` the serving layers are wrapped in
spans (see spans.py) and written out at exit.

    python3 e2ebench/server_proc.py --snapshot S.snap --info INFO.json [--spans S.npz]

The benchmark stops it with SIGTERM, which ``anyopt serve`` answers
with a graceful drain.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.cli import main as anyopt  # noqa: E402
from repro.serve.http import ModelServer  # noqa: E402

from spans import SpanRecorder, instrument  # noqa: E402


def _write_json(path, doc):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh)
    os.replace(tmp, path)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--snapshot", required=True)
    parser.add_argument("--info", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    recorder = None
    if args.spans:
        recorder = SpanRecorder()
        instrument(recorder, serve_only=True)

    servers = []
    original_start = ModelServer.start

    async def start(server):
        await original_start(server)
        servers.append(server)
        _write_json(args.info + ".port", {"port": server.port})

    ModelServer.start = start
    code = anyopt(["serve", "--snapshot", args.snapshot, "--port", "0"])

    info = {"spans_retained": sum(s.tracer.finished_count for s in servers)}
    if recorder is not None:
        info["summary"] = recorder.summary()
        recorder.write(args.spans)
    _write_json(args.info, info)
    return code


if __name__ == "__main__":
    sys.exit(main())
