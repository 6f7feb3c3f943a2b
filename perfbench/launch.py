"""Run the ``repro`` CLI with layer spans recorded in every server process.

Usage::

    python3 perfbench/launch.py SPANS_DIR -- serve tcp --port 8472 ...

The wrappers go in before the CLI entry point runs, so the server is the
unmodified program.  Sharded workers are forked from this process and
inherit the wrappers; each one starts with an empty span list and writes
its spans from a SIGTERM handler, because ``ShardedServer.stop()`` ends
workers with SIGTERM.  The main process writes its spans when the CLI
returns (after SIGINT).
"""

from __future__ import annotations

import os
import signal
import sys
from typing import List

import spans


def main(argv: List[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: launch.py SPANS_DIR -- <repro arguments>", file=sys.stderr)
        return 2
    spans_dir, cli_args = argv[0], argv[2:]
    recorder = spans.SpanRecorder()
    spans.install(recorder)

    import repro.serve.shard
    from repro import cli

    worker_main = repro.serve.shard._worker_main

    def traced_worker_main(index: int, *args: object) -> None:
        path = os.path.join(spans_dir, f"worker{index}.json")
        recorder.reset()

        def on_sigterm(_signum: int, _frame: object) -> None:
            recorder.dump(path, f"worker{index}")
            os._exit(0)

        signal.signal(signal.SIGTERM, on_sigterm)
        worker_main(index, *args)
        recorder.dump(path, f"worker{index}")

    # ShardedServer.start() looks the worker target up at call time.
    repro.serve.shard._worker_main = traced_worker_main
    try:
        return cli.main(cli_args)
    finally:
        recorder.dump(os.path.join(spans_dir, "server.json"), "server")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
