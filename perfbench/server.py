"""Traced service launcher: ``python -m repro.service`` plus the benchmark's spans.

Installs the span wrappers of :mod:`spans` in this process, builds the same
registry ``python -m repro.service --data-dir`` builds (restoring what the
directory holds, with the tracing shim on its ``durability_shim`` seam),
serves on the given port until SIGINT or SIGTERM, and writes the spans to
``--trace-out`` on the way out.  No program file changes.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
import os

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from util import require_source  # noqa: E402

require_source()

from spans import Recorder, install, traced_shim  # noqa: E402


async def _serve(args, recorder: Recorder) -> None:
    from repro.service import ServiceApp, SessionRegistry, serve

    registry = SessionRegistry(persist_root=args.data_dir)
    registry.durability_shim = traced_shim(recorder)
    app = ServiceApp(registry)
    await registry.restore_all()
    server, app = await serve(app, host=args.host, port=args.port)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, stop.set)
    print("repro serving on", [sock.getsockname() for sock in server.sockets], flush=True)
    try:
        await stop.wait()
    finally:
        server.close()
        app.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--id-base", type=int, default=10**9)
    args = parser.parse_args()
    recorder = Recorder(args.id_base)
    install(recorder)
    try:
        asyncio.run(_serve(args, recorder))
    finally:
        recorder.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
