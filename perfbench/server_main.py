"""Run the routing service for the benchmark, optionally traced.

    python3 perfbench/server_main.py [--trace-out FILE]

Starts ``repro.serve.RoutingServer`` with its default configuration on
an ephemeral port and prints ``listening on http://HOST:PORT``, as
``repro-wasn serve --port 0`` does.  SIGINT or SIGTERM stops it (the
handlers are the event loop's own, so the signal wakes the loop at once
whichever thread it lands on), and so does end of file on standard
input, which the benchmark holds open: a server never outlives it.

With ``--trace-out`` the layer wrappers of ``spans.py`` are installed
before the server starts, and the spans are written to FILE after it
has stopped.  Without it the server runs untouched.
"""

from __future__ import annotations

import asyncio
import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


async def serve() -> None:
    from repro.serve import RoutingServer, ServerConfig

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, stop.set)

    def on_input() -> None:
        if not os.read(sys.stdin.fileno(), 4096):
            loop.remove_reader(sys.stdin.fileno())
            stop.set()

    loop.add_reader(sys.stdin.fileno(), on_input)
    server = RoutingServer(ServerConfig(port=0))
    await server.start()
    try:
        print(f"listening on http://127.0.0.1:{server.port}", flush=True)
        await stop.wait()
    finally:
        await server.stop()


def main(argv: list[str]) -> int:
    tracer = None
    if argv[:1] == ["--trace-out"]:
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)
    asyncio.run(serve())
    if tracer is not None:
        tracer.dump(Path(argv[1]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
