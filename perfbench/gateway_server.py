"""Traced gateway launcher: ``GatewayServer`` with the layer tracer
installed inside the server process.

Prints the same ``gateway serving ... tcp=PORT udp=PORT`` line as
``repro gateway serve``, serves until its standard input closes, then
prints one JSON line: self time per layer over the serving window, the
window's wall time, and the per-layer counts.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import install_tracer, sim_layer_counts  # noqa: E402


def _time_injects(tracer: Tracer):
    """Measure each injected callback's wait from ``inject`` to its
    execution inside the engine; returns the undo function."""
    from repro.gateway.driver import AsyncEngineDriver
    original = AsyncEngineDriver.inject

    def inject(self, fn, *args, label="gw.inject"):
        issued = time.perf_counter()

        def timed(*call_args):
            tracer.totals["gateway.driver.inject_wait_s"] += (
                time.perf_counter() - issued)
            return fn(*call_args)
        return original(self, timed, *args, label=label)

    AsyncEngineDriver.inject = inject

    def undo() -> None:
        AsyncEngineDriver.inject = original
    return undo


async def _serve(tracer: Tracer) -> dict:
    from repro.gateway.server import GatewayServer
    server = GatewayServer()
    await server.start()
    print(f"gateway serving echo, rpc, pubsub on {server.host} "
          f"tcp={server.tcp_port} udp={server.udp_port}", flush=True)
    before = tracer.snapshot()
    start = time.perf_counter()
    loop = asyncio.get_running_loop()
    await loop.run_in_executor(None, sys.stdin.read)
    wall = time.perf_counter() - start
    after = tracer.snapshot()
    counts = sim_layer_counts(tracer)
    await server.stop()
    return {"wall_s": wall,
            "self_s": {layer: after[layer] - before[layer]
                       for layer in after},
            "counts": counts}


def main() -> int:
    tracer = Tracer()
    undo = _time_injects(tracer)
    install_tracer(tracer)
    try:
        report = asyncio.run(_serve(tracer))
    finally:
        tracer.uninstall()
        undo()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
