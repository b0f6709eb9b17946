"""The benchmark's server process: PowerEstimationService → AsyncPowerGateway →
GatewayHTTPServer, the replica deployment (``RuntimeConfig`` defaults plus a
disk tier).

Usage::

    python3 perfbench/server.py --scale full|small --registry DIR --disk DIR
        [--trace FILE]

Prints ``ready <port>`` once the HTTP server accepts connections, serves
until SIGTERM or the end of its standard input, then prints
``exit {"peak_rss_kb": ...}``.  With ``--trace`` the public entry points are
wrapped before the service is built and the spans are written to ``FILE`` on
exit.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys

from common import SCALES, SERVE_MODEL, peak_rss_kb
from tracer import SERVING_POINTS, SpanRecorder, install, install_disk_tier


async def serve(args) -> None:
    from repro import DatasetGenerator
    from repro.runtime import RuntimeConfig
    from repro.runtime.gateway import AsyncPowerGateway
    from repro.runtime.http import GatewayHTTPServer
    from repro.serve import ModelRegistry, PowerEstimationService

    registry = ModelRegistry(args.registry)
    service = PowerEstimationService(
        registry=registry,
        model_name=SERVE_MODEL,
        generator=DatasetGenerator(SCALES[args.scale].dataset_config()),
        runtime=RuntimeConfig(persistent_cache_dir=args.disk),
    )
    server = GatewayHTTPServer(AsyncPowerGateway(service), port=0, registry=registry)
    await server.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)

    def parent_gone() -> None:
        # Standard input ends when the benchmark that started us is gone.
        loop.remove_reader(sys.stdin.fileno())
        stop.set()

    loop.add_reader(sys.stdin.fileno(), parent_gone)
    print(f"ready {server.port}", flush=True)
    await stop.wait()
    await server.aclose(close_gateway=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", required=True, choices=sorted(SCALES))
    parser.add_argument("--registry", required=True)
    parser.add_argument("--disk", required=True)
    parser.add_argument("--trace")
    args = parser.parse_args()
    recorder = None
    if args.trace:
        recorder = SpanRecorder()
        install(recorder, SERVING_POINTS)
        install_disk_tier(recorder)
    asyncio.run(serve(args))
    if recorder is not None:
        recorder.dump(args.trace)
    print("exit " + json.dumps({"peak_rss_kb": peak_rss_kb()}), flush=True)


if __name__ == "__main__":
    main()
