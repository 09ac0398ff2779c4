"""Egress gateway process for the benchmark's gateway workload.

Run by ``workloads.ServerProcess``, never by hand::

    python benchmarks/e2e/server.py --trace 0|1

Starts a :class:`repro.service.GatewayServer` with the topology of
:mod:`workloads` on an ephemeral loopback port and prints ``PORT <n>``.
Every delivery is recorded as ``[stream, seq, perf_counter, sha256]``.
On a line (or EOF) on stdin the server drains, closes, and prints one
JSON line: the deliveries, its obs counter deltas and, with
``--trace 1``, every span it recorded.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import hashlib
import json
import sys
from time import perf_counter


async def serve(trace: bool) -> dict:
    from layers import Tracer, program_counters
    from repro.obs import trace as obs_trace
    from repro.service import GatewayServer
    from workloads import QUEUE_DEPTH, SERVER_WORKERS

    tracer = Tracer()
    if trace:
        tracer.install()
    before = program_counters()
    deliveries = []

    async def deliver(stream_id: int, seq: int, data: bytes) -> None:
        deliveries.append([stream_id, seq, perf_counter(),
                           hashlib.sha256(data).hexdigest()])

    server = GatewayServer(workers=SERVER_WORKERS, queue_depth=QUEUE_DEPTH,
                           deliver=deliver)
    await server.start()
    print(f"PORT {server.port}", flush=True)
    try:
        await asyncio.get_running_loop().run_in_executor(
            None, sys.stdin.readline)
    finally:
        await server.close()
        tracer.uninstall()
    return {
        "deliveries": deliveries,
        "counters": {k: v - before[k] for k, v in program_counters().items()},
        "spans": ([dataclasses.asdict(s) for s in obs_trace.spans()]
                  if trace else []),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    from workloads import stop_resource_tracker

    try:
        report = asyncio.run(serve(bool(args.trace)))
    finally:
        stop_resource_tracker()
    print(json.dumps(report, default=str), flush=True)


if __name__ == "__main__":
    main()
