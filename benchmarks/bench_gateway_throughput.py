"""Gateway service throughput: frames/s and MB/s through a localhost
pair at compression worker counts 1/2/4.

The service's claim to scale is the ingress fan-out: the CPU-bound
LZSS encoder runs in a ``ProcessPoolExecutor`` behind a bounded queue
while frames leave in order (`docs/service.md` §2).  This benchmark
pushes the same mixed-kind buffer stream through a real
server+client pair over 127.0.0.1 per worker count and reports the
end-to-end rates, in the style of the other `benchmarks/results/`
files, and appends the sweep to the ``BENCH_gateway.json`` trajectory
at the repo root (:mod:`repro.bench.stats`).
"""

from __future__ import annotations

import asyncio
import os
from pathlib import Path
from time import perf_counter

import pytest

from benchmarks.conftest import report
from repro.bench.stats import append_run, new_run, summarize
from repro.datasets import generate
from repro.obs import MetricRegistry
from repro.service import GatewayClient, GatewayServer

REPO_ROOT = Path(__file__).resolve().parent.parent

WORKER_COUNTS = (1, 2, 4)
N_FRAMES = 12
FRAME_BYTES = 32 * 1024
KINDS = ("cfiles", "demap", "kernel_tarball", "dictionary")


def _traffic() -> list[bytes]:
    return [generate(KINDS[i % len(KINDS)], FRAME_BYTES, seed=4000 + i)
            for i in range(N_FRAMES)]


async def _push(buffers: list[bytes],
                workers: int) -> tuple[float, MetricRegistry]:
    metrics = MetricRegistry()

    async def deliver(sid, seq, data):
        pass

    async with GatewayServer(metrics=metrics, deliver=deliver) as server:
        client = GatewayClient(port=server.port, workers=workers,
                               queue_depth=2 * workers, metrics=metrics)
        async with client:
            # warm the worker pool outside the timed window
            await client.send_stream([buffers[0]], stream_id=0)
            t0 = perf_counter()
            ack = await client.send_stream(buffers, stream_id=1)
            elapsed = perf_counter() - t0
        await server.close()
    assert ack.matches(buffers)
    return elapsed, metrics


@pytest.mark.slow
def test_gateway_throughput(benchmark):
    buffers = _traffic()
    total_mb = sum(len(b) for b in buffers) / 1e6

    def sweep():
        rows = []
        for workers in WORKER_COUNTS:
            elapsed, metrics = asyncio.run(_push(buffers, workers))
            wire = metrics.count("ingress.bytes_out")
            rows.append((workers, elapsed, N_FRAMES / elapsed,
                         total_mb / elapsed, wire))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    base = rows[0][1]
    lines = ["GATEWAY THROUGHPUT: localhost pair, "
             f"{N_FRAMES} x {FRAME_BYTES // 1024} KiB mixed-kind frames "
             f"({cores} CPU core(s) available)",
             f"{'workers':>8}{'time':>9}{'frames/s':>10}{'MB/s':>8}"
             f"{'speedup':>9}"]
    for workers, elapsed, fps, mbps, wire in rows:
        lines.append(f"{workers:>8}{elapsed:>8.2f}s{fps:>10.1f}{mbps:>8.2f}"
                     f"{base / elapsed:>8.2f}x")
    lines.append(f"wire bytes per run: {rows[0][4]:,} "
                 f"(ratio {rows[0][4] / (total_mb * 1e6):.3f}); "
                 "compression fan-out is the scaling axis — "
                 "the frame protocol and ACK path stay constant")
    if cores < max(WORKER_COUNTS):
        lines.append(f"note: only {cores} core(s) available; worker "
                     "scaling needs as many cores as workers to show")
    report("gateway_throughput", "\n".join(lines))

    # publish the sweep into the BENCH_gateway.json trajectory so runs
    # are comparable across commits (honest single-sample entries: the
    # summary records repeats=1, and the fingerprint says where it ran)
    append_run(REPO_ROOT / "BENCH_gateway.json", new_run(
        "gateway", "full",
        {f"w{workers}.stream": summarize(
            [elapsed], frames_per_s=round(fps, 1),
            mb_s=round(mbps, 2), wire_bytes=wire)
         for workers, elapsed, fps, mbps, wire in rows},
        params={"frames": N_FRAMES, "frame_bytes": FRAME_BYTES,
                "kinds": list(KINDS)},
        repo_root=REPO_ROOT))

    # more workers must not lose frames or corrupt order (ack checked
    # inside _push); scaling should at least not regress wall time badly
    assert all(r[1] > 0 for r in rows)
