#!/usr/bin/env python3
"""The paper's motivating scenario: a real compressing gateway pair.

"From an application perspective, such as in a network application, the
input data resides in a memory buffer that needs to be compressed at
one gateway of the network and decompressed at the egress gateway, so
the data looks the same going in as coming out." (§III)

Earlier revisions simulated this with a synchronous loop; this version
runs the actual `repro.service` gateway pair over localhost TCP: an
egress `GatewayServer` (receive → decompress → deliver), an ingress
`GatewayClient` whose compression fans out across worker processes
behind a bounded queue, a length-prefixed frame protocol with raw
passthrough for incompressible frames, and a per-stream delivery
receipt (frame count, byte count, CRC) verified end-to-end.

Run:  python examples/network_gateway.py
"""

import asyncio

from repro.datasets import generate
from repro.obs import MetricRegistry
from repro.service import FRAME_HEADER_SIZE, GatewayClient, GatewayServer

LINK_BYTES_PER_S = 1e9 / 8  # a 2011-era 1 Gb/s WAN link
BUFFER_BYTES = 64 * 1024
N_BUFFERS = 8
WORKERS = 2
QUEUE_DEPTH = 4


async def run_pair() -> None:
    metrics = MetricRegistry()
    delivered: list[tuple[int, bytes]] = []

    async def deliver(stream_id: int, seq: int, data: bytes) -> None:
        delivered.append((seq, data))

    # traffic mix: source trees, map tiles, word lists, tarballs…
    kinds = ["cfiles", "demap", "kernel_tarball", "dictionary"]
    buffers = [generate(kinds[i % 4], BUFFER_BYTES, seed=1000 + i)
               for i in range(N_BUFFERS)]

    print(f"pushing {N_BUFFERS} x {BUFFER_BYTES // 1024} KiB buffers "
          f"through a localhost gateway pair "
          f"({WORKERS} compression workers, queue depth {QUEUE_DEPTH})\n")

    async with GatewayServer(metrics=metrics, deliver=deliver) as server:
        client = GatewayClient(port=server.port, workers=WORKERS,
                               queue_depth=QUEUE_DEPTH, metrics=metrics)
        async with client:
            ack = await client.send_stream(buffers, stream_id=1)
        await server.close()

    # the §III guarantee: bit-exact, in-order delivery
    assert [seq for seq, _ in delivered] == list(range(N_BUFFERS))
    assert [data for _, data in delivered] == buffers
    assert ack.matches(buffers)

    snap = metrics.snapshot()
    counters = snap["counters"]
    sent = counters["ingress.bytes_in"]
    wire = counters["ingress.bytes_out"]
    per_frame = wire / N_BUFFERS - FRAME_HEADER_SIZE

    for i, data in enumerate(buffers):
        print(f"buffer {i} ({kinds[i % 4]:<14}): {len(data) >> 10} KiB "
              f"(avg wire frame {per_frame / 1024:.1f} KiB)")

    raw_link_s = sent / LINK_BYTES_PER_S
    comp_link_s = wire / LINK_BYTES_PER_S
    compress_s = snap["histograms"]["ingress.stage_wait_seconds"]["sum"]

    print()
    print(f"bytes on the wire: {sent:,} -> {wire:,} "
          f"(ratio {wire / sent:.1%}, {counters.get('ingress.raw_frames', 0)} "
          f"raw-passthrough frames)")
    print(f"delivery receipt:  {ack.frames} frames / {ack.bytes:,} bytes, "
          f"CRC verified end-to-end")
    print(f"link time:   {raw_link_s * 1000:7.2f} ms raw "
          f"-> {comp_link_s * 1000:7.2f} ms compressed")
    print(f"gateway CPU: {compress_s * 1000:7.2f} ms wall across "
          f"{WORKERS} workers (wait through the bounded queue)")
    saved = raw_link_s - comp_link_s - compress_s / WORKERS
    verdict = "WORTH IT" if saved > 0 else "not worth it at this link speed"
    print(f"net effect:  {saved * 1000:+7.2f} ms -> {verdict}")
    print()
    print(f"pipeline high-water marks: ingress queue "
          f"{int(metrics.gauge_max('ingress.queue_depth'))}/{QUEUE_DEPTH}, "
          f"egress queue {int(metrics.gauge_max('egress.queue_depth'))}")
    print("note: pure-Python encoding is orders slower than the paper's")
    print("GPU, so a 1 Gb/s link wins here; the frames, backpressure, and")
    print("receipts are what production would keep while swapping the codec.")


def main() -> None:
    asyncio.run(run_pair())


if __name__ == "__main__":
    main()
