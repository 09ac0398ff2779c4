"""Process-pool frame transport, one probe per frame, reorder bound,
one egress decode at a time."""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.datasets import generate
from repro.obs import MetricRegistry
from repro.service import GatewayServer, StreamAck
from repro.service.pipeline import EgressPipeline, IngressPipeline
from repro.service.protocol import (
    FLAG_END,
    FLAG_RAW,
    Frame,
    read_frame,
    write_frame,
)


async def _collect_ingress(pipe: IngressPipeline, buffers) -> list[Frame]:
    frames: list[Frame] = []

    async def send(frame: Frame) -> None:
        frames.append(frame)

    await pipe.run(0, buffers, send)
    return frames


async def _collect_egress(pipe: EgressPipeline, frames):
    delivered: list[tuple[int, int, bytes]] = []

    async def deliver(sid, seq, data):
        delivered.append((sid, seq, data))

    n = await pipe.run(frames, deliver)
    return n, delivered


# ------------------------------------------------------- reorder bound

def test_reorder_buffer_is_bounded_and_counts_evictions():
    m = MetricRegistry()
    pipe = EgressPipeline(workers=0, queue_depth=2, metrics=m,
                          job=lambda flags, payload: payload)
    # want=0; seqs 2,3 get held, seq 4 arrives at a full bucket and is
    # dropped; 0 and 1 then release the held pair.
    frames = [Frame(stream_id=1, seq=s, flags=FLAG_RAW,
                    payload=b"frame-%d" % s) for s in (2, 3, 4, 0, 1)]
    n, delivered = asyncio.run(_collect_egress(pipe, frames))
    assert [seq for _, seq, _ in delivered] == [0, 1, 2, 3]
    assert n == 4
    assert m.count("egress.reorder_evictions") == 1
    snap = m.snapshot()["gauges"]["egress.reorder_depth"]
    assert snap["max"] <= 2


def test_reorder_bound_does_not_break_normal_reordering():
    m = MetricRegistry()
    pipe = EgressPipeline(workers=0, queue_depth=8, metrics=m,
                          job=lambda flags, payload: payload)
    order = [3, 1, 0, 2, 5, 4]
    frames = [Frame(stream_id=0, seq=s, flags=FLAG_RAW,
                    payload=bytes([s]) * 4) for s in order]
    n, delivered = asyncio.run(_collect_egress(pipe, frames))
    assert [seq for _, seq, _ in delivered] == [0, 1, 2, 3, 4, 5]
    assert m.count("egress.reorder_evictions") == 0


def test_evicted_frame_is_lost_and_the_ack_shows_it():
    # Nothing resends a frame dropped at a full reorder buffer: the
    # stream's ACK counts one frame fewer, so the client's receipt check
    # (send_stream(verify=True)) fails.
    buffers = [b"evicted stream frame %d " % s * 40 for s in range(5)]

    async def scenario() -> StreamAck:
        async with GatewayServer(queue_depth=2, timeout=5.0) as server:
            reader, writer = await asyncio.open_connection(server.host,
                                                           server.port)
            for s in (2, 3, 4, 0, 1):
                await write_frame(writer, Frame(stream_id=1, seq=s,
                                                flags=FLAG_RAW,
                                                payload=buffers[s]))
            await write_frame(writer, Frame(stream_id=1, seq=5,
                                            flags=FLAG_END))
            ack = await read_frame(reader, timeout=5.0)
            writer.close()
            await writer.wait_closed()
            assert ack is not None and ack.is_ack
            return StreamAck.from_payload(ack.payload)

    ack = asyncio.run(scenario())
    assert ack.frames == 4
    assert not ack.matches(buffers)


# ------------------------------------- one egress decode at a time

def test_inline_egress_decodes_one_frame_at_a_time():
    """``workers=0`` decodes on one thread the stage owns: frames never
    share the GIL with each other, so a frame's decode time is its own."""
    lock = threading.Lock()
    running = peak = 0

    def job(flags, payload):
        nonlocal running, peak
        with lock:
            running += 1
            peak = max(peak, running)
        time.sleep(0.02)
        with lock:
            running -= 1
        return payload

    frames = [Frame(stream_id=0, seq=s, flags=FLAG_RAW,
                    payload=bytes([s]) * 4) for s in range(8)]
    with EgressPipeline(workers=0, queue_depth=8, job=job) as pipe:
        n, delivered = asyncio.run(_collect_egress(pipe, frames))
    assert n == 8 and [seq for _, seq, _ in delivered] == list(range(8))
    assert peak == 1


# ------------------------------------------ the frame job decides raw

def _probe_calls() -> int:
    from repro import obs

    return obs.get_registry().count("matcher.probe_calls")


def test_random_frame_ships_raw_through_its_job():
    rnd = np.random.default_rng(3).integers(0, 256, 8192,
                                            dtype=np.uint8).tobytes()
    text = generate("highly_compressible", 8192)
    m = MetricRegistry()
    before = _probe_calls()
    with IngressPipeline(workers=0, metrics=m) as pipe:
        frames = asyncio.run(_collect_ingress(pipe, [rnd, text]))
    assert frames[0].flags & FLAG_RAW and frames[0].payload == rnd
    assert not frames[1].flags & FLAG_RAW
    assert m.count("ingress.raw_frames") == 1
    assert _probe_calls() - before == 2  # each frame probed once


def test_probe_skipped_for_injected_jobs():
    rnd = np.random.default_rng(4).integers(0, 256, 8192,
                                            dtype=np.uint8).tobytes()
    seen = []

    def job(data, version):
        seen.append(data)
        return FLAG_RAW, data

    before = _probe_calls()
    with IngressPipeline(workers=0, job=job) as pipe:
        asyncio.run(_collect_ingress(pipe, [rnd]))
    assert len(seen) == 1  # the custom job saw the buffer
    assert _probe_calls() == before


def test_each_send_is_one_transport_send_stage():
    from repro import obs

    buffers = [generate("cfiles", 4096, seed=s) for s in (1, 2, 3)]
    m = MetricRegistry()
    before = obs.get_registry().snapshot()
    with IngressPipeline(workers=0, metrics=m) as pipe:
        frames = asyncio.run(_collect_ingress(pipe, buffers))
    rows = obs.stage_breakdown(before, obs.get_registry().snapshot())
    assert rows["transport.send"]["calls"] == len(buffers)
    assert rows["transport.send"]["bytes"] == sum(f.wire_size for f in frames)
    private = m.snapshot()
    names = {*private["counters"], *private["histograms"]}
    assert not {n for n in names if n.startswith("transport.send")}
    assert "ingress.send_wait_seconds" not in names


# ------------------------------------------------ process-pool transport

@pytest.mark.slow
def test_pool_ingress_frames_equal_in_loop_frames():
    buffers = [generate("cfiles", 20_000, seed=s) for s in (1, 2, 3)]
    with IngressPipeline(workers=1) as pipe:
        pool_frames = asyncio.run(_collect_ingress(pipe, buffers))
    with IngressPipeline(workers=0) as pipe:
        loop_frames = asyncio.run(_collect_ingress(pipe, buffers))
    assert [(f.flags, f.payload) for f in pool_frames] == \
        [(f.flags, f.payload) for f in loop_frames]


@pytest.mark.slow
def test_pool_egress_round_trip():
    from repro.service.pipeline import encode_payload

    buffers = [generate("dictionary", 16_000, seed=s) for s in (5, 6)]
    frames = []
    for seq, data in enumerate(buffers):
        flags, payload = encode_payload(data)
        frames.append(Frame(stream_id=2, seq=seq, flags=flags,
                            payload=payload))
    m = MetricRegistry()
    with EgressPipeline(workers=1, metrics=m) as pipe:
        n, delivered = asyncio.run(_collect_egress(pipe, frames))
    assert n == len(buffers)
    assert [data for _, _, data in delivered] == buffers
    assert m.count("egress.frames_in") == len(buffers)
