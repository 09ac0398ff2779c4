"""Process-pool frame transport, probe fast path, reorder bound."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.datasets import generate
from repro.obs import MetricRegistry
from repro.service.pipeline import EgressPipeline, IngressPipeline
from repro.service.protocol import FLAG_RAW, Frame


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


# ----------------------------------------------------- probe fast path

def test_probe_ships_incompressible_frames_raw_without_a_worker():
    rnd = np.random.default_rng(3).integers(0, 256, 8192,
                                            dtype=np.uint8).tobytes()
    text = generate("highly_compressible", 8192)
    m = MetricRegistry()
    with IngressPipeline(workers=0, metrics=m) as pipe:
        frames = asyncio.run(_collect_ingress(pipe, [rnd, text]))
    assert frames[0].flags & FLAG_RAW and frames[0].payload == rnd
    assert not frames[1].flags & FLAG_RAW
    assert m.count("ingress.probe_raw_frames") == 1
    assert m.count("ingress.raw_frames") == 1


def test_probe_skipped_for_injected_jobs():
    rnd = np.random.default_rng(4).integers(0, 256, 8192,
                                            dtype=np.uint8).tobytes()
    seen = []

    def job(data, version):
        seen.append(data)
        return FLAG_RAW, data

    m = MetricRegistry()
    with IngressPipeline(workers=0, metrics=m, job=job) as pipe:
        asyncio.run(_collect_ingress(pipe, [rnd]))
    assert len(seen) == 1  # the custom job saw the buffer
    assert m.count("ingress.probe_raw_frames") == 0


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
