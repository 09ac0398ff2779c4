"""Pipelines: payload codec, ordering, backpressure, reassembly."""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.datasets import REGISTRY, generate
from repro.obs import MetricRegistry
from repro.service.pipeline import (
    EgressPipeline,
    IngressPipeline,
    decode_payload,
    encode_payload,
)
from repro.service.protocol import FLAG_END, FLAG_RAW, FRAME_HEADER_SIZE, Frame


# ---------------------------------------------------------------- payload

@pytest.mark.parametrize("kind", sorted(REGISTRY))
def test_payload_round_trip_every_dataset(kind):
    data = generate(kind, 4096, seed=11)
    flags, payload = encode_payload(data)
    assert decode_payload(flags, payload) == data


@pytest.mark.parametrize("data", [b"", b"x", b"ab" * 5])
def test_payload_round_trip_tiny_buffers(data):
    flags, payload = encode_payload(data)
    # tiny buffers cannot beat the container header: raw passthrough
    assert flags & FLAG_RAW
    assert decode_payload(flags, payload) == data


def test_no_frame_expands_beyond_header():
    """The raw-passthrough guard: worst case is +FRAME_HEADER_SIZE."""
    rng = np.random.default_rng(0xF00D)
    cases = [b"", b"x", rng.integers(0, 256, 512, dtype=np.uint8).tobytes(),
             rng.integers(0, 256, 8192, dtype=np.uint8).tobytes(),
             generate("highly_compressible", 4096)]
    for data in cases:
        for version in (1, 2):
            flags, payload = encode_payload(data, version)
            wire = FRAME_HEADER_SIZE + len(payload)
            assert wire <= len(data) + FRAME_HEADER_SIZE
            assert decode_payload(flags, payload) == data


def test_incompressible_goes_raw_compressible_does_not():
    rnd = np.random.default_rng(1).integers(0, 256, 4096,
                                            dtype=np.uint8).tobytes()
    assert encode_payload(rnd)[0] & FLAG_RAW
    flags, payload = encode_payload(generate("highly_compressible", 4096))
    assert not flags & FLAG_RAW
    assert len(payload) < 4096


# ---------------------------------------------------------------- ingress

def _fake_job(data: bytes, version: int) -> tuple[int, bytes]:
    """Instant stand-in for compression (keeps pipeline tests fast)."""
    return FLAG_RAW, data


def test_ingress_preserves_order_across_workers():
    buffers = [bytes([i]) * (64 + i) for i in range(20)]
    sent: list[Frame] = []

    async def scenario():
        with ThreadPoolExecutor(max_workers=4) as pool:
            pipe = IngressPipeline(workers=4, queue_depth=4,
                                   executor=pool, job=_fake_job)

            async def send(frame):
                sent.append(frame)

            return await pipe.run(9, buffers, send)

    assert asyncio.run(scenario()) == len(buffers)
    assert [f.seq for f in sent] == list(range(20))
    assert [f.payload for f in sent] == buffers
    assert all(f.stream_id == 9 for f in sent)


def test_ingress_real_compression_round_trips():
    buffers = [generate("cfiles", 2048, seed=i) for i in range(4)]
    sent: list[Frame] = []

    async def scenario():
        # workers=0: compress one frame at a time on the stage's thread
        pipe = IngressPipeline(workers=0, queue_depth=2)

        async def send(frame):
            sent.append(frame)

        await pipe.run(0, buffers, send)

    asyncio.run(scenario())
    assert [decode_payload(f.flags, f.payload) for f in sent] == buffers


def test_backpressure_bounds_producer_side_memory():
    """A slow consumer must throttle the read stage via the bounded
    queue: the source may run at most queue_depth + 2 buffers ahead of
    the consumer (the queue, one buffer in the blocked submit stage's
    hand, one being sent), and the queue-depth gauge never exceeds the
    configured bound."""
    depth = 3
    n = 24
    metrics = MetricRegistry()
    pulled = 0
    consumed = 0
    max_lead = 0

    def source():
        nonlocal pulled
        for i in range(n):
            pulled += 1
            yield bytes(16)

    async def scenario():
        nonlocal consumed, max_lead
        with ThreadPoolExecutor(max_workers=4) as pool:
            pipe = IngressPipeline(workers=4, queue_depth=depth,
                                   executor=pool, metrics=metrics,
                                   job=_fake_job)

            async def slow_send(frame):
                nonlocal consumed, max_lead
                max_lead = max(max_lead, pulled - consumed)
                await asyncio.sleep(0.005)
                consumed += 1

            await pipe.run(0, source(), slow_send)

    asyncio.run(scenario())
    assert consumed == n
    assert max_lead <= depth + 2
    assert metrics.gauge_max("ingress.queue_depth") <= depth


# ----------------------------------------------------------------- egress

def _raw_frames(payloads, stream_id=0, start=0):
    return [Frame(stream_id=stream_id, seq=start + i, flags=FLAG_RAW,
                  payload=p) for i, p in enumerate(payloads)]


def _run_egress(frames, **kwargs):
    delivered = []
    ends = []
    metrics = kwargs.pop("metrics", MetricRegistry())

    async def scenario():
        pipe = EgressPipeline(metrics=metrics, **kwargs)

        async def deliver(sid, seq, data):
            delivered.append((sid, seq, data))

        async def on_end(sid, seq):
            ends.append((sid, seq))

        return await pipe.run(frames, deliver, on_end=on_end)

    count = asyncio.run(scenario())
    return count, delivered, ends, metrics


def test_egress_delivers_in_order():
    frames = _raw_frames([b"a", b"b", b"c"])
    count, delivered, _, _ = _run_egress(frames)
    assert count == 3
    assert delivered == [(0, 0, b"a"), (0, 1, b"b"), (0, 2, b"c")]


def test_egress_reassembles_out_of_order_frames():
    f = _raw_frames([b"a", b"b", b"c", b"d"])
    count, delivered, _, _ = _run_egress([f[1], f[0], f[3], f[2]])
    assert count == 4
    assert [d for _, _, d in delivered] == [b"a", b"b", b"c", b"d"]


def test_egress_drops_and_counts_duplicates():
    f = _raw_frames([b"a", b"b"])
    count, delivered, _, metrics = _run_egress([f[0], f[0], f[1], f[1]])
    assert count == 2
    assert [d for _, _, d in delivered] == [b"a", b"b"]
    assert metrics.count("egress.duplicate_frames") == 2


def test_egress_interleaved_streams_each_in_order():
    a = _raw_frames([b"a0", b"a1"], stream_id=1)
    b = _raw_frames([b"b0", b"b1"], stream_id=2)
    _, delivered, _, _ = _run_egress([a[0], b[0], b[1], a[1]])
    assert [x for x in delivered if x[0] == 1] == [(1, 0, b"a0"), (1, 1, b"a1")]
    assert [x for x in delivered if x[0] == 2] == [(2, 0, b"b0"), (2, 1, b"b1")]


def test_egress_end_fires_after_all_prior_frames():
    frames = _raw_frames([b"a", b"b"]) + [Frame(0, 2, flags=FLAG_END)]
    count, delivered, ends, _ = _run_egress(frames)
    assert count == 2
    assert len(delivered) == 2
    assert ends == [(0, 2)]


def test_egress_decodes_real_containers():
    data = generate("dictionary", 4096, seed=3)
    flags, payload = encode_payload(data)
    frames = [Frame(0, 0, flags=flags, payload=payload)]
    _, delivered, _, _ = _run_egress(frames)
    assert delivered == [(0, 0, data)]


def test_stage_failure_cancels_the_sibling_stage():
    """A dying consumer must not leave the submit stage blocked forever
    on the bounded queue (the _run_both cancellation contract)."""

    async def scenario():
        pipe = IngressPipeline(workers=0, queue_depth=1, job=_fake_job)

        async def exploding_send(frame):
            raise RuntimeError("consumer died")

        await pipe.run(0, [b"x"] * 50, exploding_send)

    with pytest.raises(RuntimeError, match="consumer died"):
        asyncio.run(asyncio.wait_for(scenario(), timeout=10))
