"""Chaos suite: the gateway stack under transport and worker faults.

Covers the degradation ladder end to end: a flaky socket feeding the
server garbage, a process-pool worker hard-killed mid-frame (a genuine
``BrokenProcessPool``), the graceful-drain timeout on server close, and
the ACK delivery-receipt mismatch paths.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import BrokenExecutor
from time import perf_counter

import pytest

from repro.obs import MetricRegistry
from repro.service import (
    FrameError,
    GatewayClient,
    GatewayServer,
    StreamAck,
)
from repro.service.pipeline import IngressPipeline, decode_payload
from repro.service.protocol import (
    FLAG_END,
    Frame,
    pack_ack,
    read_frame,
    write_frame,
)
from repro.testing import (
    CrashingExecutor,
    FlakyWriter,
    chaos_seed,
    crash_worker_job,
    tag_crash_buffer,
)

SEED = chaos_seed()
BUFFERS = [b"gateway chaos frame %d " % i * 200 for i in range(4)]


def collect_frames():
    frames: list[Frame] = []

    async def send(frame: Frame) -> None:
        frames.append(frame)

    return frames, send


def decoded(frames: list[Frame]) -> list[bytes]:
    return [decode_payload(f.flags, f.payload) for f in frames]


# ------------------------------------------------------- flaky transport

@pytest.mark.slow
def test_server_survives_garbled_stream():
    """A client behind a bit-flipping socket cannot take the server
    down: the poisoned connection is counted and closed, and the next
    clean client gets full service."""
    metrics = MetricRegistry()
    delivered: list[bytes] = []

    async def deliver(sid, seq, data):
        delivered.append(data)

    async def scenario() -> StreamAck:
        async with GatewayServer(metrics=metrics, deliver=deliver,
                                 timeout=5.0) as server:
            flaky = GatewayClient(port=server.port, workers=0,
                                  timeout=1.0, retries=0)
            await flaky.connect()
            flaky._writer = FlakyWriter(flaky._writer, seed=SEED,
                                        garble_every=1)
            with pytest.raises((FrameError, ConnectionError, OSError,
                                asyncio.TimeoutError, TimeoutError)):
                await flaky.send_stream(BUFFERS, stream_id=1)
            assert flaky._writer.garbled >= 1
            await flaky.close()

            clean = GatewayClient(port=server.port, workers=0, timeout=5.0)
            async with clean:
                ack = await clean.send_stream(BUFFERS, stream_id=2)
            await server.close()
            return ack

    ack = asyncio.run(scenario())
    assert metrics.count("server.connection_errors") >= 1
    assert ack.frames == len(BUFFERS)
    assert delivered[-len(BUFFERS):] == BUFFERS


# --------------------------------------------------- worker death (real)

def test_crashing_executor_models_broken_pool():
    # The harness itself: Nth submit fails its future, later submits
    # raise synchronously — BrokenProcessPool's observable behavior.
    pool = CrashingExecutor(crash_on=2)
    assert pool.submit(lambda: 41).result() == 41
    with pytest.raises(BrokenExecutor):
        pool.submit(lambda: 42).result()
    with pytest.raises(BrokenExecutor):
        pool.submit(lambda: 43)
    assert pool.broken


@pytest.mark.slow
def test_process_pool_worker_death_fails_over_serially():
    """A pool worker hard-killed mid-frame (genuine BrokenProcessPool):
    the frame re-runs serially in the parent, the pool rebuilds, and
    every byte still arrives."""
    metrics = MetricRegistry()
    buffers = [tag_crash_buffer(BUFFERS[0])] + BUFFERS[1:]
    pipe = IngressPipeline(workers=1, queue_depth=4, metrics=metrics,
                           job=crash_worker_job)
    frames, send = collect_frames()
    with pipe:
        asyncio.run(pipe.run(7, buffers, send))
        assert decoded(frames) == BUFFERS
        assert metrics.count("ingress.worker_crashes") >= 1
        assert metrics.count("ingress.serial_fallbacks") >= 1

        # The rebuilt pool serves the next stream without incident.
        crashes = metrics.count("ingress.worker_crashes")
        frames2, send2 = collect_frames()
        asyncio.run(pipe.run(8, BUFFERS, send2))
        assert decoded(frames2) == BUFFERS
        assert metrics.count("ingress.worker_crashes") == crashes


def test_injected_executor_crash_degrades_without_rebuild():
    """With a caller-owned executor the pipeline cannot rebuild — every
    frame after the crash degrades to the serial path instead."""
    metrics = MetricRegistry()
    pipe = IngressPipeline(workers=2, queue_depth=4, metrics=metrics,
                           executor=CrashingExecutor(crash_on=2))
    frames, send = collect_frames()
    with pipe:
        asyncio.run(pipe.run(1, BUFFERS, send))
    assert decoded(frames) == BUFFERS
    assert metrics.count("ingress.worker_crashes") >= 1
    assert metrics.count("ingress.serial_fallbacks") >= 1


def test_second_crash_marks_pool_dead():
    """The rebuild happens at most once: after a second crash the stage
    runs permanently serial rather than churning replacement pools."""
    metrics = MetricRegistry()
    pipe = IngressPipeline(workers=1, queue_depth=4, metrics=metrics)
    assert pipe._pool() is not None
    pipe._crashed("ingress")
    assert not pipe._pool_dead
    assert pipe._pool() is not None  # first crash: rebuilt
    pipe._crashed("ingress")
    assert pipe._pool_dead
    assert pipe._pool() is None  # permanently serial
    assert metrics.count("ingress.worker_crashes") == 2
    frames, send = collect_frames()
    with pipe:
        asyncio.run(pipe.run(1, BUFFERS[:2], send))
    assert decoded(frames) == BUFFERS[:2]


# ------------------------------------------------- graceful-drain timeout

@pytest.mark.slow
def test_server_close_drain_timeout_cancels_hung_handler():
    """A handler pinned by a never-returning deliver callback cannot
    stall shutdown past ``drain_timeout``."""
    metrics = MetricRegistry()

    async def scenario() -> float:
        started = asyncio.Event()

        async def deliver(sid, seq, data):
            started.set()
            await asyncio.Event().wait()  # never completes

        server = GatewayServer(metrics=metrics, deliver=deliver, timeout=30.0)
        await server.start()
        reader, writer = await asyncio.open_connection(server.host,
                                                       server.port)
        from repro.service.pipeline import encode_payload

        flags, payload = encode_payload(BUFFERS[0])
        await write_frame(writer, Frame(stream_id=1, seq=0, flags=flags,
                                        payload=payload))
        await asyncio.wait_for(started.wait(), 10.0)

        t0 = perf_counter()
        await asyncio.wait_for(server.close(drain_timeout=0.2), 10.0)
        elapsed = perf_counter() - t0
        assert not server._handlers
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        return elapsed

    elapsed = asyncio.run(scenario())
    assert elapsed < 5.0  # bounded by drain_timeout, not the hang


# ----------------------------------------------------- ACK verification

class TestAckMismatch:
    GOOD = [b"alpha", b"bravo!"]

    def _ack_for(self, buffers) -> StreamAck:
        from repro.util.checksum import crc32

        crc = 0
        for b in buffers:
            crc = crc32(b, crc)
        return StreamAck(frames=len(buffers),
                         bytes=sum(len(b) for b in buffers), crc=crc)

    def test_matching_receipt(self):
        assert self._ack_for(self.GOOD).matches(self.GOOD)

    def test_frame_count_mismatch(self):
        assert not self._ack_for(self.GOOD).matches(self.GOOD[:1])

    def test_byte_count_mismatch(self):
        ack = self._ack_for(self.GOOD)
        assert not ack.matches([b"alpha", b"bravo"])

    def test_crc_mismatch_same_sizes(self):
        # Same frame and byte counts, different content: only the CRC
        # catches a delivery that silently mangled bytes.
        ack = self._ack_for(self.GOOD)
        assert not ack.matches([b"alpha", b"bravO!"])

    @pytest.mark.slow
    def test_client_raises_on_bogus_receipt(self):
        """A server acknowledging the wrong bytes fails the stream with
        FrameError — the end-to-end guarantee has teeth."""

        async def scenario():
            async def bogus_handler(reader, writer):
                while True:
                    frame = await read_frame(reader, timeout=5.0)
                    if frame is None:
                        return
                    if frame.flags & FLAG_END:
                        from repro.service.protocol import FLAG_ACK

                        ack = Frame(stream_id=frame.stream_id,
                                    seq=frame.seq, flags=FLAG_ACK,
                                    payload=pack_ack(frame.seq, 999, 12345))
                        await write_frame(writer, ack)
                        writer.close()
                        return

            server = await asyncio.start_server(bogus_handler,
                                                "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = GatewayClient(port=port, workers=0, timeout=5.0)
            try:
                async with client:
                    with pytest.raises(FrameError, match="receipt mismatch"):
                        await client.send_stream(self.GOOD, stream_id=1)
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())
