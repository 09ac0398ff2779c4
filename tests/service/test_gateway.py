"""Gateway pair end-to-end over localhost: the §III guarantee."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.datasets import REGISTRY, generate
from repro.obs import MetricRegistry
from repro.service import (
    FrameError,
    GatewayClient,
    GatewayServer,
    StreamAck,
    retry_with_backoff,
)


def mixed_traffic(size: int = 6144) -> list[bytes]:
    """All five dataset kinds plus the edge cases: empty, 1-byte, and
    incompressible random bytes (exercises raw passthrough)."""
    buffers = [generate(kind, size, seed=50 + i)
               for i, kind in enumerate(sorted(REGISTRY))]
    rng = np.random.default_rng(0xBEEF)
    buffers += [b"", b"\x00",
                rng.integers(0, 256, size, dtype=np.uint8).tobytes()]
    return buffers


@pytest.mark.slow
def test_end_to_end_mixed_traffic_bit_exact_in_order():
    """The acceptance scenario: a localhost gateway pair delivers a
    mixed-kind stream (incl. empty/1-byte/incompressible) bit-exact and
    in order, with compression fanned across >= 2 worker processes and
    nonzero, bounded metrics."""
    buffers = mixed_traffic()
    metrics = MetricRegistry()
    delivered: list[tuple[int, int, bytes]] = []

    async def deliver(sid, seq, data):
        delivered.append((sid, seq, data))

    async def scenario() -> StreamAck:
        async with GatewayServer(metrics=metrics, deliver=deliver) as server:
            client = GatewayClient(port=server.port, workers=2,
                                   queue_depth=4, metrics=metrics)
            async with client:
                ack = await client.send_stream(buffers, stream_id=3)
            await server.close()
            return ack

    ack = asyncio.run(scenario())

    assert [seq for _, seq, _ in delivered] == list(range(len(buffers)))
    assert [data for _, _, data in delivered] == buffers
    assert all(sid == 3 for sid, _, _ in delivered)
    assert ack.frames == len(buffers)
    assert ack.bytes == sum(len(b) for b in buffers)
    assert ack.matches(buffers)

    counters = metrics.snapshot()["counters"]
    assert counters["ingress.frames_out"] == len(buffers)
    assert counters["server.frames_delivered"] == len(buffers)
    assert counters["ingress.bytes_in"] == counters["egress.bytes_out"]
    assert counters["ingress.bytes_in"] > 0
    assert counters["ingress.raw_frames"] >= 3  # empty, 1-byte, random
    assert 0 < metrics.gauge_max("ingress.queue_depth") <= 4
    assert metrics.gauge_max("egress.queue_depth") <= 8


def test_multiple_streams_on_one_connection():
    metrics = MetricRegistry()
    streams = {1: [generate("cfiles", 2048, seed=1), b"one"],
               2: [generate("demap", 2048, seed=2), b"", b"two"]}
    delivered: dict[int, list[bytes]] = {1: [], 2: []}

    async def deliver(sid, seq, data):
        delivered[sid].append(data)

    async def scenario():
        async with GatewayServer(metrics=metrics, deliver=deliver) as server:
            client = GatewayClient(port=server.port, workers=0,
                                   metrics=metrics)
            async with client:
                acks = {sid: await client.send_stream(bufs, stream_id=sid)
                        for sid, bufs in streams.items()}
            await server.close()
            return acks

    acks = asyncio.run(scenario())
    for sid, bufs in streams.items():
        assert delivered[sid] == bufs
        assert acks[sid].matches(bufs)
    assert metrics.count("server.streams_acked") == 2
    assert metrics.count("server.connections") == 1


def test_graceful_drain_on_close():
    """close(drain=True) lets the in-flight stream finish delivering."""
    metrics = MetricRegistry()
    first_delivered = asyncio.Event()
    delivered = []

    async def deliver(sid, seq, data):
        delivered.append(data)
        first_delivered.set()
        await asyncio.sleep(0.01)  # a slow-ish consumer

    buffers = [b"frame-%d" % i for i in range(6)]

    async def scenario():
        server = GatewayServer(metrics=metrics, deliver=deliver)
        await server.start()
        client = GatewayClient(port=server.port, workers=0, metrics=metrics)

        async def close_early():
            await first_delivered.wait()
            await server.close(drain=True)

        async with client:
            ack, _ = await asyncio.gather(
                client.send_stream(buffers), close_early())
        return ack

    ack = asyncio.run(scenario())
    assert delivered == buffers
    assert ack.frames == len(buffers)


def test_client_retries_until_server_appears():
    """Connection refused is transient: the client's bounded
    retry-with-backoff rides out a server that starts late."""
    metrics = MetricRegistry()

    async def scenario():
        probe = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
        port = probe.sockets[0].getsockname()[1]
        probe.close()
        await probe.wait_closed()  # now nothing listens on `port`

        server = GatewayServer(port=port, metrics=metrics)

        async def start_late():
            await asyncio.sleep(0.2)
            await server.start()

        client = GatewayClient(port=port, workers=0, retries=6,
                               backoff=0.05, metrics=metrics)
        _, ack = await asyncio.gather(
            start_late(), client.send_stream([b"late but delivered"]))
        await client.close()
        await server.close()
        return ack

    ack = asyncio.run(scenario())
    assert ack.frames == 1
    assert metrics.count("retry.connect") >= 1


def test_connect_retries_exhaust():
    async def scenario():
        probe = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
        port = probe.sockets[0].getsockname()[1]
        probe.close()
        await probe.wait_closed()
        client = GatewayClient(port=port, workers=0, retries=1,
                               backoff=0.01)
        try:
            await client.connect()
        finally:
            await client.close()

    with pytest.raises(OSError):
        asyncio.run(scenario())


def test_retry_with_backoff_recovers_and_propagates():
    calls = {"n": 0}

    async def flaky():
        calls["n"] += 1
        if calls["n"] < 3:
            raise ConnectionResetError("transient")
        return "ok"

    async def fatal():
        raise ValueError("not transient")

    async def scenario():
        result = await retry_with_backoff(flaky, retries=5, base_delay=0.001)
        assert result == "ok"
        assert calls["n"] == 3
        with pytest.raises(ValueError):
            await retry_with_backoff(fatal, retries=5, base_delay=0.001)

    asyncio.run(scenario())


def test_retry_with_backoff_bounded():
    calls = {"n": 0}

    async def always_down():
        calls["n"] += 1
        raise ConnectionRefusedError("down")

    async def scenario():
        await retry_with_backoff(always_down, retries=3, base_delay=0.001)

    with pytest.raises(ConnectionRefusedError):
        asyncio.run(scenario())
    assert calls["n"] == 4  # initial attempt + 3 retries


def test_server_times_out_silent_connection():
    """A peer that connects and goes silent must not pin the handler:
    the per-connection timeout trips and the connection is dropped."""
    metrics = MetricRegistry()

    async def scenario():
        async with GatewayServer(metrics=metrics, timeout=0.1) as server:
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           server.port)
            await asyncio.sleep(0.3)  # send nothing
            at_eof = (await reader.read(1)) == b""  # server hung up
            writer.close()
            await writer.wait_closed()
            await server.close()
            return at_eof

    assert asyncio.run(scenario())
    assert metrics.count("server.connection_errors") == 1


def test_corrupt_frame_drops_connection_not_server():
    metrics = MetricRegistry()

    async def scenario():
        async with GatewayServer(metrics=metrics) as server:
            _, writer = await asyncio.open_connection("127.0.0.1",
                                                      server.port)
            writer.write(b"garbage that is not a frame header at all..")
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            # the server survives and serves the next, well-behaved client
            client = GatewayClient(port=server.port, workers=0,
                                   metrics=metrics)
            async with client:
                ack = await client.send_stream([b"still alive"])
            await server.close()
            return ack

    ack = asyncio.run(scenario())
    assert ack.frames == 1
    assert metrics.count("server.connection_errors") >= 1


# --------------------------------------------------- metrics sidecar

async def _http_get(host: str, port: int, path: str) -> tuple[int, bytes]:
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(f"GET {path} HTTP/1.0\r\nHost: {host}\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), body


@pytest.mark.slow
def test_metrics_sidecar_serves_full_stack_scrape():
    """The acceptance scrape: one /metrics page carries the gateway's
    own keys plus the codec-layer families (encoder stage timings,
    matcher probes, engine shards/crashes, container CRC events)."""
    import json

    from repro import obs

    metrics = MetricRegistry()

    async def scenario() -> tuple[int, bytes, int, bytes, int]:
        async with GatewayServer(metrics=metrics,
                                 metrics_port=0) as server:
            assert server.metrics_port not in (None, 0)
            client = GatewayClient(port=server.port, workers=0,
                                   metrics=metrics)
            async with client:
                await client.send_stream(mixed_traffic(2048))
            prom = await _http_get(server.host, server.metrics_port,
                                   "/metrics")
            js = await _http_get(server.host, server.metrics_port,
                                 "/metrics.json")
            missing = await _http_get(server.host, server.metrics_port,
                                      "/nope")
            await server.close()
            return (*prom, *js, missing[0])

    prom_status, prom, js_status, js, missing_status = asyncio.run(scenario())
    assert prom_status == 200 and js_status == 200
    assert missing_status == 404
    text = prom.decode()
    for key in ("culzss_server_frames_delivered",
                "culzss_ingress_frames_out",
                "culzss_encode_match_seconds_bucket",
                "culzss_matcher_probe_calls",
                "culzss_engine_shards",
                "culzss_container_crc_checks",
                "culzss_container_salvage_chunks_lost"):
        assert key in text, key
    assert int(text.split("\nculzss_server_frames_delivered ")[1]
               .split("\n")[0]) > 0
    snap = json.loads(js)
    assert snap["counters"]["server.frames_delivered"] > 0
    # codec work ran in this (workers=0) process: obs counters nonzero
    assert snap["counters"]["matcher.probe_calls"] > 0


def test_metrics_sidecar_defaults_off():
    async def scenario() -> bool:
        async with GatewayServer() as server:
            return (server.metrics_port is None
                    and server._metrics_server is None)

    assert asyncio.run(scenario())


def test_sidecar_healthz_reports_uptime_and_conns():
    import json

    async def scenario() -> tuple[int, bytes, int, bytes]:
        async with GatewayServer(metrics_port=0) as server:
            health = await _http_get(server.host, server.metrics_port,
                                     "/healthz")
            missing = await _http_get(server.host, server.metrics_port,
                                      "/nope")
            await server.close()
            return (*health, *missing)

    status, body, missing_status, hint = asyncio.run(scenario())
    assert status == 200
    doc = json.loads(body)
    assert doc["status"] == "ok"
    assert doc["uptime_seconds"] >= 0
    assert doc["connections"] == 0
    # the 404 hint advertises the new endpoints
    assert missing_status == 404
    assert b"/healthz" in hint and b"/profile" in hint


@pytest.mark.slow
def test_sidecar_profile_endpoint_returns_speedscope_window():
    import json

    async def scenario() -> tuple[int, bytes, int]:
        async with GatewayServer(metrics_port=0) as server:
            # the window must see a running interpreter, which the
            # event loop itself provides; 0.3s at the default hz is
            # plenty to collect the loop's own stacks
            ok = await _http_get(server.host, server.metrics_port,
                                 "/profile?seconds=0.3")
            bad = await _http_get(server.host, server.metrics_port,
                                  "/profile?seconds=banana")
            await server.close()
            return (*ok, bad[0])

    status, body, bad_status = asyncio.run(scenario())
    assert status == 200
    doc = json.loads(body)
    assert doc["$schema"].endswith("file-format-schema.json")
    assert doc["name"].startswith("culzss gateway")
    # a malformed seconds falls back to the default window, not a 500
    assert bad_status == 200
    # the on-demand window owned its profiler: nothing left running
    from repro.obs import prof

    assert not prof.running()


@pytest.mark.parametrize("path, window", [
    ("/profile?seconds=0.5", 0.5), ("/profile?seconds=99", 30.0),
    ("/profile?seconds=0", 0.1), ("/profile?seconds=banana&hz=x", 2.0),
    ("/profile", 2.0), ("/metrics?seconds=5", 0.0),
    ("/profile?seconds=nan", 2.0), ("/profile?seconds=inf", 2.0),
])
def test_sidecar_profile_window_is_the_clamped_sampling_window(path, window):
    """The render budget a request gets is the window ``/profile``
    samples: one parser clamps ``seconds`` for both."""
    from repro.service.gateway import _profile_window

    assert _profile_window(path) == window


@pytest.mark.parametrize("hz", ["nan", "inf", "-5", "1e9"])
def test_sidecar_profile_ignores_hz(hz, monkeypatch):
    """``/profile`` samples at the profiler's own rate whatever ``hz``
    the query names, and answers strict JSON."""
    import json
    import os

    from repro.obs import prof

    def strict(token):
        raise ValueError(f"non-finite JSON number {token}")

    monkeypatch.delenv(prof.ENV_HZ, raising=False)
    prof.clear()
    try:
        status, _ctype, body = GatewayServer(metrics_port=0)._render_profile(
            f"seconds=0.2&hz={hz}")
        assert status == "200 OK"
        doc = json.loads(body, parse_constant=strict)
        assert doc["profiles"]
        assert prof.profiles()[os.getpid()]["hz"] == prof.DEFAULT_HZ
    finally:
        prof.clear()
