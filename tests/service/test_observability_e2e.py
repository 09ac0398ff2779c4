"""End-to-end observability: trace propagation, log correlation, SLOs.

The acceptance scenarios for the performance observatory:

* one trace id rides a frame from the client's ingress span, through
  the pool worker's shipped span delta, onto the v2 wire header, and
  into the server-side egress decode span;
* every degraded-mode branch emits exactly one structured JSON log
  line carrying the frame's trace id;
* an induced latency breach shows up on the live sidecar as
  ``/slo.json`` and as ``culzss_slo_*`` gauges in ``/metrics``;
* the sidecar survives concurrent scrapes and ``culzss top`` renders
  a full refresh from it in plain-text mode.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro import obs
from repro.obs import MetricRegistry
from repro.obs import log as obslog
from repro.obs import trace
from repro.service import GatewayClient, GatewayServer
from repro.service.pipeline import IngressPipeline, decode_payload
from repro.testing import CrashingExecutor


@pytest.fixture(autouse=True)
def clean_obs():
    obs.enable()
    obs.reset()
    obslog.reset_rate_limits()
    yield
    obs.enable()
    obs.reset()
    obslog.reset_rate_limits()


def run_gateway_pair(buffers, *, client_workers=0, metrics=None):
    metrics = metrics or MetricRegistry()
    delivered = []

    async def deliver(sid, seq, data):
        delivered.append(data)

    async def scenario():
        async with GatewayServer(metrics=metrics, deliver=deliver) as server:
            client = GatewayClient(port=server.port, workers=client_workers,
                                   metrics=metrics)
            async with client:
                ack = await client.send_stream(buffers)
            await server.close()
            return ack

    ack = asyncio.run(scenario())
    return ack, delivered


# ------------------------------------------------- trace propagation

@pytest.mark.slow
def test_trace_id_rides_frame_from_client_to_server_decode():
    """client ingress span -> pool worker delta -> v2 wire header ->
    server egress decode span: one 8-byte id end to end."""
    buffers = [b"trace propagation frame %d " % i * 400 for i in range(3)]
    ack, delivered = run_gateway_pair(buffers, client_workers=2)
    assert delivered == buffers and ack.frames == len(buffers)

    spans = [s for s in trace.spans() if s.name == "gateway.frame"]
    encode_tids = {s.trace_id for s in spans if s.attrs.get("op") == "encode"}
    decode_tids = {s.trace_id for s in spans if s.attrs.get("op") == "decode"}
    # every frame got a distinct nonzero id, and the decode (server)
    # side saw exactly the ids the encode (client) side stamped
    assert len(encode_tids) == len(buffers)
    assert all(encode_tids)
    assert decode_tids == encode_tids


# -------------------------------------------------- log correlation

@pytest.mark.slow
def test_worker_crash_log_line_carries_frame_trace_id():
    """The acceptance log test: an injected pool-worker crash produces
    exactly one worker_crash JSON line whose trace_id is the crashed
    frame's wire id."""
    buffers = [b"crash log frame %d " % i * 300 for i in range(3)]
    pipeline = IngressPipeline(workers=2, queue_depth=4,
                               executor=CrashingExecutor(crash_on=1))
    frames = []

    async def send(frame):
        frames.append(frame)

    async def scenario():
        with pipeline:
            await pipeline.run(1, buffers, send)

    with obslog.capture() as cap:
        asyncio.run(scenario())

    assert [decode_payload(f.flags, f.payload) for f in frames] == buffers
    tids = {f.trace_id for f in frames}
    # exactly one log line per counted degraded event (a single pool
    # crash poisons every pending future, so several frames report it)
    crashes = [e for e in cap.events() if e["event"] == "worker_crash"]
    assert len(crashes) == pipeline.metrics.count(
        "ingress.worker_crashes") >= 1
    assert all(e["stage"] == "ingress" for e in crashes)
    assert all(e["trace_id"] in tids and e["trace_id"] != 0
               for e in crashes)
    # the crashed frames then fell back serially: one line each, with
    # the same trace ids
    fallbacks = [e for e in cap.events() if e["event"] == "serial_fallback"]
    assert len(fallbacks) == pipeline.metrics.count(
        "ingress.serial_fallbacks") >= 1
    assert {e["trace_id"] for e in fallbacks} <= {e["trace_id"]
                                                  for e in crashes}
    # and every line in the capture is valid JSON (the lint invariant)
    for line in cap.lines():
        json.loads(line)


def test_salvage_log_line_is_trace_correlated():
    from repro.core import gpu_compress, gpu_decompress
    from repro.testing import corrupt_chunks

    data = bytes(range(256)) * 512
    blob = gpu_compress(data).data
    damaged = corrupt_chunks(blob, [1])
    with obslog.capture() as cap:
        res = gpu_decompress(damaged, errors="salvage")
    assert res.salvage is not None and res.salvage.lost
    events = [e for e in cap.events() if e["event"] == "salvage"]
    assert len(events) == 1
    assert events[0]["lost"] == len(res.salvage.lost)
    assert events[0]["trace_id"] != 0  # joined the api.decompress span


# ------------------------------------------------- slo live sidecar

async def _http_get(host, port, path):
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(f"GET {path} HTTP/1.0\r\nHost: {host}\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), body


@pytest.mark.slow
def test_induced_p99_breach_shows_on_slo_json_and_gauges():
    metrics = MetricRegistry()

    async def scenario():
        async with GatewayServer(metrics=metrics,
                                 metrics_port=0) as server:
            # induce the breach: flood the latency histogram with
            # observations far above the 250 ms objective
            for _ in range(100):
                metrics.observe("egress.stage_wait_seconds", 2.0)
            slo_status, slo_body = await _http_get(
                server.host, server.metrics_port, "/slo.json")
            prom_status, prom_body = await _http_get(
                server.host, server.metrics_port, "/metrics")
            await server.close()
            return slo_status, slo_body, prom_status, prom_body

    slo_status, slo_body, prom_status, prom_body = asyncio.run(scenario())
    assert slo_status == 200 and prom_status == 200
    report = json.loads(slo_body)
    assert not report["ok"]
    p99 = next(o for o in report["objectives"]
               if o["name"] == "frame_p99_seconds")
    assert not p99["ok"]
    assert p99["value"] >= 2.0
    text = prom_body.decode()
    assert "culzss_slo_frame_p99_seconds_ok_last 0.0" in text
    assert "culzss_slo_ok_last 0.0" in text


def test_every_scrape_samples_the_slo_monitor():
    """A scrape before and one after one garbage connection and one
    good stream: the monitor has a sample from before the traffic, so
    ``error_rate`` (1 bad of 2 connections, budget 1%) burns at 50 in
    both windows and alerts."""
    metrics = MetricRegistry()

    async def scenario():
        async with GatewayServer(metrics=metrics, metrics_port=0) as server:
            await _http_get(server.host, server.metrics_port, "/metrics")
            reader, writer = await asyncio.open_connection(server.host,
                                                           server.port)
            writer.write(b"not a frame header" * 4)
            await writer.drain()
            await reader.read()  # the server drops the connection
            writer.close()
            await writer.wait_closed()
            async with GatewayClient(port=server.port, workers=0,
                                     metrics=metrics) as client:
                await client.send_stream([b"slo sample traffic " * 50])
            await server.wait_connections(2)
            status, body = await _http_get(server.host, server.metrics_port,
                                           "/slo.json")
            _, prom = await _http_get(server.host, server.metrics_port,
                                      "/metrics")
            await server.close()
            return status, json.loads(body), prom.decode()

    status, report, prom = asyncio.run(scenario())
    assert status == 200
    errors = next(o for o in report["objectives"]
                  if o["name"] == "error_rate")
    assert (errors["bad"], errors["total"]) == (1.0, 2.0)
    assert [w["burn"] for w in errors["windows"].values()] == [50.0, 50.0]
    assert errors["alerting"]
    assert "culzss_slo_error_rate_alerting_last 1.0" in prom
    assert "culzss_slo_error_rate_burn_60s_last 50.0" in prom


@pytest.mark.slow
def test_sidecar_concurrent_scrapes_and_404():
    metrics = MetricRegistry()

    async def scenario():
        async with GatewayServer(metrics=metrics,
                                 metrics_port=0) as server:
            results = await asyncio.gather(*[
                _http_get(server.host, server.metrics_port,
                          ["/metrics", "/metrics.json", "/slo.json",
                           "/nope"][i % 4])
                for i in range(12)])
            await server.close()
            return results

    results = asyncio.run(scenario())
    statuses = [status for status, _ in results]
    assert statuses.count(404) == 3
    assert statuses.count(200) == 9
    for status, body in results:
        if status == 200:
            assert body  # no torn responses under concurrency


@pytest.mark.slow
def test_top_renders_full_refresh_from_live_sidecar():
    """The acceptance dashboard test: one plain-text refresh against a
    live gateway sidecar shows throughput, latency, and SLO state."""
    from repro.obs.top import run_top

    metrics = MetricRegistry()
    out: list[str] = []

    async def scenario():
        async with GatewayServer(metrics=metrics, metrics_port=0) as server:
            client = GatewayClient(port=server.port, workers=0,
                                   metrics=metrics)
            async with client:
                await client.send_stream(
                    [b"dashboard traffic " * 200 for _ in range(3)])
            loop = asyncio.get_running_loop()
            rc = await loop.run_in_executor(
                None, lambda: run_top(server.host, server.metrics_port,
                                      interval=0.0, iterations=1,
                                      plain=True, out=out.append))
            await server.close()
            return rc

    assert asyncio.run(scenario()) == 0
    text = "\n".join(out)
    assert "culzss top" in text
    assert "throughput" in text
    assert "served" in text and "3 frames" in text
    assert "slo" in text
    assert "frame_p99_seconds" in text and "error_rate" in text
    assert "waiting for sidecar" not in text
