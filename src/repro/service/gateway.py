"""TCP gateway endpoints: the §III compress/ship/decompress pair.

:class:`GatewayServer` is the egress gateway — it accepts connections,
runs each through an :class:`~repro.service.pipeline.EgressPipeline`,
hands the reassembled buffers to a ``deliver`` callback, and answers
each stream's ``END`` frame with an ``ACK`` carrying the delivered
frame count, byte count, and a running CRC-32 — a delivery receipt the
ingress side can verify end-to-end.

:class:`GatewayClient` is the ingress gateway — it compresses a buffer
stream through an :class:`~repro.service.pipeline.IngressPipeline`
(process-pool fan-out, bounded queue) and writes frames to the server,
with bounded retry-with-backoff on connection establishment, a
per-operation timeout on every read and write, and ACK verification.

Failure model: :func:`retry_with_backoff` absorbs *transient* failures
(refused/aborted connects, send timeouts under momentary pressure).  A
connection lost mid-stream is not transparently resumed — the server's
per-connection sequence state is gone — so it surfaces to the caller,
who still owns the original buffers and can resend the stream; the
egress reassembly dedupes any frames that made it through twice.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass
from typing import Awaitable, Callable

from repro import obs
from repro.obs import log as obslog
from repro.obs.export import (
    json_text,
    ledger,
    merge_snapshots,
    prometheus_text,
    speedscope_doc,
)
from repro.obs.registry import MetricRegistry
from repro.obs.slo import SloMonitor
from repro.service.pipeline import EgressPipeline, IngressPipeline
from repro.service.protocol import (
    FLAG_ACK,
    FLAG_END,
    FLAG_NEG,
    Frame,
    FrameError,
    pack_ack,
    pack_neg,
    read_frame,
    unpack_ack,
    unpack_neg,
    write_frame,
)
from repro.util.checksum import crc32

__all__ = ["GatewayClient", "GatewayServer", "StreamAck", "retry_with_backoff"]


def _codec_id_set(codecs) -> frozenset[int]:
    """Normalize a mix of codec names and ids into a set of wire ids.

    ``None`` means "everything the registry knows" — resolved at call
    time so late-registered codecs are included.
    """
    from repro.codecs import get_codec, known_codec_ids

    if codecs is None:
        return known_codec_ids()
    return frozenset(get_codec(c).codec_id for c in codecs)

#: Exception types worth retrying: refused/reset connections, socket
#: errors, and operation timeouts (asyncio.TimeoutError is distinct
#: from TimeoutError before 3.11).
TRANSIENT_ERRORS = (ConnectionError, OSError, TimeoutError,
                    asyncio.TimeoutError)

#: Hard cap on one ``/profile?seconds=N`` sampling window.
_PROFILE_MAX_SECONDS = 30.0

#: Seconds a sidecar request may take to arrive, and again to render
#: and send its response (``/profile`` adds its sampling window).
_SIDECAR_TIMEOUT = 2.0


def _profile_seconds(query: str) -> float:
    """The sampling window of a ``/profile?seconds=N`` query: N clamped
    to [0.1, 30], or 2 when N is absent, unparsable or not finite."""
    params = dict(p.split("=", 1) for p in query.split("&") if "=" in p)
    try:
        seconds = float(params.get("seconds", 2.0))
    except ValueError:
        seconds = 2.0
    if not math.isfinite(seconds):
        seconds = 2.0
    return min(max(seconds, 0.1), _PROFILE_MAX_SECONDS)


def _profile_window(path: str) -> float:
    """Extra render-budget seconds a sidecar request needs: the sampling
    window for ``/profile``, zero for every other path."""
    path, _, query = path.partition("?")
    return _profile_seconds(query) if path == "/profile" else 0.0


async def retry_with_backoff(fn: Callable[[], Awaitable], *,
                             retries: int = 3, base_delay: float = 0.05,
                             transient: tuple = TRANSIENT_ERRORS,
                             metrics: MetricRegistry | None = None,
                             name: str = "op"):
    """Run ``fn`` with up to ``retries`` retries on transient errors.

    Exponential backoff doubles from ``base_delay`` and saturates at
    2 s; the final failure propagates unchanged.
    """
    delay = base_delay
    for attempt in range(retries + 1):
        try:
            return await fn()
        except transient:
            if metrics is not None:
                metrics.inc(f"retry.{name}")
            obslog.warn_limited("service", "retry", op=name,
                                attempt=attempt, retries=retries)
            if attempt == retries:
                raise
            await asyncio.sleep(delay)
            delay = min(delay * 2, 2.0)


@dataclass(frozen=True)
class StreamAck:
    """The egress gateway's delivery receipt for one stream."""

    frames: int
    bytes: int
    crc: int

    @classmethod
    def from_payload(cls, payload: bytes) -> "StreamAck":
        frames, byte_count, crc = unpack_ack(payload)
        return cls(frames=frames, bytes=byte_count, crc=crc)

    def matches(self, buffers) -> bool:
        """Does this receipt match what we sent, byte for byte?"""
        crc = 0
        total = count = 0
        for data in buffers:
            crc = crc32(bytes(data), crc)
            total += len(data)
            count += 1
        return (self.frames, self.bytes, self.crc) == (count, total, crc)


class _StreamState:
    """Per-stream delivery accounting for the ACK receipt."""

    __slots__ = ("frames", "bytes", "crc")

    def __init__(self) -> None:
        self.frames = 0
        self.bytes = 0
        self.crc = 0

    def account(self, data: bytes) -> None:
        self.frames += 1
        self.bytes += len(data)
        self.crc = crc32(data, self.crc)


class GatewayServer:
    """The egress gateway: accept, decompress, deliver, acknowledge.

    ``deliver`` is an async ``(stream_id, seq, data)`` callback invoked
    strictly in sequence order per stream; ``None`` counts and discards
    (a sink gateway).  ``timeout`` bounds each frame read and each ACK
    write per connection, so a dead peer cannot pin a handler forever.

    ``metrics_port`` opens a sidecar HTTP listener on the same host
    serving ``GET /metrics`` (Prometheus text exposition),
    ``GET /metrics.json`` (the same snapshot as JSON),
    ``GET /slo.json`` (the SLO monitor's judgement),
    ``GET /healthz`` (200 + uptime JSON, cheap enough for fleet
    probes), and ``GET /profile?seconds=N`` (sample the process for N
    seconds, answer a speedscope document).  The scrape is the union
    of the gateway's own :class:`~repro.obs.MetricRegistry` and the
    process-global :mod:`repro.obs` registry, so gateway counters and
    codec-layer counters (matcher probes, encoder stage timings,
    container CRC events, engine shard stats) land in one page.  Pass
    ``0`` to bind an ephemeral port (read it back from
    ``metrics_port`` after :meth:`start`); ``None`` (the default)
    disables the sidecar.

    Every sidecar request gets 2 s to arrive and 2 s more to render and
    send its response, the body renders in a worker thread (a big
    registry cannot stall the event loop mid-scrape), and unknown paths
    get a plain 404 — concurrent scrapers see slow responses at worst,
    never hangs or tracebacks.

    The sidecar judges a :class:`repro.obs.slo.SloMonitor` over
    :func:`repro.obs.slo.default_objectives`.  Every ``/metrics``,
    ``/metrics.json`` and ``/slo.json`` request feeds the monitor one
    sample (the Prometheus cadence is the sampling cadence), and its
    judgement lands both in ``/slo.json`` and as ``culzss_slo_*``
    gauges in ``/metrics``.

    ``accept_codecs`` is the set of container codecs (names or wire
    ids) this gateway answers for in the ``NEG`` handshake; ``None``
    accepts every codec the registry knows.  The handshake is
    advisory — the decode side always trusts the self-describing
    container and raises on genuinely unknown codec ids — but a client
    that honors its receipt never ships a container this gateway would
    refuse.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 workers: int = 0, queue_depth: int = 8,
                 timeout: float = 30.0, metrics: MetricRegistry | None = None,
                 metrics_port: int | None = None,
                 accept_codecs=None,
                 deliver: Callable[[int, int, bytes], Awaitable[None]]
                 | None = None) -> None:
        self.host = host
        self.port = port
        self.workers = workers
        self.accept_codecs = accept_codecs
        self.queue_depth = queue_depth
        self.timeout = timeout
        self.metrics = metrics or MetricRegistry()
        self.metrics_port = metrics_port
        self.slo = SloMonitor()
        self._deliver = deliver
        self._server: asyncio.AbstractServer | None = None
        self._metrics_server: asyncio.AbstractServer | None = None
        self._handlers: set[asyncio.Task] = set()
        self._conns_done = asyncio.Event()
        self._conns_seen = 0
        self._started: float | None = None

    async def start(self) -> None:
        self._started = time.monotonic()
        self._server = await asyncio.start_server(self._on_connection,
                                                  self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        if self.metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._on_metrics_connection, self.host, self.metrics_port)
            self.metrics_port = \
                self._metrics_server.sockets[0].getsockname()[1]

    def metrics_snapshot(self) -> dict:
        """Gateway metrics merged with the process-global registry."""
        return merge_snapshots(obs.get_registry().snapshot(),
                               self.metrics.snapshot())

    def _record_ledger(self, snapshot: dict) -> None:
        """Refresh ``ledger.*`` gauges from one merged snapshot.

        Every stage reporting the ``bytes=`` dimension gets a pair of
        gauges — ``ledger.{stage}.mb_s`` and ``ledger.{stage}.share`` —
        so Prometheus scrapes carry per-stage throughput without the
        scraper re-deriving it from counters and histogram sums.
        """
        for row in ledger(snapshot):
            self.metrics.gauge(f"ledger.{row['stage']}.mb_s", row["mb_s"])
            self.metrics.gauge(f"ledger.{row['stage']}.share", row["share"])

    def _render_profile(self, query: str) -> tuple[str, str, bytes]:
        """Sample for ``seconds=N`` (default 2) and answer speedscope JSON.

        Runs in the sidecar's worker thread, so the sleep never blocks
        the event loop.  If no profiler is running one is started for
        the window, at the profiler's own rate (``REPRO_PROFILE_HZ`` or
        97 Hz), and stopped after; an already-running profiler (e.g.
        ``serve --profile``) is windowed by snapshot diff instead, so
        the request never disturbs its accumulation.  The export covers
        every pid known at the end of the window — pool workers whose
        deltas merged during the window appear next to the parent.
        """
        import json

        from repro.obs import prof

        seconds = _profile_seconds(query)
        owned = not prof.running()
        if owned:
            prof.start()
        before = prof.profiles()
        time.sleep(seconds)
        after = prof.profiles()
        if owned:
            prof.stop()
        window = prof.diff_profiles(before, after)
        doc = speedscope_doc(window, name=f"culzss gateway ({seconds:g}s)")
        self.metrics.inc("sidecar.profile_requests")
        return ("200 OK", "application/json",
                (json.dumps(doc) + "\n").encode())

    def _render_sidecar(self, path: str) -> tuple[str, str, bytes]:
        """Build one sidecar response; runs in a worker thread.

        Snapshotting and rendering are pure CPU over locked registries,
        so moving them off the event loop keeps frame traffic flowing
        while a (possibly huge) scrape serializes.  SLO sampling rides
        the scrape: every metrics or SLO request takes one merged
        snapshot, feeds it to the monitor, and refreshes the ``slo.*``
        and ``ledger.*`` gauges from it *before* the served snapshot is
        taken, so the scrape that detects a breach also reports it.
        """
        path, _, query = path.partition("?")
        if path == "/healthz":
            import json

            uptime = (time.monotonic() - self._started
                      if self._started is not None else 0.0)
            body = json.dumps({"status": "ok",
                               "uptime_seconds": round(uptime, 3),
                               "connections": self._conns_seen}) + "\n"
            return "200 OK", "application/json", body.encode()
        if path == "/profile":
            return self._render_profile(query)
        if path not in ("/metrics", "/metrics.json", "/slo.json"):
            return ("404 Not Found", "text/plain",
                    b"try /metrics, /metrics.json, /slo.json, /healthz "
                    b"or /profile?seconds=N\n")
        snap = self.metrics_snapshot()
        self.slo.observe(snap)
        report = self.slo.record_gauges(self.metrics, snap)
        self._record_ledger(snap)
        if path == "/slo.json":
            import json

            return ("200 OK", "application/json",
                    (json.dumps(report, indent=2) + "\n").encode())
        snap = self.metrics_snapshot()  # re-taken: includes slo gauges
        if path == "/metrics":
            return ("200 OK", "text/plain; version=0.0.4",
                    prometheus_text(snap).encode())
        return "200 OK", "application/json", json_text(snap).encode()

    async def _on_metrics_connection(self, reader: asyncio.StreamReader,
                                     writer: asyncio.StreamWriter) -> None:
        """One-shot HTTP/1.0 exchange: parse the request line, respond.

        Deliberately minimal — no keep-alive, no chunked bodies; it
        exists for ``curl`` and Prometheus scrapers, both of which are
        happy with connection-close semantics.  Reading the request and
        rendering the response are each bounded by ``_SIDECAR_TIMEOUT``
        seconds (``/profile`` additionally gets its requested sampling
        window on top) and any failure closes the connection without
        touching the listener, so a stuck or malicious scraper costs
        one socket, never the sidecar.
        """

        async def read_request() -> str:
            request = await reader.readline()
            parts = request.decode("latin-1", "replace").split()
            path = parts[1] if len(parts) >= 2 else ""
            # Drain the remaining request headers up to the blank line.
            while True:
                line = await reader.readline()
                if line in (b"", b"\r\n", b"\n"):
                    break
            return path

        async def respond(path: str) -> None:
            loop = asyncio.get_running_loop()
            status, ctype, body = await loop.run_in_executor(
                None, self._render_sidecar, path)
            writer.write(
                f"HTTP/1.0 {status}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n".encode() + body)
            await writer.drain()

        try:
            path = await asyncio.wait_for(read_request(), _SIDECAR_TIMEOUT)
            # A profile request deliberately blocks for its sampling
            # window; extend the render budget by exactly that much.
            budget = _SIDECAR_TIMEOUT + _profile_window(path)
            await asyncio.wait_for(respond(path), budget)
        except (ConnectionError, OSError, asyncio.TimeoutError,
                TimeoutError):
            pass
        except Exception as exc:  # a render bug must not kill the sidecar
            obslog.event("service", "sidecar_error",
                         exc_type=type(exc).__name__, exc=str(exc))
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # CancelledError lands here when the server closes while
                # an exchange is in flight; the coroutine ends on the
                # next line either way, so swallowing it only silences
                # the event loop's "exception never retrieved" noise.
                pass

    async def __aenter__(self) -> "GatewayServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    def _on_connection(self, reader: asyncio.StreamReader,
                       writer: asyncio.StreamWriter) -> None:
        task = asyncio.ensure_future(self._handle(reader, writer))
        self._handlers.add(task)
        task.add_done_callback(self._handler_done)

    def _handler_done(self, task: asyncio.Task) -> None:
        self._handlers.discard(task)
        self._conns_seen += 1
        self._conns_done.set()
        self._conns_done.clear()

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        m = self.metrics
        m.inc("server.connections")
        streams: dict[int, _StreamState] = {}

        async def frames():
            while True:
                frame = await read_frame(reader, timeout=self.timeout)
                if frame is None:
                    return
                if frame.is_neg:
                    # Codec negotiation rides the data connection but
                    # never reaches the egress pipeline: answer with
                    # the intersection and keep reading.
                    offered = unpack_neg(frame.payload)
                    accepted = offered & _codec_id_set(self.accept_codecs)
                    await write_frame(
                        writer,
                        Frame(stream_id=frame.stream_id, seq=frame.seq,
                              flags=FLAG_NEG, payload=pack_neg(accepted)),
                        timeout=self.timeout)
                    m.inc("server.neg_exchanges")
                    obslog.event("service", "codec_negotiation",
                                 offered=sorted(offered),
                                 accepted=sorted(accepted))
                    continue
                yield frame

        async def deliver(stream_id: int, seq: int, data: bytes) -> None:
            streams.setdefault(stream_id, _StreamState()).account(data)
            if self._deliver is not None:
                await self._deliver(stream_id, seq, data)
            m.inc("server.frames_delivered")
            m.inc("server.bytes_delivered", len(data))

        async def on_end(stream_id: int, seq: int) -> None:
            state = streams.get(stream_id, _StreamState())
            ack = Frame(stream_id=stream_id, seq=seq, flags=FLAG_ACK,
                        payload=pack_ack(state.frames, state.bytes,
                                         state.crc))
            await write_frame(writer, ack, timeout=self.timeout)
            m.inc("server.streams_acked")

        egress = EgressPipeline(workers=self.workers,
                                queue_depth=self.queue_depth, metrics=m)
        try:
            with egress:
                await egress.run(frames(), deliver, on_end=on_end)
        except (FrameError, ConnectionError, asyncio.TimeoutError,
                TimeoutError) as exc:
            m.inc("server.connection_errors")
            m.inc(f"server.errors.{type(exc).__name__}")
            obslog.event("service", "connection_error",
                         exc_type=type(exc).__name__, exc=str(exc))
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def close(self, drain: bool = True,
                    drain_timeout: float = 10.0) -> None:
        """Stop accepting; by default let in-flight connections finish.

        Graceful drain waits up to ``drain_timeout`` seconds for active
        handlers before cancelling them.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
        pending = list(self._handlers)
        if pending and drain:
            _, pending = await asyncio.wait(pending, timeout=drain_timeout)
            pending = list(pending)
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

    async def wait_connections(self, n: int) -> None:
        """Block until ``n`` connections have completed (for harnesses)."""
        while self._conns_seen < n:
            await self._conns_done.wait()


class GatewayClient:
    """The ingress gateway: compress a buffer stream and ship it.

    ``workers``/``queue_depth`` size the compression fan-out and the
    backpressure bound; ``retries``/``backoff`` govern transient-error
    retry on connect; ``timeout`` bounds each frame write and the ACK
    read.

    ``codec`` selects the container codec for outgoing frames (any
    registered name, or ``"auto"`` for the per-chunk dispatcher).
    Frames the incompressibility probe finds near-random (at least 7.9
    bits/byte) ship raw whatever the codec.  A non-default codec
    triggers a ``NEG`` handshake on connect: the client offers the
    codec ids it may emit and, if the egress gateway does not accept
    them all, falls back to the classic LZSS pipeline
    (``client.codec_fallbacks``) rather than ship containers the peer
    would refuse.  The peer's answer is kept in ``accepted_codecs``.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 version: int = 2, workers: int = 2, queue_depth: int = 8,
                 timeout: float = 30.0, retries: int = 3,
                 backoff: float = 0.05, metrics: MetricRegistry | None = None,
                 codec: str = "lzss") -> None:
        self.host = host
        self.port = port
        self.version = version
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.codec = codec
        self.accepted_codecs: frozenset[int] | None = None
        self.metrics = metrics or MetricRegistry()
        self._ingress = IngressPipeline(version=version, workers=workers,
                                        queue_depth=queue_depth,
                                        metrics=self.metrics,
                                        codec=codec)
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def connect(self) -> None:
        async def _open():
            return await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port), self.timeout)

        self._reader, self._writer = await retry_with_backoff(
            _open, retries=self.retries, base_delay=self.backoff,
            metrics=self.metrics, name="connect")
        self.metrics.inc("client.connects")
        if self.codec != "lzss":
            await self._negotiate()

    async def _negotiate(self) -> None:
        """Offer our codec-id set; downgrade to lzss on a short answer."""
        from repro.codecs import get_codec

        offered = (_codec_id_set(None) if self.codec == "auto"
                   else frozenset({get_codec(self.codec).codec_id}))
        await write_frame(self._writer,
                          Frame(stream_id=0, seq=0, flags=FLAG_NEG,
                                payload=pack_neg(offered)),
                          timeout=self.timeout)
        reply = await read_frame(self._reader, timeout=self.timeout)
        if reply is None or not reply.is_neg:
            raise FrameError(
                "gateway closed during codec negotiation")
        self.accepted_codecs = unpack_neg(reply.payload)
        self.metrics.inc("client.neg_exchanges")
        if not offered <= self.accepted_codecs:
            self.metrics.inc("client.codec_fallbacks")
            obslog.event("service", "codec_fallback",
                         requested=self.codec, offered=sorted(offered),
                         accepted=sorted(self.accepted_codecs))
            self.codec = "lzss"
        self._ingress.codec = self.codec

    async def __aenter__(self) -> "GatewayClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def send_stream(self, buffers, stream_id: int = 0,
                          verify: bool = True) -> StreamAck:
        """Compress and send ``buffers`` as one stream; await the ACK.

        With ``verify`` (and a re-iterable ``buffers``), the ACK is
        checked against the sent bytes and a mismatch raises
        :class:`FrameError` — the end-to-end "data looks the same going
        in as coming out" guarantee, enforced per stream.
        """
        if self._writer is None:
            await self.connect()

        async def send(frame: Frame) -> None:
            await retry_with_backoff(
                lambda: write_frame(self._writer, frame,
                                    timeout=self.timeout),
                retries=self.retries, base_delay=self.backoff,
                transient=(TimeoutError, asyncio.TimeoutError),
                metrics=self.metrics, name="send")

        n_frames = await self._ingress.run(stream_id, buffers, send)
        await write_frame(self._writer,
                          Frame(stream_id=stream_id, seq=n_frames,
                                flags=FLAG_END),
                          timeout=self.timeout)
        ack_frame = await read_frame(self._reader, timeout=self.timeout)
        if ack_frame is None or not ack_frame.is_ack:
            raise FrameError("gateway closed the stream without an ACK")
        ack = StreamAck.from_payload(ack_frame.payload)
        self.metrics.inc("client.streams_acked")
        if verify and hasattr(buffers, "__iter__") \
                and not hasattr(buffers, "__next__"):
            if not ack.matches(buffers):
                raise FrameError(
                    f"delivery receipt mismatch: sent {n_frames} frames, "
                    f"egress delivered {ack.frames} frames/{ack.bytes} bytes")
        return ack

    async def close(self) -> None:
        self._ingress.close()
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None
            self._reader = None
