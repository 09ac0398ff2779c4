"""Bounded-queue ingress/egress pipelines around the in-memory API.

The paper overlaps CPU and GPU work to keep the device saturated
(§III.D); the service mirrors that shape in asyncio terms.  Ingress is
``read → compress → send`` and egress ``receive → decompress →
deliver``, with a bounded :class:`asyncio.Queue` between the stages so
backpressure propagates to the producer instead of buffering
unboundedly: when the consumer stage falls behind, ``queue.put`` —
and therefore the read loop — blocks.

Compression (the CPU-bound bottleneck) fans out across a
``ProcessPoolExecutor`` of configurable width; frame bytes reach the
pool workers, and results come back, through the executor's pickle
pipe.  Order is preserved for free: the submit stage enqueues
*futures* in sequence order and the drain stage awaits them in that
same order, so up to ``queue_depth`` frames compress concurrently
while frames leave in order.  The egress side additionally reassembles
by sequence number, which makes it robust to duplicated or reordered
frames should transport retries ever introduce them.

Both pipelines only schedule: they never look inside a frame's bytes.
The frame job decides raw or container — :func:`encode_payload` runs
the entropy probe and the expansion guard itself, so each frame is
probed once, in the pool.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import (BrokenExecutor, Executor, ProcessPoolExecutor,
                                ThreadPoolExecutor)
from functools import partial
from time import perf_counter
from typing import AsyncIterator, Awaitable, Callable, Iterable

from repro import obs
from repro.obs import log as obslog
from repro.obs import trace
from repro.obs.registry import MetricRegistry
from repro.service.protocol import FLAG_RAW, FRAME_HEADER_SIZE, Frame
from repro.util.validation import require_range

#: The pool worker died rather than the job failing: a worker killed
#: mid-frame poisons the whole pool (``BrokenProcessPool``).  Survivable
#: per frame, since the frame's input is still in hand.
_CRASH_ERRORS = BrokenExecutor

__all__ = [
    "EgressPipeline",
    "IngressPipeline",
    "decode_payload",
    "encode_payload",
]


def encode_payload(data: bytes, version: int = 2, *,
                   workers: int | None = None,
                   trace_id: int = 0, codec: str = "lzss") -> tuple[int, bytes]:
    """Compress one buffer into ``(flags, payload)``.

    The raw-passthrough guard: if the CULZSS container comes out no
    smaller than the input (random data inverts `highly_compressible`),
    ship the original bytes with :data:`FLAG_RAW` — so a frame never
    expands its buffer by more than :data:`FRAME_HEADER_SIZE` bytes.
    The entropy probe short-circuits obviously incompressible buffers
    to that same raw path before any match search runs (at least 7.9
    bits/byte, :func:`repro.lzss.matcher.probe_incompressible`).

    ``workers`` shards the encode across a :class:`repro.engine.
    ParallelEngine`; ``trace_id`` joins the frame span (and everything
    nested under it — engine shards, encoder stages) to an existing
    :mod:`repro.obs` trace, e.g. the id the ingress stamped on the
    frame header.  ``codec`` selects the container codec per
    :func:`repro.core.gpu_compress` (``"auto"`` engages the per-chunk
    dispatcher and a v3 container).
    """
    from repro.core import CompressionParams, gpu_compress
    from repro.lzss.matcher import probe_incompressible

    data = bytes(data)
    with trace.span("gateway.frame", trace_id=trace_id or None,
                    op="encode", size=len(data)):
        if probe_incompressible(data):
            obslog.event("codec", "store_fallback", scope="frame",
                         reason="probe", size=len(data), trace_id=trace_id)
            return FLAG_RAW, data
        container = gpu_compress(data, CompressionParams(version=version),
                                 workers=workers, codec=codec).data
        if len(container) >= len(data):
            obslog.event("codec", "store_fallback", scope="frame",
                         reason="expanded", size=len(data),
                         container_size=len(container), trace_id=trace_id)
            return FLAG_RAW, data
        return 0, container


def decode_payload(flags: int, payload: bytes, *,
                   workers: int | None = None, trace_id: int = 0) -> bytes:
    """Invert :func:`encode_payload` for one frame payload."""
    with trace.span("gateway.frame", trace_id=trace_id or None,
                    op="decode", size=len(payload)):
        if flags & FLAG_RAW:
            return payload
        from repro.core import gpu_decompress

        return gpu_decompress(payload, workers=workers).data


def _with_delta(job: Callable[[], object]) -> tuple[object, dict | None]:
    """Run one frame job; return its result and this process's obs delta.

    Every frame job runs through here — in a pool worker, on the stage's
    own thread and in the serial fallback — so what a worker recorded
    (metrics, spans, profiler samples) rides home with the result
    (``None`` while instrumentation is off).  In the parent's own
    process the metric merge no-ops and the drained spans are restored.
    """
    result = job()
    return result, (obs.delta() if obs.enabled() else None)


async def _aiter(items) -> AsyncIterator:
    """Adapt a sync or async iterable into an async iterator."""
    if hasattr(items, "__aiter__"):
        async for item in items:
            yield item
    else:
        for item in items:
            yield item


async def _run_both(a: Awaitable, b: Awaitable) -> tuple:
    """Gather two stage coroutines; cancel the sibling on failure.

    Plain ``gather`` would leave the surviving stage blocked on a
    bounded queue forever after its peer dies.
    """
    ta, tb = asyncio.ensure_future(a), asyncio.ensure_future(b)
    try:
        return tuple(await asyncio.gather(ta, tb))
    except BaseException:
        ta.cancel()
        tb.cancel()
        await asyncio.gather(ta, tb, return_exceptions=True)
        raise


class _PooledStage:
    """Shared executor plumbing for the two halves: the process pool,
    its one submit path and its one crash fallback."""

    def __init__(self, workers: int, queue_depth: int,
                 metrics: MetricRegistry | None,
                 executor: Executor | None) -> None:
        require_range(queue_depth, 1, 1 << 16, "queue_depth")
        require_range(workers, 0, 256, "workers")
        self.workers = workers
        self.queue_depth = queue_depth
        self.metrics = metrics or MetricRegistry()
        self._executor = executor
        self._owns_executor = executor is None
        self._pool_rebuilt = False
        self._pool_dead = False

    def _pool(self) -> Executor | None:
        """``workers`` processes, or one thread the stage owns when
        ``workers == 0``; ``None`` (the loop's default pool) once dead."""
        if (self._executor is None and self._owns_executor
                and not self._pool_dead):
            # The initializer starts a sampling profiler in each worker
            # when REPRO_PROFILE_HZ is set (``--profile`` exports cover
            # pool workers too); it is a no-op otherwise.
            self._executor = (
                ProcessPoolExecutor(max_workers=self.workers,
                                    initializer=obs.prof.init_worker)
                if self.workers else ThreadPoolExecutor(max_workers=1))
        return self._executor

    def _crashed(self, stage: str, trace_id: int = 0) -> None:
        """A worker died: count it and rebuild the pool (at most once).

        A ``BrokenProcessPool`` poisons every pending future, so the
        crash retires the executor; frames already submitted to it fail
        over to the serial path one by one while new frames go to the
        replacement :meth:`_pool` builds.  A *second* crash marks the
        pool dead instead of churning replacements — every remaining
        frame runs serially.  Injected executors are never rebuilt (the
        caller owns them); their frames just fall back serially.
        """
        self.metrics.inc(f"{stage}.worker_crashes")
        obslog.event("service", "worker_crash", stage=stage,
                     trace_id=trace_id,
                     pool_rebuilt_before=self._pool_rebuilt)
        if not self._owns_executor or self._executor is None:
            return
        broken, self._executor = self._executor, None
        try:
            # No cancel_futures: a broken pool has already failed its
            # pending futures, and cancelling would turn the in-flight
            # ones the drain stage still awaits into CancelledError.
            broken.shutdown(wait=False)
        except Exception:
            pass
        if self._pool_rebuilt:
            self._pool_dead = True
        self._pool_rebuilt = True

    def _submit(self, stage: str, tid: int, job: Callable) -> asyncio.Future:
        """Hand one frame's job (a picklable no-argument callable) to the
        pool; returns the future of its :func:`_with_delta` pair.

        A broken pool at submit time counts a crash and retries once on
        the rebuilt pool; if that fails too, the frame degrades to the
        loop's default thread pool (``{stage}.serial_fallbacks``).
        """
        loop = asyncio.get_running_loop()
        for _attempt in range(2):
            try:
                return loop.run_in_executor(self._pool(),
                                            partial(_with_delta, job))
            except _CRASH_ERRORS:
                self._crashed(stage, tid)
        return self._serial(stage, tid, job, at="submit")

    async def _result(self, fut: asyncio.Future, stage: str, tid: int,
                      seq: int, job: Callable):
        """Await a :meth:`_submit` future, fold its obs delta in and
        return the job's result; if the worker died holding the frame,
        re-run ``job`` serially (the input is still in hand)."""
        try:
            result, delta = await fut
        except _CRASH_ERRORS:
            self._crashed(stage, tid)
            result, delta = await self._serial(stage, tid, job, at="result",
                                               seq=seq)
        obs.merge_delta(delta)
        return result

    def _serial(self, stage: str, tid: int, job: Callable,
                **where) -> asyncio.Future:
        """Count, log and run one frame on the loop's default pool."""
        self.metrics.inc(f"{stage}.serial_fallbacks")
        obslog.event("service", "serial_fallback", stage=stage,
                     trace_id=tid, **where)
        return asyncio.get_running_loop().run_in_executor(
            None, partial(_with_delta, job))

    def close(self) -> None:
        if self._owns_executor and self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class IngressPipeline(_PooledStage):
    """read → compress (process pool) → send, in sequence order.

    ``workers`` is the compression fan-out width (0 = compress one frame
    at a time on a thread the stage owns — useful for tests); ``queue_depth``
    bounds frames in flight between the stages, which is both the
    parallelism cap and the backpressure bound.

    ``codec`` parameterizes the stock encode job (see
    :func:`encode_payload`); it is a plain attribute, so the gateway
    client may still downgrade it after negotiation and the next
    :meth:`run` picks the change up.  Custom ``job`` callables ignore
    it.
    """

    def __init__(self, version: int = 2, workers: int = 2,
                 queue_depth: int = 8, metrics: MetricRegistry | None = None,
                 executor: Executor | None = None,
                 job: Callable[[bytes, int], tuple[int, bytes]] | None = None,
                 codec: str = "lzss") -> None:
        super().__init__(workers, queue_depth, metrics, executor)
        self.version = version
        self.codec = codec
        self._job = job

    async def run(self, stream_id: int,
                  buffers: Iterable[bytes] | AsyncIterator[bytes],
                  send: Callable[[Frame], Awaitable[None]]) -> int:
        """Push every buffer through compression and ``send``; returns
        the number of data frames emitted."""
        self._pool()  # build eagerly so the first frame pays no setup
        jobs: asyncio.Queue = asyncio.Queue(maxsize=self.queue_depth)
        m = self.metrics
        stock = self._job is None
        # Stock frames get a trace id, stamped on the wire header.
        traced = stock and obs.enabled()
        codec = self.codec

        async def submit() -> int:
            seq = 0
            async for raw in _aiter(buffers):
                data = bytes(raw)
                tid = trace.new_trace_id() if traced else 0
                if stock:
                    job = partial(encode_payload, data, self.version,
                                  trace_id=tid, codec=codec)
                else:
                    job = partial(self._job, data, self.version)
                fut = self._submit("ingress", tid, job)
                enq = perf_counter()
                await jobs.put((seq, data, enq, fut, tid, job))
                m.gauge("ingress.queue_depth", jobs.qsize())
                seq += 1
            await jobs.put(None)
            return seq

        async def drain() -> None:
            while (item := await jobs.get()) is not None:
                seq, data, enq, fut, tid, job = item
                n_in = len(data)
                flags, payload = await self._result(fut, "ingress", tid, seq,
                                                    job)
                m.observe("ingress.stage_wait_seconds", perf_counter() - enq)
                frame = Frame(stream_id=stream_id, seq=seq, flags=flags,
                              payload=payload, trace_id=tid)
                m.inc("ingress.frames_out")
                m.inc("ingress.bytes_in", n_in)
                m.inc("ingress.bytes_out", frame.wire_size)
                if flags & FLAG_RAW:
                    m.inc("ingress.raw_frames")
                if n_in:
                    m.observe("ingress.frame_ratio", frame.wire_size / n_in)
                with obs.stage("transport.send", bytes=frame.wire_size):
                    await send(frame)

        n_frames, _ = await _run_both(submit(), drain())
        return n_frames


class EgressPipeline(_PooledStage):
    """receive → decompress → deliver, reassembled in sequence order.

    Decompression is much cheaper than compression, so ``workers``
    defaults to 0: one owned thread decodes a frame at a time (no
    pickling; frames never share the GIL, so each decode span is its
    own).  Frames are delivered strictly by per-stream sequence number:
    gaps are held, duplicates dropped and counted.  The reorder buffer
    is bounded at ``queue_depth`` held frames per stream — a frame
    arriving while its stream's buffer is full is dropped and counted
    in ``egress.reorder_evictions``, so a peer that skips a sequence
    number forever cannot grow the buffer without limit (the transport
    retry resends dropped frames).
    """

    def __init__(self, workers: int = 0, queue_depth: int = 8,
                 metrics: MetricRegistry | None = None,
                 executor: Executor | None = None,
                 job: Callable[[int, bytes], bytes] | None = None) -> None:
        super().__init__(workers, queue_depth, metrics, executor)
        self._job = job

    async def run(self, frames: Iterable[Frame] | AsyncIterator[Frame],
                  deliver: Callable[[int, int, bytes], Awaitable[None]],
                  on_end: Callable[[int, int], Awaitable[None]] | None = None,
                  ) -> int:
        """Deliver every data frame in order; returns frames delivered.

        ``END`` frames flow through the same bounded queue, so by the
        time ``on_end`` fires every earlier frame of the connection has
        been delivered — that is what makes the ACK a delivery receipt
        rather than a reception receipt.
        """
        self._pool()  # build eagerly so the first frame pays no setup
        jobs: asyncio.Queue = asyncio.Queue(maxsize=self.queue_depth)
        m = self.metrics

        async def submit() -> None:
            async for frame in _aiter(frames):
                if frame.is_end:
                    await jobs.put((frame, None, None, None))
                    continue
                if self._job is None:
                    # Looked up per frame, so a wrapper installed on the
                    # module attribute is seen.
                    job = partial(decode_payload, frame.flags, frame.payload,
                                  trace_id=frame.trace_id)
                else:
                    job = partial(self._job, frame.flags, frame.payload)
                fut = self._submit("egress", frame.trace_id, job)
                await jobs.put((frame, perf_counter(), fut, job))
                m.gauge("egress.queue_depth", jobs.qsize())
            await jobs.put(None)

        async def drain() -> int:
            next_seq: dict[int, int] = {}
            held: dict[int, dict[int, bytes]] = {}
            delivered = 0
            while (item := await jobs.get()) is not None:
                frame, enq, fut, job = item
                sid = frame.stream_id
                if frame.is_end:
                    if on_end is not None:
                        await on_end(sid, frame.seq)
                    continue
                data = await self._result(fut, "egress", frame.trace_id,
                                          frame.seq, job)
                m.observe("egress.stage_wait_seconds", perf_counter() - enq)
                m.inc("egress.frames_in")
                m.inc("egress.bytes_in", frame.wire_size)
                m.inc("egress.bytes_out", len(data))
                want = next_seq.get(sid, 0)
                if frame.seq < want or frame.seq in held.get(sid, ()):
                    m.inc("egress.duplicate_frames")
                    continue
                if frame.seq > want:
                    bucket = held.setdefault(sid, {})
                    if len(bucket) >= self.queue_depth:
                        m.inc("egress.reorder_evictions")
                        continue
                    bucket[frame.seq] = data
                    m.gauge("egress.reorder_depth", len(bucket))
                    continue
                await deliver(sid, want, data)
                delivered += 1
                want += 1
                bucket = held.get(sid, {})
                while want in bucket:
                    await deliver(sid, want, bucket.pop(want))
                    delivered += 1
                    want += 1
                next_seq[sid] = want
            return delivered

        _, delivered = await _run_both(submit(), drain())
        return delivered
