"""Multicore chunked codec: one buffer, all cores, byte-identical output.

The paper's premise is that LZSS over independent chunks is
embarrassingly parallel — CULZSS gives every chunk (V1) or every
position (V2) a GPU thread.  On the CPU we already exploit that shape
*between* buffers (the service's process-pool fan-out) but a single
``gpu_compress`` call ran its whole match → parse → tokenize → pack
pipeline on one core.  :class:`ParallelEngine` runs work items on a
persistent thread pool — NumPy releases the GIL inside the vector
kernels.  :meth:`ParallelEngine.map` is its one fan-out: ``encode``
maps a chunk-local encoder over chunk-aligned shards and merges the
per-shard token streams and chunk tables into an
:class:`~repro.lzss.encoder.EncodeResult` that is **byte-identical** to
one call of that encoder, and the chunked decoder
(:func:`repro.lzss.decoder.decode_chunked_with_stats`, given an
``engine``) maps its own independently decodable runs.  A one-thread
engine is the serial path of ``gpu_compress``, ``gpu_decompress`` and
the V1/V2 compressors, and the paper's Pthread baseline,
:class:`repro.cpu.PthreadLzss`, is this engine over the serial token
format with one chunk per thread.

Byte-identity holds because every stage is chunk-local: matches never
cross chunk boundaries (the lag matcher zeroes window prefixes, the
hash chain keys its buckets by chunk id), the greedy/lazy/optimal parse
restarts at every chunk, and each chunk's bit stream is padded to a
byte boundary.  Shards are always chunk-aligned runs, so sharding can
only regroup work, never change it — asserted property-style in
``tests/engine/test_parallel.py``.
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from time import perf_counter

import numpy as np

from repro import obs
from repro.lzss.encoder import EncodeResult
from repro.lzss.formats import TokenFormat
from repro.lzss.stats import EncodeStats
from repro.obs import trace
from repro.util.buffers import as_u8
from repro.util.validation import require, require_range

__all__ = ["ParallelEngine", "get_engine", "merge_encode_results",
           "shard_chunk_runs", "shutdown_default_engines"]

#: Below this many input bytes the fork/join overhead outweighs the
#: parallel win; the engine makes one direct call instead.
MIN_PARALLEL_BYTES = 1 << 17


def shard_chunk_runs(n: int, chunk_size: int, shards: int) -> list[tuple[int, int]]:
    """Split ``[0, n)`` into ≤ ``shards`` chunk-aligned byte runs.

    Every boundary is a multiple of ``chunk_size`` (the invariant that
    makes sharding invisible to the codec); chunk counts per shard
    differ by at most one.
    """
    require_range(chunk_size, 1, 1 << 40, "chunk_size")
    n_chunks = (n + chunk_size - 1) // chunk_size
    shards = max(1, min(shards, n_chunks))
    if n_chunks == 0:
        return [(0, 0)]
    base, extra = divmod(n_chunks, shards)
    bounds: list[tuple[int, int]] = []
    lo_chunk = 0
    for s in range(shards):
        hi_chunk = lo_chunk + base + (1 if s < extra else 0)
        bounds.append((lo_chunk * chunk_size, min(hi_chunk * chunk_size, n)))
        lo_chunk = hi_chunk
    return bounds


def _concat_detail(parts: list[np.ndarray | None],
                   offsets: list[int] | None = None) -> np.ndarray | None:
    """Concatenate optional per-shard detail arrays (None-propagating).

    ``offsets`` rebases position-indexed arrays (token starts) into the
    full-buffer coordinate space.
    """
    if any(p is None for p in parts):
        return None
    if offsets is None:
        return np.concatenate(parts)
    return np.concatenate([p + off for p, off in zip(parts, offsets)])


def merge_encode_results(parts: list[EncodeResult], fmt: TokenFormat,
                         chunk_size: int, input_size: int) -> EncodeResult:
    """Reassemble per-shard chunked encodes into one result.

    The inverse of :func:`shard_chunk_runs`: payloads and chunk tables
    concatenate in shard order, counters sum, and the detail arrays the
    GPU cost models consume (per-warp lockstep compares, token starts)
    concatenate, token starts rebased to the full buffer.
    """
    require(len(parts) > 0, "nothing to merge")
    payload = b"".join(p.payload for p in parts)
    chunk_sizes = np.concatenate(
        [np.asarray(p.chunk_sizes, dtype=np.int64) for p in parts])

    offsets = []
    off = 0
    for p in parts:
        offsets.append(off)
        off += p.input_size

    stats_parts = [p.stats for p in parts]
    stats = EncodeStats(
        input_size=input_size,
        output_size=len(payload),
        n_tokens=sum(s.n_tokens for s in stats_parts),
        n_literals=sum(s.n_literals for s in stats_parts),
        n_pairs=sum(s.n_pairs for s in stats_parts),
        sum_match_length=sum(s.sum_match_length for s in stats_parts),
        total_bits=sum(s.total_bits for s in stats_parts),
        per_warp_compares=_concat_detail(
            [s.per_warp_compares for s in stats_parts]),
        token_starts=_concat_detail(
            [s.token_starts for s in stats_parts], offsets),
    )
    return EncodeResult(payload=payload, format=fmt, input_size=input_size,
                        chunk_sizes=chunk_sizes, chunk_size=chunk_size,
                        stats=stats,
                        chunk_codecs=_concat_detail(
                            [p.chunk_codecs for p in parts]))


class ParallelEngine:
    """Persistent thread pool behind one fan-out, :meth:`map`.

    One engine owns one :class:`ThreadPoolExecutor`, created lazily on
    the first call that fans out and reused for every subsequent one —
    the pool-churn that made per-call parallelism a wash on small
    buffers is paid once.  A one-thread engine is the serial path:
    :meth:`map` runs its items on the calling thread and never builds a
    pool.  Close explicitly (or use it as a context manager); the
    process-wide engines from :func:`get_engine` are closed atexit.

    An item's exception reaches the caller unchanged, after every other
    item has finished.  There is no crash fallback: a thread cannot die
    under its job the way a process pool worker can, and a
    ``ThreadPoolExecutor`` only breaks when a thread initializer fails
    — the engine installs none.
    """

    def __init__(self, workers: int | None = None,
                 min_parallel_bytes: int = MIN_PARALLEL_BYTES) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        require_range(workers, 1, 1024, "workers")
        self.workers = workers
        self.min_parallel_bytes = min_parallel_bytes
        self._pool: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()
        self._closed = False

    # ---------------------------------------------------------- plumbing

    def _get_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            require(not self._closed, "engine is closed")
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="repro-engine")
            return self._pool

    def close(self) -> None:
        """Shut the pool down; idempotent."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ParallelEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ----------------------------------------------------------- fan-out

    def map(self, fn, items: list, nbytes: int) -> list:
        """``[fn(x) for x in items]``, fanned out when it pays.

        A one-thread engine, a single item, or fewer than
        ``min_parallel_bytes`` bytes of work (``nbytes``) runs the items
        in order on the calling thread.  Otherwise each item runs on
        the pool as an ``engine.shard`` stage.  Contextvars do not cross
        thread-pool boundaries on their own: the caller's span context
        is captured once and attached inside every worker, so shard
        spans parent correctly.  The call waits for every item before it
        returns or raises, so no work outlives it; results come back in
        item order, and when items raise, the first one's exception in
        item order reaches the caller.
        """
        if (self.workers <= 1 or len(items) <= 1
                or nbytes < self.min_parallel_bytes):
            return [fn(x) for x in items]
        pool = self._get_pool()
        obs.inc("engine.shards", len(items))
        ctx = trace.current()
        submit_t = perf_counter()

        def run(idx: int, item):
            with trace.attach(ctx):
                obs.observe("engine.queue_wait_seconds",
                            perf_counter() - submit_t)
                with obs.stage("engine.shard", shard=idx):
                    return fn(item)

        futures = [pool.submit(run, i, x) for i, x in enumerate(items)]
        wait(futures)
        return [fut.result() for fut in futures]

    # ------------------------------------------------------------- codec

    def encode(self, fn, data, fmt: TokenFormat, chunk_size: int,
               **kwargs) -> EncodeResult:
        """Run the chunk-local encoder ``fn`` over ``data``, sharded.

        ``fn(arr, fmt, chunk_size, **kwargs)`` is a serial chunked
        encoder — :func:`repro.lzss.encoder.encode_chunked` or
        :func:`repro.codecs.encode_chunked_auto`.  A one-thread engine,
        a buffer below ``min_parallel_bytes`` or a single chunk means
        one direct ``fn`` call; otherwise :meth:`map` encodes each of
        :func:`shard_chunk_runs`' shards and
        :func:`merge_encode_results` joins the parts, byte-identical to
        the direct call for any worker count.  Per-warp detail rows need
        warp-aligned shard seams, so ``collect_detail`` with a chunk
        size that is not a multiple of 32 runs as one call.
        """
        arr = as_u8(data)
        n = arr.size
        if (self.workers <= 1 or n < self.min_parallel_bytes
                or kwargs.get("collect_detail") and chunk_size % 32):
            bounds = [(0, n)]
        else:
            bounds = shard_chunk_runs(n, chunk_size, self.workers)
        if len(bounds) <= 1:
            return fn(arr, fmt, chunk_size, **kwargs)
        parts = self.map(
            lambda b: fn(arr[b[0]:b[1]], fmt, chunk_size, **kwargs),
            bounds, n)
        return merge_encode_results(parts, fmt, chunk_size, n)


# ------------------------------------------------------- default engines

_DEFAULT_ENGINES: dict[int, ParallelEngine] = {}
_DEFAULT_LOCK = threading.Lock()


def get_engine(workers: int | None = None) -> ParallelEngine:
    """Process-wide shared engine for ``workers`` threads.

    Engines are cached per worker count so repeated ``gpu_compress(...,
    workers=4)`` calls reuse one pool; all cached engines are shut down
    atexit (or explicitly via :func:`shutdown_default_engines`).
    """
    if workers is None:
        workers = os.cpu_count() or 1
    with _DEFAULT_LOCK:
        engine = _DEFAULT_ENGINES.get(workers)
        if engine is None:
            engine = _DEFAULT_ENGINES[workers] = ParallelEngine(workers)
        return engine


def shutdown_default_engines() -> None:
    """Close every engine :func:`get_engine` has handed out."""
    with _DEFAULT_LOCK:
        engines = list(_DEFAULT_ENGINES.values())
        _DEFAULT_ENGINES.clear()
    for engine in engines:
        engine.close()


atexit.register(shutdown_default_engines)
