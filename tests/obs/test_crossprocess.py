"""Worker-side metrics surface in the parent: engine and pool paths.

Two transports to cover: the :class:`ParallelEngine` (worker threads
write straight into the process-global registry) and the service
pipelines' process pool (workers ship an :func:`repro.obs.delta` home
with each job result, folded in at drain).  The pool path must keep
reporting through injected worker crashes — the crash itself becomes a
counter.
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro import obs
from repro.core import CompressionParams, gpu_compress
from repro.engine import ParallelEngine
from repro.lzss.encoder import encode_chunked
from repro.lzss.formats import CUDA_V2
from repro.obs import trace
from repro.service.pipeline import IngressPipeline, decode_payload
from repro.service.protocol import Frame

CHUNK = 4096
DATA = (b"observability crosses process boundaries " * 64
        + bytes(range(256))) * 96  # ~270 KiB, compressible


# -------------------------------------------------------------- engine

def test_engine_shard_counters_and_spans_in_parent():
    with ParallelEngine(workers=2, min_parallel_bytes=0) as engine:
        with trace.span("caller"):
            engine.encode(encode_chunked, DATA, CUDA_V2, CHUNK)
    snap = obs.get_registry().snapshot()
    assert snap["counters"]["engine.shards"] >= 2
    assert snap["counters"]["matcher.lag_calls"] >= 2
    assert snap["histograms"]["engine.shard_seconds"]["count"] >= 2
    assert snap["histograms"]["engine.queue_wait_seconds"]["count"] >= 2
    # shard spans parent to the caller's span across the pool threads
    by_name = {}
    for s in trace.spans():
        by_name.setdefault(s.name, []).append(s)
    caller = by_name["caller"][0]
    assert all(s.parent_id == caller.span_id
               for s in by_name["engine.shard"])


def test_sharded_encode_ledger_has_the_serial_stage_set():
    # An engine.shard row would contain its own shard's match, parse and
    # pack rows: the shard stage must stay out of the byte ledger.
    stage_sets = []
    for workers in (None, 2):
        obs.reset()
        gpu_compress(DATA, CompressionParams(version=2), workers=workers)
        snap = obs.get_registry().snapshot()
        stage_sets.append({row["stage"] for row in obs.ledger(snap)})
    assert snap["counters"]["engine.shards"] == 2
    assert stage_sets[0] == stage_sets[1] == {
        "encode.match", "encode.parse", "encode.pack", "container.pack",
        "model"}


# ---------------------------------------------------- pipeline (pool)

def _run_ingress(pipeline: IngressPipeline,
                 buffers: list[bytes]) -> list[Frame]:
    frames: list[Frame] = []

    async def send(frame: Frame) -> None:
        frames.append(frame)

    async def scenario() -> None:
        with pipeline:
            await pipeline.run(7, buffers, send)

    asyncio.run(scenario())
    return frames


@pytest.mark.slow
def test_pool_worker_deltas_merge_into_parent_registry():
    buffers = [b"pipeline obs frame %d " % i * 400 for i in range(3)]
    frames = _run_ingress(IngressPipeline(workers=2, queue_depth=4), buffers)

    assert [decode_payload(f.flags, f.payload) for f in frames] == buffers
    # every frame got its own trace id, carried on the v2 wire header
    tids = [f.trace_id for f in frames]
    assert all(tids) and len(set(tids)) == len(tids)

    # worker-side codec counters landed here via the shipped deltas
    snap = obs.get_registry().snapshot()
    assert snap["counters"]["matcher.lag_calls"] >= len(buffers)
    assert snap["histograms"]["encode.match_seconds"]["count"] \
        >= len(buffers)

    # worker spans were ingested: foreign pids, grouped by frame trace
    shipped = [s for s in trace.spans() if s.pid != os.getpid()]
    assert shipped
    assert {s.trace_id for s in shipped
            if s.name == "gateway.frame"} == set(tids)


@pytest.mark.slow
def test_pool_crash_keeps_reporting():
    """A worker crash degrades the frame to an inline rerun; the rerun
    writes the parent registry directly and the stream still reports."""
    from repro.testing import CrashingExecutor

    buffers = [b"crash survivor frame %d " % i * 300 for i in range(3)]
    pipeline = IngressPipeline(workers=2, queue_depth=4,
                               executor=CrashingExecutor(crash_on=1))
    frames = _run_ingress(pipeline, buffers)

    assert [decode_payload(f.flags, f.payload) for f in frames] == buffers
    assert pipeline.metrics.count("ingress.worker_crashes") >= 1
    snap = obs.get_registry().snapshot()
    # inline executor + serial fallback both run in-process: their
    # counters are already here, and the same-pid delta merge must not
    # have double-counted the stage timings against the frame count
    assert snap["counters"]["matcher.lag_calls"] >= len(buffers)
    assert snap["histograms"]["encode.match_seconds"]["count"] \
        == len(buffers)
