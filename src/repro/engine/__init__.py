"""Multicore compression engine: the package's one shard runner.

:mod:`repro.engine.parallel` — :class:`ParallelEngine`, a persistent
thread pool with one fan-out, ``map``.  Encode maps the chunk-local
encoder it is handed over chunk-aligned shards of one buffer and merges
the result **byte-identically** to one serial call; the chunked decoder
maps its own runs over it (the in-memory API's ``workers=`` parameter;
width 1 is the serial path).
"""

from repro.engine.parallel import (
    ParallelEngine,
    get_engine,
    merge_encode_results,
    shard_chunk_runs,
    shutdown_default_engines,
)

__all__ = [
    "ParallelEngine",
    "get_engine",
    "merge_encode_results",
    "shard_chunk_runs",
    "shutdown_default_engines",
]
