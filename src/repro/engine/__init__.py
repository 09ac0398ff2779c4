"""Multicore compression engine: the parallel chunk codec.

:mod:`repro.engine.parallel` — :class:`ParallelEngine`, a persistent
thread-pool codec that shards one buffer's chunked encode/decode across
cores and merges the result **byte-identically** to the serial path
(the in-memory API's ``workers=`` parameter).
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
