"""Pthread-style chunked LZSS — the paper's threaded CPU baseline.

§III.A: "Each thread is given with some chunk of the file and the
chunks are compressed concurrently.  After each thread compresses the
given data, individual compressed chunks are reassembled to form the
final output."  That is :class:`repro.engine.ParallelEngine` running the
serial :func:`~repro.lzss.encoder.encode_chunked` over the serial token
format with one chunk per thread: the engine's thread pool runs the
chunks (the vectorized encoder releases the GIL inside NumPy, so
threads genuinely overlap), and the reassembly is the container's chunk
table.  Decompression hands the same engine to
:func:`~repro.lzss.decoder.decode_chunked_with_stats`, which fans its
chunk runs out over it.

The *timing model* for the 2011 testbed lives in
:class:`repro.model.cpu.PthreadModel`; this class is the functional
system.
"""

from __future__ import annotations

import os

from repro.engine import ParallelEngine
from repro.lzss.decoder import decode_chunked_with_stats
from repro.lzss.encoder import EncodeResult, encode, encode_chunked
from repro.lzss.formats import SERIAL
from repro.util.buffers import as_u8
from repro.util.validation import require_range

__all__ = ["PthreadLzss"]

#: The paper's testbed runs 8 hardware threads (i7 920, 4C/8T).
DEFAULT_THREADS = 8


class PthreadLzss:
    """Chunk-parallel LZSS, one chunk per thread (PBZIP2-style).

    The chunks run on a :class:`~repro.engine.ParallelEngine` of
    ``n_threads`` workers, created on first use and reused across calls
    — thread spawn/join is pure overhead on small buffers, and the
    paper's pthread baseline keeps its workers alive for the whole run.
    :meth:`compress` encodes one chunk per worker; :meth:`decompress`
    takes the :class:`~repro.lzss.encoder.EncodeResult` that
    :meth:`compress` returned and lets the decoder fan its chunk runs
    out over the same engine.
    Call :meth:`close` (or use the instance as a context manager) to
    release the threads; a closed instance transparently re-opens on
    next use.
    """

    format = SERIAL

    def __init__(self, n_threads: int | None = None,
                 parse: str = "greedy") -> None:
        if n_threads is None:
            n_threads = min(DEFAULT_THREADS, os.cpu_count() or 1)
        self.n_threads = n_threads
        require_range(self.n_threads, 1, 1024, "n_threads")
        self.parse = parse
        self._engine = None

    def _get_engine(self):
        if self._engine is None:
            self._engine = ParallelEngine(self.n_threads,
                                          min_parallel_bytes=0)
        return self._engine

    def close(self) -> None:
        """Shut the worker pool down; idempotent."""
        engine, self._engine = self._engine, None
        if engine:
            engine.close()

    def __enter__(self) -> "PthreadLzss":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def compress(self, data) -> EncodeResult:
        """Compress one chunk per thread concurrently; reassemble."""
        arr = as_u8(data)
        if arr.size == 0:
            return encode(b"", self.format)
        return self._get_engine().encode(
            encode_chunked, arr, self.format, -(-arr.size // self.n_threads),
            parse=self.parse)

    def decompress(self, result: EncodeResult) -> bytes:
        """Decompress (concurrently) what :meth:`compress` returned."""
        if result.input_size == 0:
            return b""  # compress(b"") is one empty, unchunked stream
        return decode_chunked_with_stats(
            result.payload, self.format, result.chunk_sizes,
            result.chunk_size, result.input_size,
            engine=self._get_engine())[0]
