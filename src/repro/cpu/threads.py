"""Pthread-style chunked LZSS — the paper's threaded CPU baseline.

§III.A: "Each thread is given with some chunk of the file and the
chunks are compressed concurrently.  After each thread compresses the
given data, individual compressed chunks are reassembled to form the
final output."  That is :class:`repro.engine.ParallelEngine` running the
serial :func:`~repro.lzss.encoder.encode_chunked` and
:func:`~repro.lzss.decoder.decode_chunked_with_stats` over the serial
token format with one chunk per thread: the engine's thread pool runs
the chunks (the vectorized encoder releases the GIL inside NumPy, so
threads genuinely overlap), and the reassembly is the container's chunk
table.

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
from repro.util.validation import require, require_range

__all__ = ["PthreadLzss"]

#: The paper's testbed runs 8 hardware threads (i7 920, 4C/8T).
DEFAULT_THREADS = 8


class PthreadLzss:
    """Chunk-parallel LZSS, one chunk per thread (PBZIP2-style).

    The chunks run on a :class:`~repro.engine.ParallelEngine` of
    ``n_threads`` workers, created on first use and reused across calls
    — thread spawn/join is pure overhead on small buffers, and the
    paper's pthread baseline keeps its workers alive for the whole run.
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

    def decompress(self, result_or_payload, chunk_sizes=None,
                   chunk_size: int | None = None,
                   output_size: int | None = None) -> bytes:
        """Decompress (concurrently) what :meth:`compress` produced."""
        if isinstance(result_or_payload, EncodeResult):
            res = result_or_payload
            payload, chunk_sizes = res.payload, res.chunk_sizes
            chunk_size, output_size = res.chunk_size, res.input_size
        else:
            payload = result_or_payload
            require(chunk_sizes is not None and chunk_size is not None
                    and output_size is not None,
                    "payload decompression needs chunk_sizes/chunk_size/size")
        if output_size == 0:
            return b""  # compress(b"") is one empty, unchunked stream
        return self._get_engine().decode(
            decode_chunked_with_stats, payload, self.format, chunk_sizes,
            chunk_size, output_size)[0]
