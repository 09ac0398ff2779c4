"""Property-style byte-identity tests for the parallel chunked codec.

The engine's whole contract is "sharding is invisible": for any worker
count, chunk size, and token format, the merged container must equal
the serial one byte for byte — payload, chunk table, stats counters,
and the detail arrays the GPU cost models consume.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CompressionParams, gpu_compress, gpu_decompress
from repro.engine import ParallelEngine, get_engine, shard_chunk_runs
from repro.engine.parallel import MIN_PARALLEL_BYTES
from repro.lzss.decoder import decode_chunked_with_stats
from repro.lzss.encoder import encode_chunked
from repro.lzss.formats import CUDA_V2
from repro.util.buffers import as_u8


def assert_results_identical(parallel, serial, collect_detail=False):
    assert parallel.payload == serial.payload
    assert np.array_equal(parallel.chunk_sizes, serial.chunk_sizes)
    assert parallel.input_size == serial.input_size
    assert parallel.chunk_size == serial.chunk_size
    ps, ss = parallel.stats, serial.stats
    assert (ps.n_tokens, ps.n_literals, ps.n_pairs) == \
        (ss.n_tokens, ss.n_literals, ss.n_pairs)
    assert (ps.sum_match_length, ps.total_bits, ps.output_size) == \
        (ss.sum_match_length, ss.total_bits, ss.output_size)
    if collect_detail:
        for name in ("per_warp_compares", "token_starts"):
            assert np.array_equal(getattr(ps, name), getattr(ss, name)), name


# ------------------------------------------------------------ sharding

@pytest.mark.parametrize("n,chunk_size,shards", [
    (0, 4096, 4), (1, 4096, 4), (4096, 4096, 4), (4097, 4096, 2),
    (100_000, 4096, 3), (100_000, 100, 7), (20_000, 4096, 100),
])
def test_shard_runs_are_chunk_aligned_and_cover(n, chunk_size, shards):
    bounds = shard_chunk_runs(n, chunk_size, shards)
    assert bounds[0][0] == 0 and bounds[-1][1] == n
    for (lo, hi), (lo2, _hi2) in zip(bounds, bounds[1:]):
        assert hi == lo2
    chunk_counts = []
    for lo, hi in bounds:
        assert lo % chunk_size == 0
        assert hi == n or hi % chunk_size == 0
        chunk_counts.append(-(-max(hi - lo, 0) // chunk_size))
    if n > 0:
        assert max(chunk_counts) - min(chunk_counts) <= 1


# ------------------------------------------------------- byte identity

@pytest.mark.parametrize("workers", [2, 3, 8])
@pytest.mark.parametrize("chunk_size", [4096, 1024, 100])
def test_parallel_encode_byte_identical(text_data, fmt, workers, chunk_size):
    arr = as_u8(text_data)
    serial = encode_chunked(arr, fmt, chunk_size)
    with ParallelEngine(workers=workers, min_parallel_bytes=0) as engine:
        parallel = engine.encode(encode_chunked, arr, fmt, chunk_size)
    assert_results_identical(parallel, serial)


@pytest.mark.parametrize("chunk_size", [4096, 256])
def test_parallel_encode_detail_arrays_identical(text_data, chunk_size):
    arr = as_u8(text_data)
    serial = encode_chunked(arr, CUDA_V2, chunk_size, collect_detail=True)
    with ParallelEngine(workers=4, min_parallel_bytes=0) as engine:
        parallel = engine.encode(encode_chunked, arr, CUDA_V2, chunk_size,
                                 collect_detail=True)
    assert_results_identical(parallel, serial, collect_detail=True)


def test_detail_with_unaligned_chunk_size_falls_back_to_serial(text_data):
    # 100 % 32 != 0: per-warp rows would straddle shard seams, so the
    # engine must take the serial path — and still be identical.
    arr = as_u8(text_data)
    serial = encode_chunked(arr, CUDA_V2, 100, collect_detail=True)
    with ParallelEngine(workers=4, min_parallel_bytes=0) as engine:
        parallel = engine.encode(encode_chunked, arr, CUDA_V2, 100,
                                 collect_detail=True)
    assert_results_identical(parallel, serial, collect_detail=True)


@pytest.mark.parametrize("data", [b"", b"x", b"ab" * 3])
def test_edge_buffers_match_serial(data, fmt):
    serial = encode_chunked(as_u8(data), fmt, 4096)
    with ParallelEngine(workers=4, min_parallel_bytes=0) as engine:
        parallel = engine.encode(encode_chunked, as_u8(data), fmt, 4096)
    assert_results_identical(parallel, serial)


def test_incompressible_buffer_matches_serial(binary_data, fmt):
    serial = encode_chunked(as_u8(binary_data), fmt, 1024)
    with ParallelEngine(workers=3, min_parallel_bytes=0) as engine:
        parallel = engine.encode(encode_chunked, as_u8(binary_data), fmt,
                                 1024)
    assert_results_identical(parallel, serial)


def test_parallel_decode_round_trip(text_data, fmt):
    arr = as_u8(text_data)
    result = encode_chunked(arr, fmt, 1024)
    serial_out, serial_tokens, _ = decode_chunked_with_stats(
        result.payload, fmt, result.chunk_sizes, 1024, result.input_size)
    with ParallelEngine(workers=4, min_parallel_bytes=0) as engine:
        out, tokens, _ = engine.decode(
            decode_chunked_with_stats, result.payload, fmt,
            result.chunk_sizes, 1024, result.input_size)
    assert out == serial_out == text_data
    assert np.array_equal(tokens, serial_tokens)


def test_gpu_compress_workers_container_identical(text_data):
    params = CompressionParams(version=2)
    data = text_data * -(-MIN_PARALLEL_BYTES // len(text_data))
    assert len(data) >= MIN_PARALLEL_BYTES  # so the shared engine shards
    serial = gpu_compress(data, params)
    parallel = gpu_compress(data, params, workers=3)
    out = gpu_decompress(parallel.data, workers=3)
    assert parallel.data == serial.data
    assert out.data == data


# ----------------------------------------------------- pool lifecycle

def test_pool_is_created_once_and_reused(text_data):
    engine = ParallelEngine(workers=2, min_parallel_bytes=0)
    try:
        engine.encode(encode_chunked, as_u8(text_data), CUDA_V2, 1024)
        pool = engine._pool
        assert pool is not None
        engine.encode(encode_chunked, as_u8(text_data), CUDA_V2, 1024)
        assert engine._pool is pool
    finally:
        engine.close()
    assert engine._pool is None


def test_closed_engine_refuses_parallel_work(text_data):
    engine = ParallelEngine(workers=2, min_parallel_bytes=0)
    engine.close()
    engine.close()  # idempotent
    with pytest.raises(ValueError):
        engine.encode(encode_chunked, as_u8(text_data), CUDA_V2, 1024)


def test_shard_exception_reaches_caller(text_data):
    # No crash fallback: a shard's own error is neither swallowed nor
    # re-run serially, it surfaces from the call.
    def job_bug(*args, **kwargs):
        raise RuntimeError("job bug")

    with ParallelEngine(workers=4, min_parallel_bytes=0) as engine:
        with pytest.raises(RuntimeError, match="job bug"):
            engine.encode(job_bug, as_u8(text_data), CUDA_V2, 1024)
        assert engine._pool is not None  # the sharded path ran


def test_small_buffers_stay_serial(text_data):
    # Below min_parallel_bytes the engine must not even spin a pool up.
    engine = ParallelEngine(workers=4)
    result = engine.encode(encode_chunked, as_u8(text_data), CUDA_V2, 4096)
    assert engine._pool is None
    assert_results_identical(result, encode_chunked(as_u8(text_data),
                                                    CUDA_V2, 4096))


def test_get_engine_caches_per_worker_count():
    assert get_engine(2) is get_engine(2)
    assert get_engine(2) is not get_engine(3)
