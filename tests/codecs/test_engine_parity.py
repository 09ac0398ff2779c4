"""Sharded auto-encode/multi-decode must be byte-identical to serial.

Codec choices are chunk-local statistics, so the ParallelEngine can
shard an auto encode without changing a single decision — these tests
are the proof the service layer relies on when it fans mixed-codec
frames across workers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.codecs.dispatch import encode_chunked_auto
from repro.engine import ParallelEngine
from repro.lzss.decoder import decode_chunked_with_stats
from repro.lzss.formats import CUDA_V2

CHUNK = 2048


@pytest.fixture(scope="module")
def corpus() -> bytes:
    rng = np.random.default_rng(0xE9)
    return ((b"engine parity corpus, compressible segment. " * 200)[:3 * CHUNK]
            + rng.integers(0, 256, 3 * CHUNK, dtype=np.uint8).tobytes()
            + b"\x00" * (2 * CHUNK)
            + rng.integers(0, 181, 2 * CHUNK, dtype=np.uint8).tobytes()
            + b"tail")


@pytest.fixture(scope="module")
def engine():
    with ParallelEngine(workers=3) as eng:
        yield eng


@pytest.mark.parametrize("codec", ["auto", "lzss", "lz4s", "store",
                                   "lzss-huffman"])
def test_sharded_encode_is_byte_identical(engine, corpus, codec):
    data = np.frombuffer(corpus, dtype=np.uint8)
    serial = encode_chunked_auto(data, CUDA_V2, CHUNK, codec=codec)
    sharded = engine.encode(encode_chunked_auto, data, CUDA_V2, CHUNK,
                            codec=codec)
    assert sharded.payload == serial.payload
    assert list(sharded.chunk_sizes) == list(serial.chunk_sizes)
    assert list(sharded.chunk_codecs) == list(serial.chunk_codecs)


def test_sharded_multi_decode_round_trips(engine, corpus):
    data = np.frombuffer(corpus, dtype=np.uint8)
    result = encode_chunked_auto(data, CUDA_V2, CHUNK, codec="auto")
    out, _, _ = decode_chunked_with_stats(
        result.payload, CUDA_V2, result.chunk_sizes, CHUNK, len(corpus),
        chunk_codecs=result.chunk_codecs, engine=engine)
    assert out == corpus


def test_sharded_salvage_merges_unknown_codec_reports(engine, corpus):
    data = np.frombuffer(corpus, dtype=np.uint8)
    result = encode_chunked_auto(data, CUDA_V2, CHUNK, codec="auto")
    bad = result.chunk_codecs.copy()
    victims = [0, int(bad.size) - 1]
    for v in victims:
        bad[v] = 0xEE
    got, _, report = decode_chunked_with_stats(
        result.payload, CUDA_V2, result.chunk_sizes, CHUNK, len(corpus),
        chunk_codecs=bad, errors="salvage", fill_byte=0x5A, engine=engine)
    _, _, serial_report = decode_chunked_with_stats(
        result.payload, CUDA_V2, result.chunk_sizes, CHUNK, len(corpus),
        chunk_codecs=bad, errors="salvage", fill_byte=0x5A)
    assert sorted(report.unknown_codec) == victims
    assert sorted(report.lost) == sorted(serial_report.lost)
    assert sorted(report.recovered) == sorted(serial_report.recovered)
    assert got[CHUNK:2 * CHUNK] == corpus[CHUNK:2 * CHUNK]
    assert got[:CHUNK] == b"\x5a" * CHUNK
