"""Every codec round-trips every chunk shape byte-identically."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codecs import codec_names, get_codec
from repro.codecs.lz4s import LZ4S_MAX_MATCH
from repro.errors import CorruptChunkError
from repro.lzss.formats import CUDA_V2, SERIAL

CHUNK = 4096


def _u8(data: bytes) -> np.ndarray:
    return np.frombuffer(data, dtype=np.uint8)


def chunk_cases() -> list[tuple[str, bytes]]:
    rng = np.random.default_rng(0xC0DEC)
    unique257 = bytes(rng.permutation(256).astype(np.uint8)) + b"\x17"
    return [
        ("one_byte", b"\x42"),
        ("two_bytes", b"ab"),
        ("all_zero", b"\x00" * CHUNK),
        ("long_runs", (b"A" * (LZ4S_MAX_MATCH * 3) + b"B" * 7) * 4),
        # > 128 distinct literals in a row: exercises lz4s control-byte
        # splitting of long literal runs.
        ("long_literal_run", unique257),
        ("text", (b"the quick brown fox jumps over the lazy dog. " * 120)
         [:CHUNK]),
        ("random", rng.integers(0, 256, CHUNK, dtype=np.uint8).tobytes()),
        ("random_short", rng.integers(0, 256, 100, dtype=np.uint8).tobytes()),
        ("periodic", (bytes(range(20)) * 300)[:CHUNK]),
    ]


@pytest.mark.parametrize("codec_name", codec_names())
@pytest.mark.parametrize("case_name,raw",
                         chunk_cases(),
                         ids=[n for n, _ in chunk_cases()])
def test_chunk_round_trip(codec_name, case_name, raw):
    codec = get_codec(codec_name)
    payload = codec.encode_chunk(_u8(raw), CUDA_V2)
    out = codec.decode_chunk(_u8(payload), CUDA_V2, len(raw))
    assert bytes(out) == raw


@pytest.mark.parametrize("codec_name", codec_names())
def test_encode_run_matches_per_chunk_loop(codec_name):
    """The batch hook must be an optimization, not a format change."""
    codec = get_codec(codec_name)
    rng = np.random.default_rng(7)
    pieces = [(b"run run run! " * 400)[:CHUNK],
              rng.integers(0, 256, CHUNK, dtype=np.uint8).tobytes(),
              b"\x00" * CHUNK,
              b"tail chunk, shorter than the rest"]
    data = _u8(b"".join(pieces))
    payload, sizes = codec.encode_run(data, CUDA_V2, CHUNK)
    expected = [codec.encode_chunk(_u8(p), CUDA_V2) for p in pieces]
    assert list(sizes) == [len(p) for p in expected]
    assert payload == b"".join(expected)


@pytest.mark.parametrize("codec_name", ["store", "lz4s"])
def test_format_agnostic_codecs_ignore_token_format(codec_name):
    """store and lz4s never read the token format: payloads are
    identical under any format and decode under any format."""
    codec = get_codec(codec_name)
    raw = (b"format agnostic payload " * 100)[:1800]
    a = codec.encode_chunk(_u8(raw), CUDA_V2)
    b = codec.encode_chunk(_u8(raw), SERIAL)
    assert a == b
    assert bytes(codec.decode_chunk(_u8(a), SERIAL, len(raw))) == raw


def test_store_decode_rejects_size_mismatch():
    codec = get_codec("store")
    with pytest.raises(CorruptChunkError):
        codec.decode_chunk(_u8(b"abc"), CUDA_V2, 5, chunk_index=3)


@pytest.mark.parametrize("codec_name", ["lz4s", "lzss-huffman"])
def test_truncated_payload_raises_corrupt_chunk(codec_name):
    """A short payload can never silently produce the declared size."""
    codec = get_codec(codec_name)
    raw = (b"truncate me, i dare you. " * 80)[:1500]
    payload = codec.encode_chunk(_u8(raw), CUDA_V2)
    with pytest.raises(CorruptChunkError) as exc:
        codec.decode_chunk(_u8(payload[: len(payload) // 2]), CUDA_V2,
                           len(raw), chunk_index=9)
    assert exc.value.chunk_index == 9


def test_lz4s_match_lengths_cover_the_cap():
    """Runs longer than the 131-byte match cap must chain matches."""
    codec = get_codec("lz4s")
    raw = b"x" * (LZ4S_MAX_MATCH * 5 + 3)
    payload = codec.encode_chunk(_u8(raw), CUDA_V2)
    assert len(payload) < len(raw) // 4
    assert bytes(codec.decode_chunk(_u8(payload), CUDA_V2, len(raw))) == raw


def test_lzss_huffman_beats_plain_lzss_on_skewed_bytes():
    """The entropy stage must pay for itself where the dispatcher
    expects it to: low-entropy literals that LZSS spends 9 bits each
    on.  (On tiny or highly-matchable chunks the ~141-byte code-table
    header dominates instead — that is why auto trial-encodes rather
    than predicting.)"""
    rng = np.random.default_rng(3)
    p = 0.5 ** np.arange(32)
    raw = rng.choice(np.arange(32, 64), CHUNK,
                     p=p / p.sum()).astype(np.uint8).tobytes()
    as_lzss = get_codec("lzss").encode_chunk(_u8(raw), CUDA_V2)
    as_huff = get_codec("lzss-huffman").encode_chunk(_u8(raw), CUDA_V2)
    assert len(as_huff) < len(as_lzss)
