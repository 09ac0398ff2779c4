"""The content-aware dispatcher: choices, encoding, accounting, decode."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import obs
from repro.codecs import (
    LZ4S_CODEC_ID,
    LZSS_CODEC_ID,
    LZSS_HUFFMAN_CODEC_ID,
    STORE_CODEC_ID,
)
from repro.codecs.dispatch import (
    MIN_PROBE_CHUNK,
    choose_chunk_codec,
    encode_chunked_auto,
    match_density,
)
from repro.core.api import gpu_compress, gpu_decompress
from repro.datasets import generate
from repro.datasets.tunable import generate_tunable
from repro.errors import CorruptChunkError
from repro.lzss.decoder import decode_chunked_with_stats
from repro.lzss.encoder import encode_chunked
from repro.lzss.formats import CUDA_V2
from repro.lzss.matcher import PROBE_BYTE_ENTROPY_BITS
from repro.obs import log as obslog

CHUNK = 4096
RNG = np.random.default_rng(0xD15BA7C4)

RANDOM = RNG.integers(0, 256, CHUNK, dtype=np.uint8)
TEXT = np.frombuffer(
    (b"dispatch the codec that fits the content of the chunk. " * 120)
    [:CHUNK], dtype=np.uint8)
ZEROS = np.zeros(CHUNK, dtype=np.uint8)
# High byte entropy (~7.5 bits, below the 7.9 probe ceiling) but almost
# no repeating 4-grams: the lz4s sweet spot.
SPARSE = RNG.integers(0, 181, CHUNK, dtype=np.uint8)


def mixed_corpus() -> bytes:
    """One buffer whose chunks want different codecs."""
    return (TEXT.tobytes() + RANDOM.tobytes() + ZEROS.tobytes()
            + SPARSE.tobytes() + b"short tail")


# ------------------------------------------------------------- choosing

def test_match_density_extremes():
    assert match_density(ZEROS) == pytest.approx(1.0, abs=1e-3)
    assert match_density(RANDOM) < 0.01
    assert match_density(np.zeros(4, dtype=np.uint8)) == 0.0  # too small


def test_choose_routes_by_content():
    assert choose_chunk_codec(RANDOM) == "store"
    assert choose_chunk_codec(SPARSE) == "lz4s"
    assert choose_chunk_codec(ZEROS) == "trial"   # low entropy, match-rich
    assert choose_chunk_codec(TEXT) in ("lzss", "trial")


def test_tiny_chunks_skip_the_statistics():
    tiny = RANDOM[:MIN_PROBE_CHUNK - 1]
    assert choose_chunk_codec(tiny) == "lzss"


# ------------------------------------------------------------- encoding

def test_lzss_mode_is_byte_identical_to_classic_path():
    data = np.frombuffer(mixed_corpus(), dtype=np.uint8)
    classic = encode_chunked(data, CUDA_V2, CHUNK)
    via_auto = encode_chunked_auto(data, CUDA_V2, CHUNK, codec="lzss")
    assert via_auto.payload == classic.payload
    assert list(via_auto.chunk_sizes) == list(classic.chunk_sizes)
    assert (via_auto.chunk_codecs == LZSS_CODEC_ID).all()


def test_auto_assigns_per_chunk_codecs_and_round_trips():
    raw = mixed_corpus()
    data = np.frombuffer(raw, dtype=np.uint8)
    result = encode_chunked_auto(data, CUDA_V2, CHUNK, codec="auto")
    ids = list(result.chunk_codecs)
    # chunk 1 is pure random → store; chunk 2 zeros → a trial winner;
    # chunk 3 sparse → lz4s; the final short tail stays lzss.
    assert ids[1] == STORE_CODEC_ID
    assert ids[2] in (LZSS_CODEC_ID, LZSS_HUFFMAN_CODEC_ID)
    assert ids[3] == LZ4S_CODEC_ID
    assert ids[4] == LZSS_CODEC_ID
    out, tokens, _ = decode_chunked_with_stats(
        result.payload, CUDA_V2, result.chunk_sizes, CHUNK, len(raw),
        chunk_codecs=result.chunk_codecs)
    assert out == raw
    assert (tokens == 0).all()  # mixed streams have no token accounting


@pytest.mark.parametrize("codec,expected_id", [
    ("store", STORE_CODEC_ID), ("lz4s", LZ4S_CODEC_ID),
    ("lzss-huffman", LZSS_HUFFMAN_CODEC_ID)])
def test_forced_single_codec_mode(codec, expected_id):
    raw = mixed_corpus()
    data = np.frombuffer(raw, dtype=np.uint8)
    result = encode_chunked_auto(data, CUDA_V2, CHUNK, codec=codec)
    assert (result.chunk_codecs == expected_id).all()
    out, _, _ = decode_chunked_with_stats(
        result.payload, CUDA_V2, result.chunk_sizes, CHUNK, len(raw),
        chunk_codecs=result.chunk_codecs)
    assert out == raw


def test_auto_never_meaningfully_worse_than_lzss():
    """The issue's acceptance bar: ratio(auto) <= ratio(lzss) * 1.01."""
    data = np.frombuffer(mixed_corpus(), dtype=np.uint8)
    auto = encode_chunked_auto(data, CUDA_V2, CHUNK, codec="auto")
    lzss = encode_chunked(data, CUDA_V2, CHUNK)
    assert len(auto.payload) <= len(lzss.payload) * 1.01


#: ``gpu_compress(codec="auto")`` of 64 KiB seed-1 inputs: the codec id
#: each 4 KiB chunk was routed to (1 store, 2 lzss, 3 lz4s,
#: 4 lzss-huffman), and the container's (len, SHA-256).
AUTO_ROUTES = {
    "cfiles": ("4444444444444444", 35359,
        "1e4e9815f28d9be68c5fa30a7aee2d8c"
        "669be7af328fc9567cb85ae33f0307f7"),
    "demap": ("4424444244442442", 20418,
        "baf56ea93ecc16c9c33a148144ef9df6"
        "e989767261a2deb6dd70dca4556a019a"),
    "dictionary": ("4444444444444444", 36377,
        "7c9adc194db9e6ab6ddeae7c6241428a"
        "aff7d0409594ab717c0a979e85f73057"),
    "kernel_tarball": ("4444444444442224", 39435,
        "a48ddfad6511aa8b7df458a7c0eabca1"
        "ea42c5b62c2bb7132758cef841f119b8"),
    "highly_compressible": ("2222222222222222", 3752,
        "de87e0829db4314948e06a7531274d91"
        "5f94b24b5cb52dc0c4348f6d5003c2a6"),
    "random": ("1111111111111111", 65712,
        "ad81a3156bd00066f9561b79beb286f5"
        "c00cbdf41903c1de02a3d6c71b207ccb"),
    "tunable": ("2322222121113213", 63963,
        "ee5fd0afcadb36c2bf02d4b8f39fdde4"
        "9a5f1cf5c0b0b35496fc166eff1fa988"),
}


def _seed1_input(name: str) -> bytes:
    size = 64 << 10
    if name == "random":
        return np.random.default_rng(1).integers(0, 256, size,
                                                 dtype=np.uint8).tobytes()
    if name == "tunable":
        return generate_tunable(size, 0.05, seed=1)
    return generate(name, size, seed=1)


@pytest.mark.parametrize("name", list(AUTO_ROUTES))
def test_auto_routes_and_bytes_frozen(name):
    data = _seed1_input(name)
    buf = gpu_compress(data, codec="auto")
    column = "".join(map(str, buf.result.chunk_codecs.tolist()))
    assert (column, len(buf.data), hashlib.sha256(buf.data).hexdigest()) \
        == AUTO_ROUTES[name]
    assert gpu_decompress(buf.data).data == data


def test_empty_and_unknown_inputs():
    empty = encode_chunked_auto(b"", CUDA_V2, CHUNK, codec="auto")
    assert empty.payload == b""
    assert empty.chunk_codecs.size == 0
    out, _, _ = decode_chunked_with_stats(b"", CUDA_V2, empty.chunk_sizes,
                                          CHUNK, 0,
                                          chunk_codecs=empty.chunk_codecs)
    assert out == b""
    with pytest.raises(KeyError):
        encode_chunked_auto(b"x" * 100, CUDA_V2, CHUNK, codec="snappy")


# ------------------------------------------------------- observability

def test_store_fallback_emits_counter_and_log_line():
    data = np.concatenate([RANDOM, TEXT, RANDOM])
    before = obs.get_registry().snapshot()["counters"].get(
        "codec.store_fallbacks", 0)
    with obslog.capture() as cap:
        encode_chunked_auto(data, CUDA_V2, CHUNK, codec="auto")
    after = obs.get_registry().snapshot()["counters"]["codec.store_fallbacks"]
    assert after - before == 2
    events = [e for e in cap.events() if e["event"] == "store_fallback"]
    assert len(events) == 2
    assert {e["chunk"] for e in events} == {0, 2}
    assert all(e["scope"] == "chunk" for e in events)
    assert all(e["threshold"] == PROBE_BYTE_ENTROPY_BITS for e in events)


def test_per_codec_accounting():
    if not obs.enabled():  # pragma: no cover - REPRO_OBS=0 environments
        pytest.skip("obs disabled")
    data = np.frombuffer(mixed_corpus(), dtype=np.uint8)
    before = obs.get_registry().snapshot()
    result = encode_chunked_auto(data, CUDA_V2, CHUNK, codec="auto")
    after = obs.get_registry().snapshot()
    delta = {k: after["counters"][k] - before["counters"].get(k, 0)
             for k in after["counters"] if k.startswith("codec.chunks_")}
    assert delta["codec.chunks_store"] == 1
    assert delta["codec.chunks_lz4s"] == 1
    assert sum(delta.values()) == result.chunk_codecs.size
    ratios = after["histograms"]["codec.ratio_store"]
    assert ratios["count"] >= 1
    assert ratios["max"] <= 1.01  # store never expands


# ----------------------------------------------------- decode + salvage

def test_unknown_codec_id_is_corruption_strict():
    raw = mixed_corpus()
    data = np.frombuffer(raw, dtype=np.uint8)
    result = encode_chunked_auto(data, CUDA_V2, CHUNK, codec="auto")
    bad = result.chunk_codecs.copy()
    bad[1] = 0xFF
    with pytest.raises(CorruptChunkError) as exc:
        decode_chunked_with_stats(result.payload, CUDA_V2,
                                  result.chunk_sizes, CHUNK, len(raw),
                                  chunk_codecs=bad)
    assert exc.value.chunk_index == 1
    assert "codec id 255" in str(exc.value)


def test_unknown_codec_id_is_reported_by_salvage():
    raw = mixed_corpus()
    data = np.frombuffer(raw, dtype=np.uint8)
    result = encode_chunked_auto(data, CUDA_V2, CHUNK, codec="auto")
    bad = result.chunk_codecs.copy()
    bad[1] = 0xFF
    out, _, report = decode_chunked_with_stats(
        result.payload, CUDA_V2, result.chunk_sizes, CHUNK, len(raw),
        chunk_codecs=bad, errors="salvage", fill_byte=0xAB)
    assert report.unknown_codec == [1]
    assert report.lost == [1]
    assert sorted(report.recovered) == [0, 2, 3, 4]
    assert out[:CHUNK] == raw[:CHUNK]
    assert out[CHUNK:2 * CHUNK] == b"\xab" * CHUNK
    assert out[2 * CHUNK:] == raw[2 * CHUNK:]


def test_salvage_catches_decode_failures_per_chunk():
    """A chunk whose payload cannot decode under its recorded codec is
    lost, not fatal — the column survives, the bytes did not."""
    raw = mixed_corpus()
    data = np.frombuffer(raw, dtype=np.uint8)
    result = encode_chunked_auto(data, CUDA_V2, CHUNK, codec="lz4s")
    payload = bytearray(result.payload)
    lo = int(result.chunk_sizes[:2].sum())
    payload[lo:lo + int(result.chunk_sizes[2])] = b"\xff" * int(
        result.chunk_sizes[2])
    out, _, report = decode_chunked_with_stats(
        bytes(payload), CUDA_V2, result.chunk_sizes, CHUNK, len(raw),
        chunk_codecs=result.chunk_codecs, errors="salvage")
    assert 2 in report.lost
    assert report.unknown_codec == []
    assert 0 in report.recovered and 1 in report.recovered
    assert out[:CHUNK] == raw[:CHUNK]


def test_decode_validates_column_coverage():
    data = np.frombuffer(mixed_corpus(), dtype=np.uint8)
    result = encode_chunked_auto(data, CUDA_V2, CHUNK, codec="auto")
    with pytest.raises(ValueError, match="codec column"):
        decode_chunked_with_stats(result.payload, CUDA_V2,
                                  result.chunk_sizes, CHUNK, int(data.size),
                                  chunk_codecs=result.chunk_codecs[:-1])
