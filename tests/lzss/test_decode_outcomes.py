"""Pinned outcomes of the chunked lzss decoder on a seeded corruption corpus.

The corpus holds over 500 chunked streams: six token formats (the three
paper formats plus 15- and 18-bit pair layouts), chunk sizes from 64 to
4096 bytes with short last chunks, and per stream one of: clean, one to
three bit flips, one zeroed chunk, or one chunk table entry shrunk to
0-1 bytes (its bytes moved to the next chunk).  Every decode folds into
one sha256:

* strict: the bytes and per-chunk token counts, or the raised error's
  ``chunk_index``, ``token_position`` and message;
* salvage (of whole, truncated, codec-column and CRC-checked streams):
  the bytes, token counts, ``lost`` and ``unknown_codec``;
* every decode against a CRC table: the ``container.crc_*`` counter
  deltas it caused.

``PINNED`` was recorded from the decoder before its chunk-major rewrite;
any change to what it returns or raises on these streams changes the
digest.  The corpus decodes serially and again through a two-worker
engine, one chunk per run, which must not change it either.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from repro import obs
from repro.codecs.lzss import LZSS_CODEC_ID
from repro.codecs.store import STORE_CODEC_ID
from repro.datasets import generate
from repro.engine import ParallelEngine
from repro.errors import CorruptChunkError
from repro.lzss import decoder
from repro.lzss.decoder import decode_chunked_with_stats
from repro.lzss.encoder import encode_chunked
from repro.lzss.formats import CUDA_V1, CUDA_V2, SERIAL, TokenFormat
from repro.util.checksum import crc32

FORMATS = (
    SERIAL,
    CUDA_V1,
    CUDA_V2,
    TokenFormat(name="w64", offset_bits=6, length_bits=8, window=64),
    TokenFormat(name="w256", offset_bits=9, length_bits=5, window=256,
                max_match_cap=20),
    TokenFormat(name="sweep", offset_bits=9, length_bits=8, window=512),
)
CORPORA = ("cfiles", "demap", "dictionary", "kernel_tarball",
           "highly_compressible")
CHUNK_SIZES = (64, 100, 256, 512, 1000, 4096)
STREAMS_PER_CELL = 3
SEED = 2828
CRC_COUNTERS = ("container.crc_checks", "container.crc_failures")

PINNED = "74694d225a218a0e69823e8290c3d312738f630dcbc0799711ca04bf84f11cfd"

#: Every error the corpus must provoke at least once.
MESSAGES = (
    "too short for a single token",
    "distance exceeds window",
    "does not land on declared size",
    "back-reference before chunk start",
    "unknown codec id",
    "chunk checksum mismatch",
)


def _streams(rng):
    """``(label, fmt, chunk, data, clean, payload, sizes)`` per stream."""
    for fmt in FORMATS:
        for chunk in CHUNK_SIZES:
            for k in range(STREAMS_PER_CELL):
                n_chunks = int(rng.integers(1, 4 if chunk == 4096 else 6))
                tail = int(rng.integers(1, chunk + 1))
                corpus = CORPORA[int(rng.integers(len(CORPORA)))]
                data = generate(corpus, (n_chunks - 1) * chunk + tail,
                                seed=int(rng.integers(1 << 30)))
                r = encode_chunked(data, fmt, chunk)
                clean = bytes(r.payload)
                sizes = np.asarray(r.chunk_sizes, dtype=np.int64)
                for variant, payload, table in _variants(rng, clean, sizes):
                    yield (f"{fmt.name}/{chunk}/{k}/{corpus}/{variant}", fmt,
                           chunk, data, clean, payload, table)


def _variants(rng, payload: bytes, sizes: np.ndarray):
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    yield "clean", payload, sizes
    for flips in (1, 2, 3):
        buf = bytearray(payload)
        for bit in rng.choice(8 * len(buf), size=flips, replace=False):
            buf[bit >> 3] ^= 0x80 >> (int(bit) & 7)
        yield f"flip{flips}", bytes(buf), sizes
    c = int(rng.integers(sizes.size))
    buf = bytearray(payload)
    buf[offsets[c]:offsets[c + 1]] = bytes(int(sizes[c]))
    yield f"zero{c}", bytes(buf), sizes
    keep = int(rng.integers(0, 2))
    if sizes.size == 1:
        yield f"shrink{keep}", payload[:keep], np.array([keep])
    else:
        c = int(rng.integers(sizes.size - 1))
        table = sizes.copy()
        table[c + 1] += table[c] - keep
        table[c] = keep
        yield f"shrink{c}:{keep}", payload, table


def _v3(rng, data: bytes, chunk: int, payload: bytes, sizes: np.ndarray):
    """A codec column over the stream: all lzss, then maybe one chunk
    stored raw and maybe one unknown id."""
    codecs = np.full(sizes.size, LZSS_CODEC_ID, dtype=np.uint8)
    pieces = np.split(np.frombuffer(payload, dtype=np.uint8),
                      np.cumsum(sizes)[:-1])
    pieces = [p.tobytes() for p in pieces]
    if rng.random() < 0.5:
        c = int(rng.integers(sizes.size))
        codecs[c] = STORE_CODEC_ID
        pieces[c] = data[c * chunk:(c + 1) * chunk]
    if rng.random() < 0.3:
        codecs[int(rng.integers(sizes.size))] = 0
    table = np.array([len(p) for p in pieces], dtype=np.int64)
    return b"".join(pieces), table, codecs


def _crc_table(payload: bytes, sizes: np.ndarray) -> np.ndarray:
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    return np.array([crc32(payload[offsets[c]:offsets[c + 1]])
                     for c in range(sizes.size)], dtype=np.uint32)


def _crc_counts() -> tuple[int, ...]:
    counters = obs.get_registry().snapshot()["counters"]
    return tuple(int(counters.get(name, 0)) for name in CRC_COUNTERS)


def _outcome(payload, fmt, sizes, chunk, n, seen: Counter, **kw) -> bytes:
    """One decode, folded to bytes; error messages are tallied."""
    before = _crc_counts() if kw.get("chunk_crcs") is not None else None
    try:
        out, tokens, report = decode_chunked_with_stats(
            payload, fmt, sizes, chunk, n, **kw)
    except CorruptChunkError as exc:
        seen[str(exc).split(": ", 1)[1]] += 1
        text = repr(("raise", exc.chunk_index, exc.token_position, str(exc)))
    else:
        text = repr(("ok", tokens.tolist(), report and (
            report.lost, report.unknown_codec, report.lost_ranges)))
        if report is not None:
            seen.update(["salvage lost"] * len(report.lost))
        text += hashlib.sha256(out).hexdigest()
    if before is not None:
        text += repr(tuple(a - b for a, b in zip(_crc_counts(), before)))
    return text.encode()


def corpus_digest(engine=None) -> tuple[str, int, Counter]:
    rng = np.random.default_rng(SEED)
    h = hashlib.sha256()
    seen: Counter = Counter()
    n_streams = 0

    def outcome(*args, **kw) -> bytes:
        return _outcome(*args, engine=engine, **kw)

    for label, fmt, chunk, data, clean, payload, sizes in _streams(rng):
        n_streams += 1
        n = len(data)
        first = int(rng.choice([0, 0, 5]))
        h.update(label.encode())
        h.update(outcome(payload, fmt, sizes, chunk, n, seen,
                         first_chunk=first))
        h.update(outcome(payload, fmt, sizes, chunk, n, seen,
                         errors="salvage", fill_byte=0xA5))
        if rng.random() < 0.35:
            cut = int(rng.integers(len(payload) + 1))
            h.update(outcome(payload[:cut], fmt, sizes, chunk, n, seen,
                             errors="salvage", first_chunk=first))
        if rng.random() < 0.35:
            v3, table, codecs = _v3(rng, data, chunk, payload, sizes)
            for errors in ("strict", "salvage"):
                h.update(outcome(v3, fmt, table, chunk, n, seen,
                                 chunk_codecs=codecs, errors=errors))
        if rng.random() < 0.25:
            # The clean stream's CRCs under this stream's table: every
            # damaged chunk mismatches.
            crcs = _crc_table(clean, sizes)
            for errors in ("strict", "salvage"):
                h.update(outcome(payload, fmt, sizes, chunk, n, seen,
                                 chunk_crcs=crcs, errors=errors,
                                 first_chunk=first))
    return h.hexdigest(), n_streams, seen


@contextmanager
def counting():
    """The digest holds CRC counter deltas, so count even under
    REPRO_OBS=0."""
    was_enabled = obs.enabled()
    obs.enable()
    try:
        yield
    finally:
        if not was_enabled:
            obs.disable()


@pytest.fixture(scope="module")
def corpus():
    with counting():
        return corpus_digest()


def test_corpus_is_large_and_provokes_every_error(corpus):
    _digest, n_streams, seen = corpus
    assert n_streams >= 500
    for message in MESSAGES:
        assert any(message in key for key in seen), (message, seen)
    assert seen["salvage lost"] > 0


def test_outcomes_match_the_pinned_digest(corpus):
    digest, _n, _seen = corpus
    assert digest == PINNED


def test_two_worker_engine_outcomes_match_the_pinned_digest(monkeypatch):
    # One chunk per run, so every stream of two or more chunks fans out.
    monkeypatch.setattr(decoder, "RUN_BYTES", 1)
    with counting(), ParallelEngine(2, min_parallel_bytes=0) as engine:
        digest, _n, _seen = corpus_digest(engine)
    assert digest == PINNED
