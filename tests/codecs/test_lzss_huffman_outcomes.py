"""Pinned outcomes of the lzss-huffman chunk decoder on a seeded damage corpus.

The corpus holds 90 clean chunks (the three paper token formats, chunk
sizes from 64 to 4096 bytes, five corpora) and, for each, up to ten
damaged copies:

* one bit flipped in the header, in the code-length table, in the
  Huffman symbol stream and in the match-field stream;
* a code-length table of random bytes (almost always over-subscribed);
* the clean table with every nonzero length moved by -1, 0 or +1
  (over- and under-subscribed codes that still look plausible);
* the table's nonzero lengths shuffled among their symbols;
* an all-zero table (no code at all);
* the payload truncated at a random byte.

Every :meth:`LzssHuffmanCodec.decode_chunk` folds into one sha256: the
decoded bytes, or the raised exception's type, ``chunk_index`` and
message.  ``PINNED`` was recorded before the Huffman kernels moved from
per-symbol loops to whole-array operations; any change to what the
decoder returns or raises on these chunks changes the digest.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import numpy as np

from repro.codecs.lzss_huffman import LzssHuffmanCodec
from repro.datasets import generate
from repro.lzss.formats import CUDA_V1, CUDA_V2, SERIAL

FORMATS = (SERIAL, CUDA_V1, CUDA_V2)
CORPORA = ("cfiles", "demap", "dictionary", "kernel_tarball",
           "highly_compressible")
CHUNK_SIZES = (64, 100, 256, 512, 1000, 4096)
CHUNKS_PER_CELL = 5
SEED = 3131

HEADER_BYTES = 12
TABLE_BYTES = 129

PINNED = "0ca7f71faa2a1e7a9f9f59a567af93c7c756b6ad8dd62d036c77d6d1b98d3bf9"

#: Errors the corpus must provoke at least once; the first three come
#: from :func:`repro.bzip2.huffman.huffman_decode`.
MESSAGES = (
    "ran out of bits",
    "unknown prefix",
    "empty code table",
    "inconsistent token counts",
    "layout declares",
    "match marker count disagrees with header",
    "token output does not land on declared size",
)


def _flip(payload: bytes, rng, lo: int, hi: int) -> bytes:
    buf = bytearray(payload)
    bit = int(rng.integers(8 * lo, 8 * hi))
    buf[bit >> 3] ^= 0x80 >> (bit & 7)
    return bytes(buf)


def _with_table(payload: bytes, nibbles: np.ndarray) -> bytes:
    nib = np.zeros(2 * TABLE_BYTES, dtype=np.uint8)
    nib[:nibbles.size] = nibbles
    table = (nib[0::2] | (nib[1::2] << 4)).tobytes()
    return (payload[:HEADER_BYTES] + table
            + payload[HEADER_BYTES + TABLE_BYTES:])


def _variants(rng, payload: bytes, sym_end: int):
    """``(label, payload)``: the clean chunk and its damaged copies."""
    table = np.frombuffer(payload, dtype=np.uint8,
                          count=TABLE_BYTES, offset=HEADER_BYTES)
    lengths = np.empty(2 * TABLE_BYTES, dtype=np.int64)
    lengths[0::2] = table & 0x0F
    lengths[1::2] = table >> 4
    lengths = lengths[:257]
    present = lengths > 0

    yield "clean", payload
    yield "flip-header", _flip(payload, rng, 0, HEADER_BYTES)
    yield "flip-table", _flip(payload, rng, HEADER_BYTES,
                              HEADER_BYTES + TABLE_BYTES)
    if sym_end > HEADER_BYTES + TABLE_BYTES:
        yield "flip-symbols", _flip(payload, rng,
                                    HEADER_BYTES + TABLE_BYTES, sym_end)
    if len(payload) > sym_end:
        yield "flip-fields", _flip(payload, rng, sym_end, len(payload))
    yield "table-random", _with_table(
        payload, rng.integers(0, 16, 257).astype(np.uint8))
    moved = np.where(present, np.clip(
        lengths + rng.integers(-1, 2, lengths.size), 1, 15), 0)
    yield "table-moved", _with_table(payload, moved.astype(np.uint8))
    shuffled = lengths.copy()
    shuffled[present] = rng.permutation(lengths[present])
    yield "table-shuffled", _with_table(payload, shuffled.astype(np.uint8))
    yield "table-zeroed", _with_table(payload, np.zeros(257, dtype=np.uint8))
    cut = int(rng.integers(len(payload)))
    yield f"truncate{cut}", payload[:cut]


def _outcome(codec, payload: bytes, fmt, size: int, index: int,
             seen: Counter) -> bytes:
    try:
        out = codec.decode_chunk(np.frombuffer(payload, dtype=np.uint8), fmt,
                                 size, chunk_index=index)
    except Exception as exc:  # the digest records whatever is raised
        seen[str(exc)] += 1
        seen["raised"] += 1
        return repr(("raise", type(exc).__name__,
                     getattr(exc, "chunk_index", None), str(exc))).encode()
    return b"ok" + hashlib.sha256(out.tobytes()).digest()


def corpus_digest() -> tuple[str, int, Counter]:
    rng = np.random.default_rng(SEED)
    codec = LzssHuffmanCodec()
    h = hashlib.sha256()
    seen: Counter = Counter()
    n_decodes = 0
    for fmt in FORMATS:
        fw = fmt.offset_bits + fmt.length_bits
        for size in CHUNK_SIZES:
            for k in range(CHUNKS_PER_CELL):
                corpus = CORPORA[int(rng.integers(len(CORPORA)))]
                n = int(rng.integers(size // 2, size + 1))
                data = np.frombuffer(generate(
                    corpus, n, seed=int(rng.integers(1 << 30))),
                    dtype=np.uint8)
                payload, _sizes = codec.encode_run(data, fmt, size)
                _n_tokens, n_matches, sym_bits = np.frombuffer(
                    payload, dtype="<u4", count=3)
                sym_end = (HEADER_BYTES + TABLE_BYTES
                           + (int(sym_bits) + 7) // 8)
                assert len(payload) == sym_end + (int(n_matches) * fw + 7) // 8
                for label, damaged in _variants(rng, payload, sym_end):
                    n_decodes += 1
                    h.update(f"{fmt.name}/{size}/{k}/{corpus}/{label}"
                             .encode())
                    h.update(_outcome(codec, damaged, fmt, n, k, seen))
    return h.hexdigest(), n_decodes, seen


def test_lzss_huffman_outcomes_match_the_pinned_digest():
    digest, n_decodes, seen = corpus_digest()
    assert n_decodes >= 700
    assert seen["raised"] >= n_decodes // 3
    for message in MESSAGES:
        assert any(message in key for key in seen), (message, seen)
    assert digest == PINNED
