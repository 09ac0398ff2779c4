"""Content-aware per-chunk codec dispatch, and multi-codec decode.

The single-codec pipeline already probes whole buffers for
incompressibility (:func:`repro.lzss.matcher.probe_incompressible`);
this module grows that probe into a per-chunk *chooser*.  For every
chunk it measures two cheap statistics —

* order-0 byte entropy ``h1`` (plus the probe's digram confirmation),
* match density ``m``: the fraction of sampled 4-grams that repeat
  within the chunk (an upper-bound proxy for how much of the chunk
  LZSS matches can cover) —

and routes the chunk:

===========================  =======================================
``h1`` at the probe ceiling  ``store`` (compression would expand it)
``m`` low, ``h1`` high       ``lz4s`` (few matches: byte-aligned
                             literal runs at 8.07 bits/byte beat
                             LZSS's 9-bit literals, at higher speed)
``h1`` low, ``m`` high       ``trial``: emit ``lzss`` *and*
                             ``lzss-huffman`` from one parse, keep
                             the smaller (``lzss`` on a tie)
everything else              ``lzss`` (the paper's format)
===========================  =======================================

The trial branch is what makes ``auto`` never meaningfully worse than
plain ``lzss``: on exactly the chunks where the entropy stage could
plausibly win, the decision is made by measuring, not predicting.

Chunks are then grouped by that choice, not by contiguous run, and
each group is encoded as one chunk-major run: its chunks end to end,
one match pass over all of them (matches never leave a chunk, so the
bytes are those of a per-chunk encode).  A codec group is one
``encode_run``; the trial group is one :func:`tokenize` and one
:func:`pack_lzss`, plus one :func:`pack_lzss_huffman` per chunk.

Decisions are recorded in the container v3 codec column, which
:func:`repro.lzss.decoder.decode_chunked_with_stats` reads back
(``chunk_codecs=``) to send each chunk to its recorded codec.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.codecs.base import get_codec, metric_key
from repro.codecs.lzss import LZSS_CODEC_ID
from repro.codecs.lzss_huffman import LZSS_HUFFMAN_CODEC_ID, pack_lzss_huffman
from repro.lzss.encoder import EncodeResult, pack_lzss, split_tokens, tokenize
from repro.lzss.formats import TokenFormat
from repro.lzss.matcher import PROBE_BYTE_ENTROPY_BITS, probe_incompressible
from repro.lzss.stats import EncodeStats
from repro.obs import log as obslog
from repro.util.buffers import as_u8
from repro.util.validation import require_range

__all__ = [
    "choose_chunk_codec",
    "encode_chunked_auto",
    "match_density",
]

#: Auto-mode policy constants (bits/byte and 4-gram duplicate fractions).
LZ4S_MIN_ENTROPY = 6.5   # only prefer lz4s when literals dominate cost
LZ4S_MAX_DENSITY = 0.10  # ... and matches are genuinely scarce
TRIAL_MAX_ENTROPY = 6.0  # low literal entropy: Huffman stage may win
TRIAL_MIN_DENSITY = 0.30
#: Chunks smaller than this skip the statistics — framing overheads
#: dominate and plain lzss is the safe default.
MIN_PROBE_CHUNK = 256

_DENSITY_SAMPLE = 4096


def match_density(chunk: np.ndarray) -> float:
    """Fraction of sampled 4-grams that duplicate another in the chunk.

    One in-place sort of at most ``_DENSITY_SAMPLE`` stride-sampled
    4-grams, counting the distinct ones at the value changes — the
    cheap stand-in for "how often would a match search succeed here".
    """
    arr = as_u8(chunk)
    n = arr.size
    if n < 8:
        return 0.0
    pos = np.arange(n - 3, dtype=np.int64)
    if pos.size > _DENSITY_SAMPLE:
        pos = pos[:: pos.size // _DENSITY_SAMPLE][:_DENSITY_SAMPLE]
    grams = ((arr[pos].astype(np.uint32) << 24)
             | (arr[pos + 1].astype(np.uint32) << 16)
             | (arr[pos + 2].astype(np.uint32) << 8)
             | arr[pos + 3])
    grams.sort()
    return 1.0 - (1 + np.count_nonzero(grams[1:] != grams[:-1])) / grams.size


def choose_chunk_codec(chunk: np.ndarray) -> str:
    """Pick a codec name (or ``"trial"``) for one chunk's content."""
    arr = as_u8(chunk)
    n = arr.size
    if n < MIN_PROBE_CHUNK:
        return "lzss"
    if probe_incompressible(arr, min_size=MIN_PROBE_CHUNK):
        return "store"
    counts = np.bincount(arr, minlength=256)
    p = counts[counts > 0] / n
    h1 = float(-(p * np.log2(p)).sum())
    m = match_density(arr)
    if m <= LZ4S_MAX_DENSITY and h1 >= LZ4S_MIN_ENTROPY:
        return "lz4s"
    if h1 <= TRIAL_MAX_ENTROPY and m >= TRIAL_MIN_DENSITY:
        return "trial"
    return "lzss"


def _empty_stats(input_size: int, output_size: int) -> EncodeStats:
    # Mixed-codec streams have no single token accounting; report the
    # sizes (what ratio needs) and zeros for the lzss-specific counts.
    return EncodeStats(input_size=input_size, output_size=output_size,
                       n_tokens=0, n_literals=0, n_pairs=0,
                       sum_match_length=0, total_bits=8 * output_size)


def encode_chunked_auto(data, fmt: TokenFormat, chunk_size: int, *,
                        codec: str = "auto") -> EncodeResult:
    """Chunked encode with a per-chunk codec column.

    ``codec`` is either a registered codec name (every chunk uses it)
    or ``"auto"`` (the content-aware chooser above).  The returned
    :class:`EncodeResult` carries ``chunk_codecs`` — the uint8 wire-id
    column the container v3 writer records.
    """
    arr = as_u8(data)
    n = arr.size
    require_range(chunk_size, 1, 1 << 40, "chunk_size")
    n_chunks = (n + chunk_size - 1) // chunk_size if n else 0

    if codec != "auto":
        get_codec(codec)  # raises KeyError on unknown names

    if n_chunks == 0:
        return EncodeResult(payload=b"", format=fmt, input_size=0,
                            chunk_sizes=np.zeros(0, dtype=np.int64),
                            chunk_size=chunk_size,
                            stats=_empty_stats(0, 0),
                            chunk_codecs=np.zeros(0, dtype=np.uint8))

    if codec == "auto":
        names = []
        with obs.stage("codecs.choose", bytes=n):
            for c in range(n_chunks):
                chunk = arr[c * chunk_size:(c + 1) * chunk_size]
                name = choose_chunk_codec(chunk)
                if name == "store":
                    obs.inc("codec.store_fallbacks")
                    obslog.event("codec", "store_fallback", scope="chunk",
                                 chunk=c, size=int(chunk.size),
                                 threshold=PROBE_BYTE_ENTROPY_BITS)
                names.append(name)
    else:
        names = [codec] * n_chunks

    parts: list[bytes] = [b""] * n_chunks
    ids = np.zeros(n_chunks, dtype=np.uint8)
    for name in dict.fromkeys(names):
        group = [c for c, chosen in enumerate(names) if chosen == name]
        run = _gather(arr, group, chunk_size)
        if name == "trial":
            encoded = _trial(run, fmt, chunk_size)
        else:
            run_codec = get_codec(name)
            payload, sizes = run_codec.encode_run(run, fmt, chunk_size)
            encoded = [(run_codec.codec_id, part)
                       for part in _split(payload, sizes)]
        for c, (codec_id, part) in zip(group, encoded):
            parts[c], ids[c] = part, codec_id

    payload = b"".join(parts)
    chunk_sizes = np.asarray([len(p) for p in parts], dtype=np.int64)
    _account(ids, chunk_sizes, n, chunk_size)
    return EncodeResult(payload=payload, format=fmt, input_size=n,
                        chunk_sizes=chunk_sizes, chunk_size=chunk_size,
                        stats=_empty_stats(n, len(payload)),
                        chunk_codecs=ids)


def _gather(arr: np.ndarray, chunks: list[int],
            chunk_size: int) -> np.ndarray:
    """The given chunks of ``arr`` (ascending) end to end, chunk-major.

    Only ``arr``'s last chunk may be short, and it sorts last, so every
    gathered chunk but the last is full.
    """
    if chunks[-1] - chunks[0] == len(chunks) - 1:  # adjacent: a view
        return arr[chunks[0] * chunk_size:(chunks[-1] + 1) * chunk_size]
    return np.concatenate([arr[c * chunk_size:(c + 1) * chunk_size]
                           for c in chunks])


def _split(payload: bytes, sizes: np.ndarray) -> list[bytes]:
    """A run's payload cut into its per-chunk payloads."""
    ends = np.cumsum(sizes).tolist()
    return [payload[lo:hi] for lo, hi in zip([0, *ends], ends)]


def _trial(run: np.ndarray, fmt: TokenFormat,
           chunk_size: int) -> list[tuple[int, bytes]]:
    """Measure, don't predict: ``(codec id, payload)`` per chunk of ``run``.

    One parse of the whole run is emitted as lzss and, chunk by chunk,
    as lzss-huffman; each chunk keeps the smaller (lzss on a tie).
    """
    tokens, _stats = tokenize(run, fmt, chunk_size)
    as_lzss, sizes = pack_lzss(tokens, run, fmt, chunk_size)
    encoded = []
    for lzss_part, (chunk, chunk_tokens) in zip(
            _split(as_lzss, sizes), split_tokens(tokens, run, chunk_size)):
        as_huff = pack_lzss_huffman(chunk_tokens, chunk, fmt)
        if len(as_huff) < len(lzss_part):
            encoded.append((LZSS_HUFFMAN_CODEC_ID, as_huff))
        else:
            encoded.append((LZSS_CODEC_ID, lzss_part))
    return encoded


def _account(ids: np.ndarray, chunk_sizes: np.ndarray, input_size: int,
             chunk_size: int) -> None:
    """Per-codec obs counters and compressed-ratio histograms."""
    if not obs.enabled():
        return
    n = ids.size
    for c in range(n):
        key = metric_key(get_codec(int(ids[c])).name)
        obs.inc(f"codec.chunks_{key}")
        raw = min(chunk_size, input_size - c * chunk_size)
        if raw > 0:
            obs.observe(f"codec.ratio_{key}",
                        float(chunk_sizes[c]) / raw)
