"""Fast vectorized LZSS decoder.

Decoding a flag-prefixed bit stream looks irreducibly sequential —
token boundaries depend on every previous flag, and back-references
copy bytes the decode itself produces.  Both dependencies vectorize:

* **Token scan**: the next-token jump ``p → p + 9`` (literal) or
  ``p → p + pair_bits`` (pair) is known for *every* bit position up
  front, so the token-start chain is the same reachable-set doubling
  used by the greedy parse.
* **Back-references**: every output byte's source is
  ``parent[d] = d - distance`` (pairs) or ``d`` itself (literals) — a
  strictly-decreasing parent forest rooted at literals.  Pointer-
  jumping resolves every byte to its literal root in O(log n) vector
  rounds, overlapping runs included.  :func:`reconstruct` is that
  step for every codec: each decoder parses its own wire format into
  :class:`~repro.lzss.parse.Tokens` plus a literal array and hands
  them over.

The scalar loop in :func:`repro.lzss.reference.reference_decode` is the
specification; this module is property-tested against it.

Corruption raises :class:`~repro.errors.CorruptChunkError` carrying
the chunk index.  :func:`decode_chunked_with_stats` is the one
per-chunk loop behind every chunked decode; with ``errors="salvage"``
it turns those failures (plus per-chunk CRC mismatches and unknown
codec ids) into a :class:`SalvageReport` instead — bad chunks become
fill bytes, every other chunk decodes byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.errors import CorruptChunkError, TruncatedContainerError
from repro.lzss.formats import FLAG_LITERAL, TokenFormat
from repro.lzss.parse import Tokens, reachable_from
from repro.util.bitio import gather_fields, unpack_bits
from repro.util.buffers import as_u8
from repro.util.checksum import crc32
from repro.util.validation import require

__all__ = ["SalvageReport", "decode", "decode_chunked",
           "decode_chunked_with_stats", "reconstruct"]


@dataclass
class SalvageReport:
    """What salvage decode recovered — and what it could not.

    ``recovered``/``lost`` are chunk indices; ``lost_ranges`` the
    corresponding ``[lo, hi)`` byte ranges of the *uncompressed* output
    that were filled with ``fill_byte`` instead of data.
    ``unknown_codec`` is the subset of ``lost`` that failed because the
    container's codec column named a codec id this library does not
    know (bit rot in the column, or an archive from a newer library).
    """

    n_chunks: int
    recovered: list[int] = field(default_factory=list)
    lost: list[int] = field(default_factory=list)
    lost_ranges: list[tuple[int, int]] = field(default_factory=list)
    fill_byte: int = 0
    unknown_codec: list[int] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """Did every chunk decode (i.e. was salvage a full recovery)?"""
        return not self.lost

    @property
    def lost_bytes(self) -> int:
        return sum(hi - lo for lo, hi in self.lost_ranges)

    def describe(self) -> str:
        if self.complete:
            return f"all {self.n_chunks} chunks recovered"
        text = (f"recovered {len(self.recovered)}/{self.n_chunks} chunks; "
                f"lost chunks {self.lost} ({self.lost_bytes} bytes "
                f"filled with {self.fill_byte:#04x})")
        if self.unknown_codec:
            text += f"; unknown codec id on chunks {self.unknown_codec}"
        return text


def reconstruct(tokens: Tokens, literals: np.ndarray, output_size: int, *,
                chunk_index: int = 0) -> np.ndarray:
    """Resolve one chunk's tokens into its ``output_size`` bytes.

    ``tokens`` come in output order and their lengths sum to
    ``output_size``; a literal token takes its ``length`` bytes from
    ``literals`` in order, a pair token copies from ``distance`` bytes
    back.  Every byte's source is ``parent[d] = d - distance`` (literal
    bytes have distance 0, so they are their own roots); pointer
    jumping (each byte adopts its parent's parent) resolves every byte
    to its literal root in O(log n) vector rounds, overlapping runs
    included.  A reference before the chunk start raises
    :class:`CorruptChunkError` naming ``chunk_index`` and the token.
    """
    parent = (np.arange(output_size, dtype=np.int64)
              - np.repeat(tokens.distances, tokens.lengths))
    if output_size and int(parent.min()) < 0:
        bad = int(np.argmax(parent < 0))
        raise CorruptChunkError(
            "corrupt stream: back-reference before chunk start",
            chunk_index=chunk_index,
            token_position=int(np.searchsorted(tokens.starts, bad,
                                               side="right")) - 1)
    values = np.zeros(output_size, dtype=np.uint8)
    values[~np.repeat(tokens.is_pair, tokens.lengths)] = literals
    # A pair byte's parent lies before it and a literal byte is its own
    # root, so the depth halves every round until every byte points at
    # its root.
    while True:
        grand = parent[parent]
        if np.array_equal(grand, parent):
            return values[parent]
        parent = grand


def _decode_stream(payload: np.ndarray, fmt: TokenFormat, output_size: int,
                   chunk_index: int = 0) -> tuple[np.ndarray, int]:
    """Decode one continuous bit stream; returns (bytes, token count).

    ``chunk_index`` only labels errors: any corruption raises
    :class:`CorruptChunkError` naming this chunk.
    """
    def corrupt(message: str, token: int | None = None) -> CorruptChunkError:
        return CorruptChunkError(message, chunk_index=chunk_index,
                                 token_position=token)

    if output_size == 0:
        return np.zeros(0, dtype=np.uint8), 0
    bits = unpack_bits(payload)
    nbits = bits.size
    if nbits < fmt.literal_bits:
        raise corrupt("corrupt stream: too short for a single token")

    # --- token scan -----------------------------------------------------
    jump = np.where(bits == FLAG_LITERAL, fmt.literal_bits, fmt.pair_bits)
    jump = np.arange(nbits, dtype=np.int64) + jump
    starts = reachable_from(jump, 0)
    # The chain runs into the zero padding; cut it by output size below.
    is_pair = bits[starts] != FLAG_LITERAL
    # Only read fields that lie fully inside the stream (padding tails
    # can't, and get dropped).
    in_range = starts + np.where(is_pair, fmt.pair_bits,
                                 fmt.literal_bits) <= nbits
    starts, is_pair = starts[in_range], is_pair[in_range]

    lengths = np.ones(starts.size, dtype=np.int64)
    distances = np.zeros(starts.size, dtype=np.int64)
    pair_idx = np.nonzero(is_pair)[0]
    if pair_idx.size:
        fields = gather_fields(bits, starts[pair_idx] + 1,
                               fmt.offset_bits + fmt.length_bits)
        lengths[pair_idx] = ((fields & ((1 << fmt.length_bits) - 1))
                             + fmt.min_match)
        distances[pair_idx] = (fields >> fmt.length_bits) + 1
        over = distances[pair_idx] > fmt.window
        if bool(over.any()):
            raise corrupt("corrupt stream: distance exceeds window",
                          token=int(pair_idx[np.nonzero(over)[0][0]]))

    ends = np.cumsum(lengths)
    keep = int(np.searchsorted(ends, output_size, side="left")) + 1
    if not (keep <= starts.size and int(ends[keep - 1]) == output_size):
        raise corrupt(
            "corrupt stream: token output does not land on declared size",
            token=min(keep, starts.size) - 1)
    is_pair, lengths = is_pair[:keep], lengths[:keep]
    literals = gather_fields(bits, starts[:keep][~is_pair] + 1, 8)
    tokens = Tokens(starts=ends[:keep] - lengths, is_pair=is_pair,
                    lengths=lengths, distances=distances[:keep])
    return reconstruct(tokens, literals.astype(np.uint8), output_size,
                       chunk_index=chunk_index), keep


def decode(payload, fmt: TokenFormat, output_size: int) -> bytes:
    """Decode one continuous LZSS stream (inverse of ``encode``)."""
    arr = as_u8(payload)
    out, _tokens = _decode_stream(arr, fmt, output_size)
    return out.tobytes()


def decode_chunked_with_stats(
        payload, fmt: TokenFormat, chunk_sizes: np.ndarray,
        chunk_size: int, output_size: int, *,
        chunk_codecs: np.ndarray | None = None,
        chunk_crcs: np.ndarray | None = None, errors: str = "strict",
        fill_byte: int = 0, first_chunk: int = 0,
) -> tuple[bytes, np.ndarray, SalvageReport | None]:
    """Decode independent chunk streams: ``(data, tokens, report)``.

    The one per-chunk decode loop.  Chunk streams are mutually
    independent (§III.C), so every chunk runs the same steps on its
    own: codec lookup, bounds check, CRC, decode, then strict-raise or
    salvage-fill.

    * ``chunk_codecs`` — the container-v3 codec column.  Without it
      every chunk is lzss and ``tokens`` holds the per-chunk token
      counts the GPU decompression cost model charges each chunk
      thread for.  With it every chunk goes through the
      :mod:`repro.codecs` registry (``tokens`` stays zero) and an
      unknown codec id is corruption of that chunk.
    * ``chunk_crcs`` — the container-v2 CRC table; every chunk's
      CRC-32 is verified *before* its decode.
    * ``errors="strict"`` raises the first :class:`CorruptChunkError`
      naming the chunk, requires the chunk table to cover the payload,
      and returns ``report=None``.
    * ``errors="salvage"`` recovers every chunk that checks out.  A
      chunk is *lost* when its compressed bytes run past the
      (truncated) payload end, its codec id is unknown, its CRC
      mismatches, or its stream fails to decode (the only detection
      available for v1); lost chunks come back as ``fill_byte`` with
      ``tokens == 0`` and are itemized in the returned
      :class:`SalvageReport`.  Recovered chunks are byte-identical to
      a clean decode.

    ``first_chunk`` rebases chunk indices in errors and reports when
    decoding a shard of a larger buffer (the parallel engine's case).
    """
    require(errors in ("strict", "salvage"),
            f"errors must be 'strict' or 'salvage', not {errors!r}")
    require(0 <= fill_byte <= 255, "fill_byte must be one byte")
    salvage = errors == "salvage"
    arr = as_u8(payload)
    chunk_sizes = np.asarray(chunk_sizes, dtype=np.int64)
    require(salvage or int(chunk_sizes.sum()) == arr.size,
            "chunk size table does not cover the payload")
    n_chunks = chunk_sizes.size
    expected = (output_size + chunk_size - 1) // chunk_size if output_size else 0
    require(n_chunks == expected,
            f"expected {expected} chunks for {output_size} bytes, got {n_chunks}")
    if chunk_codecs is not None:
        # Imported here because repro.codecs imports this module.
        from repro.codecs.base import get_codec, known_codec_ids

        chunk_codecs = np.asarray(chunk_codecs, dtype=np.uint8)
        require(chunk_codecs.size == n_chunks,
                "codec column does not cover the chunks")
        known = known_codec_ids()

    out = np.full(output_size, fill_byte, dtype=np.uint8)
    tokens = np.zeros(n_chunks, dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(chunk_sizes)])
    report = (SalvageReport(n_chunks=n_chunks, fill_byte=fill_byte)
              if salvage else None)
    # CRC accounting accumulates locally and flushes in one shot — even
    # when a strict mismatch aborts the loop mid-way.
    checks = failures = 0
    try:
        with obs.stage("decode.stream", bytes=output_size, chunks=n_chunks,
                       errors=errors):
            for c in range(n_chunks):
                index = first_chunk + c
                lo = c * chunk_size
                hi = min(lo + chunk_size, output_size)
                p_lo, p_hi = int(offsets[c]), int(offsets[c + 1])
                piece = arr[p_lo:p_hi]
                try:
                    if chunk_codecs is not None:
                        cid = int(chunk_codecs[c])
                        if cid not in known:
                            if salvage:
                                report.unknown_codec.append(index)
                            raise CorruptChunkError(
                                f"unknown codec id {cid}",
                                chunk_index=index, offset=p_lo)
                    if p_hi > arr.size:  # salvage only: strict checked cover
                        raise CorruptChunkError(
                            "chunk runs past the payload end",
                            chunk_index=index, offset=p_lo)
                    if chunk_crcs is not None:
                        checks += 1
                        if crc32(piece) != int(chunk_crcs[c]):
                            failures += 1
                            raise CorruptChunkError(
                                "chunk checksum mismatch",
                                chunk_index=index, offset=p_lo)
                    if chunk_codecs is None:
                        out[lo:hi], tokens[c] = _decode_stream(
                            piece, fmt, hi - lo, chunk_index=index)
                    else:
                        out[lo:hi] = get_codec(cid).decode_chunk(
                            piece, fmt, hi - lo, chunk_index=index)
                except (CorruptChunkError, TruncatedContainerError):
                    if not salvage:
                        raise
                    report.lost.append(index)
                    report.lost_ranges.append((lo, hi))
                else:
                    if salvage:
                        report.recovered.append(index)
    finally:
        if checks:
            obs.inc("container.crc_checks", checks)
        if failures:
            obs.inc("container.crc_failures", failures)
    if salvage:
        obs.inc("container.salvage_chunks_recovered", len(report.recovered))
        obs.inc("container.salvage_chunks_lost", len(report.lost))
    return out.tobytes(), tokens, report


def decode_chunked(payload, fmt: TokenFormat, chunk_sizes: np.ndarray,
                   chunk_size: int, output_size: int) -> bytes:
    """Decode independent chunk streams (inverse of ``encode_chunked``).

    ``chunk_sizes`` is the per-chunk compressed byte table the paper's
    decompressor carries (§III.C); ``chunk_size`` the uncompressed
    chunk length (last chunk may be short).  Chunks decode mutually
    independently — the property the GPU decompressor exploits.
    """
    return decode_chunked_with_stats(payload, fmt, chunk_sizes, chunk_size,
                                     output_size)[0]
