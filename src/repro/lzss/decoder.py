"""Fast vectorized LZSS decoder.

Decoding a flag-prefixed bit stream looks irreducibly sequential —
token boundaries depend on every previous flag, and back-references
copy bytes the decode itself produces.  Both dependencies vectorize:

* **Token scan**: a literal is 9 bits and a pair ``pair_bits``, so
  token ``k`` of a chunk starts at bit ``9k + δ·P_k`` (``δ = pair_bits
  − 9``, ``P_k`` the pairs before it) and every 8th token starts on a
  multiple of ``u = gcd(8, δ)`` bits: on a byte for the paper's three
  formats (17-bit pairs), every 2 bits for 15-bit pairs, on any bit
  for 18-bit ones.  From every ``u``-bit unit the start of the next
  group of 8 tokens is 8 vector gathers away, so the group starts are
  the reachable-set doubling of the greedy parse over a table of
  units — 1/8 of the bits for the paper formats — and the same 8
  steps from each group start give its tokens.
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

Chunk streams are independent (§III.C), so chunks decode chunk-major:
a *run* of whole chunks, up to :data:`RUN_BYTES` of output, makes one
group scan seeded at every chunk start (each jump clipped at its
chunk's end), one field read, one segmented landing check and one
:func:`reconstruct`, and checks every chunk on its own inside that
pass.  :func:`decode` is a one-chunk run.  The runs, and the chunks of
other codecs, are the decode's independent work items; given a
:class:`repro.engine.ParallelEngine`, :func:`decode_chunked_with_stats`
fans them out through its ``map``.

Corruption raises :class:`~repro.errors.CorruptChunkError` carrying
the chunk index.  :func:`decode_chunked_with_stats` is the one chunked
decode; with ``errors="salvage"`` it turns those failures (plus
per-chunk CRC mismatches and unknown codec ids) into a
:class:`SalvageReport` instead — bad chunks become fill bytes, every
other chunk decodes byte-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.errors import CorruptChunkError, TruncatedContainerError
from repro.lzss.formats import FLAG_LITERAL, TokenFormat
from repro.lzss.parse import Tokens, reachable_from
from repro.util.buffers import as_u8
from repro.util.checksum import crc32
from repro.util.validation import require

__all__ = ["RUN_BYTES", "SalvageReport", "decode", "decode_chunked",
           "decode_chunked_with_stats", "reconstruct"]

#: Output bytes one chunk-major run decodes at most (8 chunks of 4 KiB;
#: a larger chunk is a run of its own).  Fastest of 4-128 KiB on 64 KiB
#: V1/V2 buffers; its work arrays stay a few MiB where one run over a
#: 1 MiB buffer peaked near 90 MiB.
RUN_BYTES = 32 << 10

#: A bad chunk's message, by the check it fails first (1-4, in order).
_FAILURES = (None,
             "corrupt stream: too short for a single token",
             "corrupt stream: distance exceeds window",
             "corrupt stream: token output does not land on declared size",
             "corrupt stream: back-reference before chunk start")


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
    """Resolve tokens into their ``output_size`` bytes.

    ``tokens`` are one chunk's, or a run of chunks' end to end, in
    output order, and their lengths sum to ``output_size``; a literal
    token takes its ``length`` bytes from ``literals`` in order, a pair
    token copies from ``distance`` bytes back.  Every byte's source is
    ``parent[d] = d - distance`` (literal bytes have distance 0, so
    they are their own roots); pointer jumping (each byte adopts its
    parent's parent) resolves every byte to its literal root in
    O(log n) vector rounds, overlapping runs included.  A reference
    before the start raises :class:`CorruptChunkError` naming
    ``chunk_index`` and the token; a run's decoder checks each chunk's
    references against its own start before it gets here.
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


def _decode_run(pieces: list[np.ndarray], fmt: TokenFormat,
                sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
    """Decode a run of chunk streams in one pass: ``(data, tokens, bad)``.

    ``pieces`` are the chunks' compressed bytes and ``sizes`` their
    declared output sizes (each at least 1).  ``data`` is the good
    chunks' bytes end to end, ``tokens`` each chunk's token count (0
    for a bad chunk) and ``bad`` maps a bad chunk's position in the run
    to ``(message, token_position)``.  Each chunk is checked on its
    own, in this order: too short for a token; a pair whose distance
    exceeds the window (any pair that fits the chunk, landed or not);
    output that does not land on the declared size; a back-reference
    before the chunk start.
    """
    nbytes = np.array([p.size for p in pieces], dtype=np.int64)
    lit_bits, pair_bits = fmt.literal_bits, fmt.pair_bits
    unit = math.gcd(8, pair_bits - lit_bits)
    per_byte = 8 // unit
    field_bits = max(8, fmt.offset_bits + fmt.length_bits)
    span = (field_bits + 14) // 8  # bytes a field at any bit offset spans
    # Zero padding covers what the scan reads past the last chunk's end
    # (7 tokens and a flag) and a field word's bytes past its field.
    buf = np.concatenate([*pieces, np.zeros(max(lit_bits, pair_bits) + span,
                                            dtype=np.uint8)])
    bits = np.unpackbits(buf)
    byte_end = np.cumsum(nbytes)
    unit_end = byte_end * per_byte
    end_bit = 8 * byte_end
    # A token is pair_bits long plus ``extra`` when its flag bit is 1 (a
    # literal, FLAG_LITERAL): one multiply-add per token, no lookup.
    extra = np.int64(lit_bits - pair_bits)

    # --- token scan: from every unit, the start of the next group of 8 --
    pos = np.arange(int(unit_end[-1]), dtype=np.int64) * unit
    for _ in range(8):
        pos += bits[pos] * extra
        pos += pair_bits
    jump = np.minimum(pos // unit, np.repeat(unit_end, nbytes * per_byte))
    groups = reachable_from(jump, unit_end - nbytes * per_byte)
    owner = np.searchsorted(unit_end, groups, side="right")
    starts = np.empty((groups.size, 8), dtype=np.int64)
    flags = np.empty((groups.size, 8), dtype=np.uint8)
    pos = groups * unit
    for i in range(8):
        starts[:, i] = pos
        flags[:, i] = bits[pos]
        pos = pos + flags[:, i] * extra + pair_bits
    # Only tokens that fit inside their chunk's bits count (the chain
    # runs on into the zero padding and the next chunk).
    fits = (starts + flags * extra + pair_bits
            <= end_bit[owner][:, None]).ravel()
    starts = starts.ravel()[fits]
    is_pair = flags.ravel()[fits] != FLAG_LITERAL
    owner = np.repeat(owner, 8)[fits]
    counts = np.bincount(owner, minlength=nbytes.size)
    first = np.cumsum(counts) - counts

    # --- fields: one big-endian word per token, read at its bit 1 ------
    at = starts + 1
    word = buf[at >> 3].astype(np.int64)
    for j in range(1, span):
        word <<= 8
        word |= buf[(at >> 3) + j]
    value = ((word >> (8 * span - field_bits - (at & 7)))
             & ((1 << field_bits) - 1))
    pair = value >> (field_bits - fmt.offset_bits - fmt.length_bits)
    lengths = np.where(is_pair, (pair & ((1 << fmt.length_bits) - 1))
                       + fmt.min_match, 1)
    distances = np.where(is_pair, (pair >> fmt.length_bits) + 1, 0)

    # --- per-chunk checks on one cumsum over the run --------------------
    ends = np.cumsum(lengths)
    before = np.concatenate([[0], ends])[first]
    target = before + sizes
    last = first + counts
    hit = np.searchsorted(ends, target, side="left")
    keep = np.minimum(hit, last) - first + 1
    landed = (hit < last) & (np.append(ends, -1)[np.minimum(hit, last)]
                             == target)
    kept = np.arange(ends.size) < np.repeat(first + keep, counts)
    too_far = np.flatnonzero(
        kept & (ends - lengths - np.repeat(before, counts) < distances))
    over = np.flatnonzero(is_pair & (distances > fmt.window))

    def first_of(found: np.ndarray):
        """The chunks owning ``found`` tokens and each one's first."""
        chunks, at_first = np.unique(owner[found], return_index=True)
        return chunks, found[at_first] - first[chunks]

    # Checks apply last to first, so each chunk keeps the first it
    # fails; ``check`` indexes _FAILURES.
    check = np.zeros(nbytes.size, dtype=np.int64)
    token = np.zeros(nbytes.size, dtype=np.int64)
    chunks, where = first_of(too_far)
    check[chunks], token[chunks] = 4, where
    check[~landed] = 3
    token[~landed] = (np.minimum(keep, counts) - 1)[~landed]
    chunks, where = first_of(over)
    check[chunks], token[chunks] = 2, where
    check[8 * nbytes < lit_bits] = 1
    bad = {int(c): (_FAILURES[check[c]], None if check[c] == 1
                    else int(token[c])) for c in np.flatnonzero(check)}

    good = check == 0
    sel = kept & np.repeat(good, counts)
    lengths, is_pair = lengths[sel], is_pair[sel]
    literals = value[sel][~is_pair] >> (field_bits - 8)
    tokens = Tokens(starts=np.cumsum(lengths) - lengths, is_pair=is_pair,
                    lengths=lengths, distances=distances[sel])
    data = reconstruct(tokens, literals.astype(np.uint8),
                       int(sizes[good].sum()))
    return data, np.where(good, keep, 0), bad


def decode(payload, fmt: TokenFormat, output_size: int) -> bytes:
    """Decode one continuous LZSS stream (inverse of ``encode``): a
    one-chunk run."""
    if output_size == 0:
        return b""
    data, _tokens, bad = _decode_run([as_u8(payload)], fmt,
                                     np.array([output_size]))
    if bad:
        message, token = bad[0]
        raise CorruptChunkError(message, chunk_index=0, token_position=token)
    return data.tobytes()


def decode_chunked_with_stats(
        payload, fmt: TokenFormat, chunk_sizes: np.ndarray,
        chunk_size: int, output_size: int, *,
        chunk_codecs: np.ndarray | None = None,
        chunk_crcs: np.ndarray | None = None, errors: str = "strict",
        fill_byte: int = 0, first_chunk: int = 0, engine=None,
) -> tuple[bytes, np.ndarray, SalvageReport | None]:
    """Decode independent chunk streams: ``(data, tokens, report)``.

    The one chunked decode.  Chunk streams are mutually independent
    (§III.C), so every chunk passes the same checks on its own — codec
    lookup, bounds check, CRC — in chunk order, and the chunks that pass
    become independently decodable work items: lzss chunks in runs of
    whole chunks of up to :data:`RUN_BYTES` output bytes (a larger chunk
    is a run of its own), each run checking every chunk on its own, and
    every chunk of another codec on its own.  Each item decodes into its
    own slice of the output.

    * ``chunk_codecs`` — the container-v3 codec column.  Without it
      every chunk is lzss and ``tokens`` holds the per-chunk token
      counts the GPU decompression cost model charges each chunk
      thread for.  With it every chunk goes through the
      :mod:`repro.codecs` registry (lzss chunks still decode in runs;
      ``tokens`` stays zero) and an unknown codec id is corruption of
      that chunk.
    * ``chunk_crcs`` — the container-v2 CRC table; every chunk's
      CRC-32 is verified *before* its decode.
    * ``errors="strict"`` raises the :class:`CorruptChunkError` of the
      lowest bad chunk, requires the chunk table to cover the payload,
      and returns ``report=None``; the checks stop at the first chunk
      that fails one.
    * ``errors="salvage"`` recovers every chunk that checks out.  A
      chunk is *lost* when its compressed bytes run past the
      (truncated) payload end, its codec id is unknown, its CRC
      mismatches, or its stream fails to decode (the only detection
      available for v1); lost chunks come back as ``fill_byte`` with
      ``tokens == 0`` and are itemized in the returned
      :class:`SalvageReport`.  Recovered chunks are byte-identical to
      a clean decode.

    ``engine`` (a :class:`repro.engine.ParallelEngine`) decodes the work
    items through its ``map``; without one they decode in order on the
    calling thread.  Output, token counts, error, report and counters
    are the same at any engine width.  ``first_chunk`` rebases chunk
    indices in errors and reports when the payload is one chunk of a
    larger container (``LzssCodec.decode_chunk``'s case).
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
        from repro.codecs.lzss import LZSS_CODEC_ID

        chunk_codecs = np.asarray(chunk_codecs, dtype=np.uint8)
        require(chunk_codecs.size == n_chunks,
                "codec column does not cover the chunks")
        known = known_codec_ids()

    out = np.full(output_size, fill_byte, dtype=np.uint8)
    tokens = np.zeros(n_chunks, dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(chunk_sizes)])
    sizes = np.minimum(chunk_size,
                       output_size - chunk_size * np.arange(n_chunks))
    failed: dict[int, Exception] = {}
    unknown: list[int] = []
    crc_checked = np.zeros(n_chunks, dtype=bool)
    crc_failed = np.zeros(n_chunks, dtype=bool)

    def decode_item(run: list[int]) -> dict[int, Exception]:
        """Decode a run of lzss chunks, or one chunk of another codec,
        into ``out``; returns its bad chunks' errors."""
        c = run[0]
        if chunk_codecs is not None and chunk_codecs[c] != LZSS_CODEC_ID:
            lo = c * chunk_size
            codec = get_codec(int(chunk_codecs[c]))
            try:
                out[lo:lo + sizes[c]] = codec.decode_chunk(
                    arr[offsets[c]:offsets[c + 1]], fmt, int(sizes[c]),
                    chunk_index=first_chunk + c)
            except (CorruptChunkError, TruncatedContainerError) as exc:
                return {c: exc}
            return {}
        data, counts, bad = _decode_run(
            [arr[offsets[c]:offsets[c + 1]] for c in run], fmt, sizes[run])
        if chunk_codecs is None:
            tokens[run] = counts
        lost = {}
        cursor = 0
        for pos, c in enumerate(run):
            if pos in bad:
                message, token = bad[pos]
                lost[c] = CorruptChunkError(
                    message, chunk_index=first_chunk + c,
                    token_position=token)
                continue
            lo = c * chunk_size
            out[lo:lo + sizes[c]] = data[cursor:cursor + sizes[c]]
            cursor += sizes[c]
        return lost

    # A strict decode raises its lowest bad chunk; the CRC counters then
    # count the chunks up to it, as a chunk-by-chunk walk would.
    counted = n_chunks
    try:
        with obs.stage("decode.stream", bytes=output_size, chunks=n_chunks,
                       errors=errors):
            items: list[list[int]] = []
            run: list[int] = []
            run_bytes = 0
            for c in range(n_chunks):
                index = first_chunk + c
                p_lo, p_hi = int(offsets[c]), int(offsets[c + 1])
                cid = None if chunk_codecs is None else int(chunk_codecs[c])
                try:
                    if cid is not None and cid not in known:
                        unknown.append(index)
                        raise CorruptChunkError(
                            f"unknown codec id {cid}",
                            chunk_index=index, offset=p_lo)
                    if p_hi > arr.size:  # salvage only: strict checked cover
                        raise CorruptChunkError(
                            "chunk runs past the payload end",
                            chunk_index=index, offset=p_lo)
                    if chunk_crcs is not None:
                        crc_checked[c] = True
                        if crc32(arr[p_lo:p_hi]) != int(chunk_crcs[c]):
                            crc_failed[c] = True
                            raise CorruptChunkError(
                                "chunk checksum mismatch",
                                chunk_index=index, offset=p_lo)
                except CorruptChunkError as exc:
                    failed[c] = exc
                    if not salvage:
                        break
                    continue
                if cid is None or cid == LZSS_CODEC_ID:
                    if run and run_bytes + sizes[c] > RUN_BYTES:
                        items.append(run)
                        run, run_bytes = [], 0
                    run.append(c)
                    run_bytes += sizes[c]
                else:
                    items.append([c])
            if run:
                items.append(run)
            for lost in (map(decode_item, items) if engine is None
                         else engine.map(decode_item, items, output_size)):
                failed.update(lost)
            if failed and not salvage:
                counted = min(failed) + 1
                raise failed[counted - 1]
    finally:
        checks = int(crc_checked[:counted].sum())
        failures = int(crc_failed[:counted].sum())
        if checks:
            obs.inc("container.crc_checks", checks)
        if failures:
            obs.inc("container.crc_failures", failures)
    if not salvage:
        return out.tobytes(), tokens, None
    report = SalvageReport(n_chunks=n_chunks, fill_byte=fill_byte,
                           unknown_codec=unknown)
    for c in range(n_chunks):
        if c in failed:
            report.lost.append(first_chunk + c)
            lo = c * chunk_size
            report.lost_ranges.append((lo, lo + int(sizes[c])))
        else:
            report.recovered.append(first_chunk + c)
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
