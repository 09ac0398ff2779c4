"""Binary layout of the CULZSS container.

All integers little-endian::

    offset  size  field
    0       4     magic  b"CLZS"
    4       1     container version (1, 2 or 3)
    5       1     token-format id (TokenFormat.to_id)
    6       1     flags (bit 0: chunked)
    7       1     reserved (0)
    8       8     original (uncompressed) size
    16      4     uncompressed chunk size (0 when unchunked)
    20      4     number of chunks
    24      4     CRC-32 of the payload
    28      4     CRC-32 of bytes [0, 28) — header self-check
    32      4*n   per-chunk compressed sizes (chunked only)
    …       4*n   per-chunk CRC-32s (version 2+, chunked only)
    …       1*n   per-chunk codec ids (version 3, chunked only)
    …             payload

The chunk table *is* the paper's "list of block compression sizes";
§III.C observes it is tiny next to the payload and that is easy to
confirm here: 4 bytes per 4 KiB chunk ≈ 0.1 %.

Version 2 appends a CRC-32 per chunk right after the size table
(8 bytes per 4 KiB chunk ≈ 0.2 % total), which buys per-chunk
integrity: a flipped bit condemns one 4 KiB chunk instead of the whole
archive, and salvage decode (:func:`repro.lzss.decoder.
decode_chunked_with_stats` with ``errors="salvage"``) recovers every
other chunk byte-identically; ``chunk_codecs=`` adds the v3 codec
column to the same loop.

Version 3 appends one codec id per chunk after the CRC table
(:mod:`repro.codecs` wire ids), which is what lets the content-aware
dispatcher mix ``store``/``lzss``/``lz4s``/``lzss-huffman`` within one
archive.  Strict readers reject unknown ids; salvage decode treats
them as per-chunk loss.  v1 and v2 blobs remain fully readable;
writing older layouts is version-gated via
``pack_container(..., version=...)``, and the default write version
stays 2 unless the encode result actually carries a codec column.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import (
    CorruptChunkError,
    CorruptHeaderError,
    CorruptPayloadError,
    TruncatedContainerError,
)
from repro.lzss.encoder import EncodeResult
from repro.lzss.formats import TokenFormat
from repro.util.checksum import crc32
from repro.util.validation import require

__all__ = [
    "CONTAINER_MAGIC",
    "CONTAINER_VERSION_V1",
    "CONTAINER_VERSION_V2",
    "CONTAINER_VERSION_V3",
    "ContainerInfo",
    "HEADER_SIZE",
    "pack_container",
    "unpack_container",
    "verify_chunks",
]

CONTAINER_MAGIC = b"CLZS"
CONTAINER_VERSION_V1 = 1
CONTAINER_VERSION_V2 = 2
CONTAINER_VERSION_V3 = 3
#: Default *write* version for single-codec results.  Readers accept
#: all versions; results carrying a codec column write v3.
CONTAINER_VERSION = CONTAINER_VERSION_V2
HEADER_SIZE = 32
_HEADER_FMT = "<4sBBBBQIIII"
_FLAG_CHUNKED = 1


@dataclass
class ContainerInfo:
    """Decoded container header plus a zero-copy view of the payload."""

    format: TokenFormat
    original_size: int
    chunk_size: int | None
    chunk_sizes: np.ndarray | None
    payload: bytes
    chunk_crcs: np.ndarray | None = None
    version: int = CONTAINER_VERSION_V1
    chunk_codecs: np.ndarray | None = None

    @property
    def is_chunked(self) -> bool:
        return self.chunk_sizes is not None

    @property
    def container_overhead(self) -> int:
        """Header + chunk-table bytes (everything that is not payload)."""
        if self.chunk_sizes is None:
            return HEADER_SIZE
        per_chunk = 8 if self.chunk_crcs is not None else 4
        if self.chunk_codecs is not None:
            per_chunk += 1
        return HEADER_SIZE + per_chunk * self.chunk_sizes.size

    @property
    def payload_offset(self) -> int:
        """Byte offset of the payload within the original blob."""
        return self.container_overhead

    def chunk_ranges(self) -> np.ndarray:
        """Per-chunk ``[lo, hi)`` byte ranges within the payload.

        Shape ``(n_chunks, 2)``; add :attr:`payload_offset` for
        blob-absolute ranges (what the fault injectors target).
        """
        require(self.chunk_sizes is not None, "container is not chunked")
        ends = np.cumsum(self.chunk_sizes)
        return np.stack([ends - self.chunk_sizes, ends], axis=1)


def _chunk_crc_table(payload: bytes, chunk_sizes: np.ndarray) -> np.ndarray:
    """CRC-32 of each chunk's compressed byte slice, as ``<u4``."""
    ends = np.cumsum(np.asarray(chunk_sizes, dtype=np.int64))
    crcs = np.empty(ends.size, dtype="<u4")
    lo = 0
    for c, hi in enumerate(ends):
        crcs[c] = crc32(payload[lo:int(hi)])
        lo = int(hi)
    return crcs


def pack_container(result: EncodeResult, *,
                   version: int | None = None) -> bytes:
    """Serialize an :class:`EncodeResult` into a self-describing blob.

    ``version`` gates the wire format: 3 adds the per-chunk codec-id
    column, 2 the per-chunk CRC table, 1 reproduces the legacy layout
    byte-for-byte.  When omitted, single-codec results write version 2
    (the historical default bytes, golden-tested) and results carrying
    a ``chunk_codecs`` column write version 3.
    """
    with obs.stage("container.pack", bytes=len(result.payload)):
        return _pack_container(result, version=version)


def _pack_container(result: EncodeResult, *,
                    version: int | None = None) -> bytes:
    codecs_col = getattr(result, "chunk_codecs", None)
    if version is None:
        version = (CONTAINER_VERSION_V3 if codecs_col is not None
                   else CONTAINER_VERSION)
    require(version in (CONTAINER_VERSION_V1, CONTAINER_VERSION_V2,
                        CONTAINER_VERSION_V3),
            f"unsupported container version {version}")
    chunked = result.chunk_sizes is not None
    n_chunks = int(result.chunk_sizes.size) if chunked else 0
    chunk_size = int(result.chunk_size) if chunked else 0
    flags = _FLAG_CHUNKED if chunked else 0
    payload_crc = crc32(result.payload)
    if version >= CONTAINER_VERSION_V3:
        require(chunked, "container v3 requires a chunked result")
        if codecs_col is None:
            # Version-gated upgrade of a plain lzss result: synthesize
            # the uniform column.
            from repro.codecs import LZSS_CODEC_ID
            codecs_col = np.full(n_chunks, LZSS_CODEC_ID, dtype=np.uint8)
        codecs_col = np.asarray(codecs_col, dtype=np.uint8)
        require(codecs_col.size == n_chunks,
                "codec column does not cover the chunks")
    else:
        require(codecs_col is None,
                f"result carries a codec column; container v{version} "
                "cannot record it (write v3)")

    head = struct.pack("<4sBBBBQIII", CONTAINER_MAGIC, version,
                       result.format.to_id(), flags, 0,
                       result.input_size, chunk_size, n_chunks, payload_crc)
    head += struct.pack("<I", crc32(head))
    parts = [head]
    if chunked:
        table = np.asarray(result.chunk_sizes, dtype="<u4")
        require(bool((np.asarray(result.chunk_sizes) == table).all()),
                "chunk sizes exceed 32-bit table entries")
        parts.append(table.tobytes())
        if version >= CONTAINER_VERSION_V2:
            parts.append(_chunk_crc_table(result.payload,
                                          result.chunk_sizes).tobytes())
        if version >= CONTAINER_VERSION_V3:
            parts.append(codecs_col.tobytes())
    parts.append(result.payload)
    return b"".join(parts)


def verify_chunks(info: ContainerInfo) -> np.ndarray:
    """Boolean mask of chunks whose payload slice passes its CRC.

    A chunk is good iff its byte range lies fully inside the (possibly
    truncated) payload *and* its CRC-32 matches the table.  Containers
    without per-chunk CRCs (v1) cannot be checked; every fully-present
    chunk reads as good there, and corruption only surfaces at decode.
    """
    require(info.chunk_sizes is not None, "container is not chunked")
    ranges = info.chunk_ranges()
    ok = ranges[:, 1] <= len(info.payload)
    if info.chunk_crcs is None:
        return ok
    checks = failures = 0
    for c in np.nonzero(ok)[0]:
        lo, hi = int(ranges[c, 0]), int(ranges[c, 1])
        checks += 1
        if crc32(info.payload[lo:hi]) != int(info.chunk_crcs[c]):
            ok[c] = False
            failures += 1
    if checks:
        obs.inc("container.crc_checks", checks)
    if failures:
        obs.inc("container.crc_failures", failures)
    return ok


def unpack_container(blob: bytes, *, strict: bool = True) -> ContainerInfo:
    """Parse and integrity-check a container blob.

    With ``strict`` (default) every checksum must pass: a bad chunk
    raises :class:`~repro.errors.CorruptChunkError` naming the first
    failing chunk (v2), a whole-payload mismatch raises
    :class:`~repro.errors.CorruptPayloadError` (v1/unchunked), and a
    short blob raises :class:`~repro.errors.TruncatedContainerError`.
    ``strict=False`` validates only the header and chunk table framing —
    the salvage path, which tolerates corrupt or truncated payloads and
    lets the decoder sort good chunks from bad.
    """
    with obs.stage("container.unpack", bytes=len(blob), strict=strict):
        return _unpack_container(blob, strict=strict)


def _unpack_container(blob: bytes, *, strict: bool = True) -> ContainerInfo:
    if len(blob) < HEADER_SIZE:
        raise TruncatedContainerError("container truncated before header",
                                      expected=HEADER_SIZE, actual=len(blob))
    (magic, version, fmt_id, flags, _reserved, original_size, chunk_size,
     n_chunks, payload_crc, header_crc) = struct.unpack_from(_HEADER_FMT, blob)
    if magic != CONTAINER_MAGIC:
        raise CorruptHeaderError("bad container magic")
    if crc32(blob[:HEADER_SIZE - 4]) != header_crc:
        raise CorruptHeaderError("container header checksum mismatch")
    if version not in (CONTAINER_VERSION_V1, CONTAINER_VERSION_V2,
                       CONTAINER_VERSION_V3):
        raise CorruptHeaderError(f"unsupported container version {version}")
    try:
        fmt = TokenFormat.from_id(fmt_id)
    except ValueError as exc:
        raise CorruptHeaderError(str(exc)) from exc

    offset = HEADER_SIZE
    chunk_sizes: np.ndarray | None = None
    chunk_crcs: np.ndarray | None = None
    chunk_codecs: np.ndarray | None = None
    if flags & _FLAG_CHUNKED:
        per_chunk = 8 if version >= CONTAINER_VERSION_V2 else 4
        if version >= CONTAINER_VERSION_V3:
            per_chunk += 1
        table_bytes = per_chunk * n_chunks
        if len(blob) < offset + table_bytes:
            raise TruncatedContainerError(
                "container truncated inside chunk table",
                expected=offset + table_bytes, actual=len(blob))
        chunk_sizes = np.frombuffer(
            blob, dtype="<u4", count=n_chunks, offset=offset).astype(np.int64)
        offset += 4 * n_chunks
        if version >= CONTAINER_VERSION_V2:
            chunk_crcs = np.frombuffer(
                blob, dtype="<u4", count=n_chunks, offset=offset).copy()
            offset += 4 * n_chunks
        if version >= CONTAINER_VERSION_V3:
            chunk_codecs = np.frombuffer(
                blob, dtype=np.uint8, count=n_chunks, offset=offset).copy()
            offset += n_chunks
        expected = ((original_size + chunk_size - 1) // chunk_size
                    if original_size else 0)
        if n_chunks != expected:
            raise CorruptHeaderError(
                f"chunk count inconsistent with sizes: header says "
                f"{n_chunks} chunks, {original_size} bytes at {chunk_size} "
                f"per chunk imply {expected}")
    else:
        if n_chunks != 0 or chunk_size != 0:
            raise CorruptHeaderError(
                "unchunked container carries chunk fields")

    payload = blob[offset:]
    info = ContainerInfo(format=fmt, original_size=original_size,
                         chunk_size=chunk_size if chunk_sizes is not None
                         else None,
                         chunk_sizes=chunk_sizes, payload=payload,
                         chunk_crcs=chunk_crcs, version=version,
                         chunk_codecs=chunk_codecs)
    if not strict:
        return info

    if chunk_codecs is not None:
        from repro.codecs import known_codec_ids
        known = known_codec_ids()
        bad_ids = np.nonzero(
            ~np.isin(chunk_codecs, np.fromiter(known, dtype=np.uint8)))[0]
        if bad_ids.size:
            first = int(bad_ids[0])
            raise CorruptChunkError(
                f"unknown codec id {int(chunk_codecs[first])}",
                chunk_index=first)

    if chunk_sizes is not None:
        declared = int(chunk_sizes.sum())
        if declared > len(payload):
            raise TruncatedContainerError(
                "container truncated inside payload",
                expected=offset + declared, actual=len(blob))
        if declared < len(payload):
            raise CorruptPayloadError("chunk table does not cover payload")
    if chunk_crcs is not None:
        ok = verify_chunks(info)
        bad = np.nonzero(~ok)[0]
        if bad.size:
            first = int(bad[0])
            raise CorruptChunkError(
                "chunk checksum mismatch",
                chunk_index=first,
                offset=int(info.chunk_ranges()[first, 0]))
    elif crc32(payload) != payload_crc:
        obs.inc("container.crc_checks")
        obs.inc("container.crc_failures")
        raise CorruptPayloadError("payload checksum mismatch")
    else:
        obs.inc("container.crc_checks")
    return info
