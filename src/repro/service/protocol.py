"""The gateway frame protocol.

A *frame* is the unit of traffic between gateway pairs: one input
buffer, compressed (or passed through raw), prefixed with a fixed
header.  All integers little-endian::

    offset  size  field
    0       4     magic  b"CZF1"
    4       1     protocol version (1 or 2)
    5       1     flags (bit 0: RAW, bit 1: END, bit 2: ACK)
    6       2     reserved (0)
    8       8     stream id
    16      8     sequence number within the stream
    24      4     payload length
    28      4     CRC-32 of the payload
    [32     8     trace id — version 2 only]
    …       4     CRC-32 of all preceding header bytes — self-check

    …       …     payload

Version 1 headers are 36 bytes; version 2 inserts an 8-byte trace id
before the header CRC (44 bytes total).  The trace id threads a
:mod:`repro.obs` trace through the gateway: spans the egress opens for
a frame join the trace the ingress started, across the network.  The
version gate follows the container-v2 pattern: the writer emits a v1
header whenever ``trace_id == 0``, so untraced traffic stays
byte-identical to the historical wire format and old readers only ever
see frames they can parse.

Payload semantics by flags:

- no flags: a CULZSS container (``repro.container`` blob);
- ``RAW``: the original bytes, sent verbatim because the container
  came out no smaller (the incompressible-frame guard — a frame never
  expands its buffer by more than the 36-byte header);
- ``END``: end-of-stream marker; ``seq`` is the total number of data
  frames in the stream, payload empty;
- ``ACK``: egress → ingress delivery receipt; payload is
  :func:`pack_ack` (frames delivered, bytes delivered, running CRC-32
  of the delivered byte stream);
- ``NEG``: codec negotiation.  The ingress opens a stream by offering
  the set of container codec ids it may use (:func:`pack_neg`, one
  byte per id); the egress replies with a NEG frame carrying the
  intersection with what it accepts.  Ids the receiver never echoes
  must not appear in subsequent containers.  Streams that only ever
  use the classic LZSS pipeline skip the exchange entirely, keeping
  historical traffic byte-identical.

The header carries its own CRC so a desynchronized or corrupted stream
fails loudly at the frame boundary instead of feeding garbage to the
container parser.
"""

from __future__ import annotations

import asyncio
import struct
from dataclasses import dataclass

from repro.errors import FrameError
from repro.util.checksum import crc32

__all__ = [
    "FLAG_ACK",
    "FLAG_END",
    "FLAG_NEG",
    "FLAG_RAW",
    "FRAME_HEADER_SIZE",
    "FRAME_HEADER_SIZE_V2",
    "FRAME_MAGIC",
    "PROTOCOL_VERSION",
    "PROTOCOL_VERSION_V2",
    "Frame",
    "FrameError",
    "MAX_PAYLOAD",
    "decode_frame",
    "encode_frame",
    "pack_ack",
    "pack_neg",
    "read_frame",
    "unpack_ack",
    "unpack_neg",
    "write_frame",
]

FRAME_MAGIC = b"CZF1"
PROTOCOL_VERSION = 1
PROTOCOL_VERSION_V2 = 2
FRAME_HEADER_SIZE = 36          # version 1
FRAME_HEADER_SIZE_V2 = 44       # version 2: + 8-byte trace id
_HEADER_FMT = "<4sBBHQQII"  # through payload CRC; header CRC appended
_ACK_FMT = "<QQI"

FLAG_RAW = 1
FLAG_END = 2
FLAG_ACK = 4
FLAG_NEG = 8
_KNOWN_FLAGS = FLAG_RAW | FLAG_END | FLAG_ACK | FLAG_NEG

#: Sanity bound: no single frame payload above 1 GiB.  Protects the
#: receiver from allocating on a corrupted (but CRC-valid-header…)
#: length field long before memory pressure becomes an outage.
MAX_PAYLOAD = 1 << 30


# FrameError lives in :mod:`repro.errors` (the shared taxonomy) and is
# re-exported here for compatibility with pre-taxonomy imports.

@dataclass(frozen=True)
class Frame:
    """One protocol frame (header fields + payload bytes).

    ``trace_id`` (version 2) carries the :mod:`repro.obs` trace this
    frame belongs to; 0 means untraced, and the frame serializes with
    the byte-identical version-1 header.
    """

    stream_id: int
    seq: int
    flags: int = 0
    payload: bytes = b""
    trace_id: int = 0

    @property
    def is_raw(self) -> bool:
        return bool(self.flags & FLAG_RAW)

    @property
    def is_end(self) -> bool:
        return bool(self.flags & FLAG_END)

    @property
    def is_ack(self) -> bool:
        return bool(self.flags & FLAG_ACK)

    @property
    def is_neg(self) -> bool:
        return bool(self.flags & FLAG_NEG)

    @property
    def wire_size(self) -> int:
        header = FRAME_HEADER_SIZE_V2 if self.trace_id else FRAME_HEADER_SIZE
        return header + len(self.payload)


def encode_frame(frame: Frame) -> bytes:
    """Serialize a frame: header (with CRCs) + payload.

    A nonzero ``trace_id`` selects the version-2 header; otherwise the
    bytes are exactly the historical version-1 encoding.
    """
    if len(frame.payload) > MAX_PAYLOAD:
        raise FrameError(f"payload of {len(frame.payload)} bytes exceeds "
                         f"the {MAX_PAYLOAD}-byte frame bound")
    version = PROTOCOL_VERSION_V2 if frame.trace_id else PROTOCOL_VERSION
    head = struct.pack(_HEADER_FMT, FRAME_MAGIC, version,
                       frame.flags, 0, frame.stream_id, frame.seq,
                       len(frame.payload), crc32(frame.payload))
    if frame.trace_id:
        head += struct.pack("<Q", frame.trace_id)
    return head + struct.pack("<I", crc32(head)) + frame.payload


def _check_header(buf: memoryview) -> tuple:
    """Validate the frame header at the front of ``buf``.

    Checks magic, version, the header CRC, flags and the length bound,
    in that order, so no header field is trusted before its CRC.
    Returns ``(header_size, flags, stream_id, seq, length, payload_crc,
    trace_id)``.
    """
    if len(buf) < FRAME_HEADER_SIZE:
        raise FrameError("truncated before frame header")
    (magic, version, flags, _reserved, stream_id, seq, length,
     payload_crc) = struct.unpack_from(_HEADER_FMT, buf)
    if magic != FRAME_MAGIC:
        raise FrameError("bad frame magic")
    # The version byte places the header CRC (v2 inserts the trace id
    # first), so it is read pre-verification; a corrupted version byte
    # at worst misplaces the CRC check, which then fails.
    if version == PROTOCOL_VERSION:
        header_size, trace_id = FRAME_HEADER_SIZE, 0
    elif version == PROTOCOL_VERSION_V2:
        header_size = FRAME_HEADER_SIZE_V2
        if len(buf) < header_size:
            raise FrameError("truncated before frame header")
        (trace_id,) = struct.unpack_from("<Q", buf, 32)
    else:
        raise FrameError(f"unsupported protocol version {version}")
    (header_crc,) = struct.unpack_from("<I", buf, header_size - 4)
    if crc32(bytes(buf[:header_size - 4])) != header_crc:
        raise FrameError("frame header checksum mismatch")
    if flags & ~_KNOWN_FLAGS:
        raise FrameError(f"unknown frame flags {flags:#x}")
    if length > MAX_PAYLOAD:
        raise FrameError(f"frame length {length} exceeds bound")
    return header_size, flags, stream_id, seq, length, payload_crc, trace_id


def decode_frame(buf: bytes | bytearray | memoryview) -> tuple[Frame, int]:
    """Parse one frame off the front of ``buf``.

    Returns ``(frame, bytes_consumed)``; raises :class:`FrameError` on
    corruption or if ``buf`` holds less than one whole frame.
    """
    buf = memoryview(buf)
    (header_size, flags, stream_id, seq, length, payload_crc,
     trace_id) = _check_header(buf)
    end = header_size + length
    if len(buf) < end:
        raise FrameError("truncated inside frame payload")
    payload = bytes(buf[header_size:end])
    if crc32(payload) != payload_crc:
        raise FrameError("frame payload checksum mismatch")
    return Frame(stream_id=stream_id, seq=seq, flags=flags,
                 payload=payload, trace_id=trace_id), end


def pack_ack(frames: int, byte_count: int, crc: int) -> bytes:
    """ACK payload: frames delivered, bytes delivered, delivery CRC."""
    return struct.pack(_ACK_FMT, frames, byte_count, crc)


def unpack_ack(payload: bytes) -> tuple[int, int, int]:
    if len(payload) != struct.calcsize(_ACK_FMT):
        raise FrameError("malformed ACK payload")
    return struct.unpack(_ACK_FMT, payload)


def pack_neg(codec_ids) -> bytes:
    """NEG payload: sorted, deduplicated codec ids, one byte each."""
    ids = sorted(set(int(i) for i in codec_ids))
    if any(not 1 <= i <= 255 for i in ids):
        raise FrameError(f"codec ids must be in 1..255, got {ids}")
    return bytes(ids)


def unpack_neg(payload: bytes) -> frozenset[int]:
    if len(payload) > 255:
        raise FrameError("malformed NEG payload")
    if 0 in payload:
        raise FrameError("codec id 0 is invalid in NEG payload")
    return frozenset(payload)


async def read_frame(reader: asyncio.StreamReader,
                     timeout: float | None = None) -> Frame | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    A connection dropping *inside* a frame raises :class:`FrameError`;
    exceeding ``timeout`` seconds raises :class:`asyncio.TimeoutError`.
    """

    async def _read() -> Frame | None:
        try:
            head = await reader.readexactly(FRAME_HEADER_SIZE)
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None
            raise FrameError("connection closed mid-header") from exc
        if head[:4] != FRAME_MAGIC:
            raise FrameError("bad frame magic")
        if head[4] == PROTOCOL_VERSION_V2:
            try:
                head += await reader.readexactly(
                    FRAME_HEADER_SIZE_V2 - FRAME_HEADER_SIZE)
            except asyncio.IncompleteReadError as exc:
                raise FrameError("connection closed mid-header") from exc
        # The length field is trusted only after the header CRC passes:
        # a corrupted length fails here instead of stalling on, or
        # swallowing, bytes that belong to the next frame.
        length = _check_header(memoryview(head))[4]
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise FrameError("connection closed mid-payload") from exc
        frame, _ = decode_frame(head + body)
        return frame

    if timeout is None:
        return await _read()
    return await asyncio.wait_for(_read(), timeout)


async def write_frame(writer: asyncio.StreamWriter, frame: Frame,
                      timeout: float | None = None) -> None:
    """Write one frame and drain (which is where backpressure bites)."""
    writer.write(encode_frame(frame))
    if timeout is None:
        await writer.drain()
    else:
        await asyncio.wait_for(writer.drain(), timeout)
