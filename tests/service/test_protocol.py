"""The gateway frame protocol: layout, CRCs, async framing."""

from __future__ import annotations

import asyncio
import struct

import pytest

from repro.service.protocol import (
    FLAG_ACK,
    FLAG_END,
    FLAG_RAW,
    FRAME_HEADER_SIZE,
    FRAME_MAGIC,
    Frame,
    FrameError,
    decode_frame,
    encode_frame,
    pack_ack,
    read_frame,
    unpack_ack,
)


@pytest.mark.parametrize("flags", [0, FLAG_RAW, FLAG_END, FLAG_ACK,
                                   FLAG_RAW | FLAG_END])
@pytest.mark.parametrize("payload", [b"", b"x", b"hello frame" * 100])
def test_round_trip(flags, payload):
    frame = Frame(stream_id=7, seq=123456789, flags=flags, payload=payload)
    blob = encode_frame(frame)
    assert blob[:4] == FRAME_MAGIC
    assert len(blob) == FRAME_HEADER_SIZE + len(payload)
    assert frame.wire_size == len(blob)
    decoded, consumed = decode_frame(blob)
    assert decoded == frame
    assert consumed == len(blob)


def test_decode_ignores_trailing_bytes():
    frame = Frame(stream_id=1, seq=2, payload=b"abc")
    blob = encode_frame(frame) + b"NEXTFRAME..."
    decoded, consumed = decode_frame(blob)
    assert decoded == frame
    assert consumed == FRAME_HEADER_SIZE + 3


def test_flag_properties():
    f = Frame(0, 0, flags=FLAG_RAW | FLAG_END)
    assert f.is_raw and f.is_end and not f.is_ack
    assert Frame(0, 0, flags=FLAG_ACK).is_ack


@pytest.mark.parametrize("mutate_at", [0, 5, 10, 20, 30])
def test_header_corruption_detected(mutate_at):
    blob = bytearray(encode_frame(Frame(1, 2, payload=b"payload")))
    blob[mutate_at] ^= 0xFF
    with pytest.raises(FrameError):
        decode_frame(bytes(blob))


def test_payload_corruption_detected():
    blob = bytearray(encode_frame(Frame(1, 2, payload=b"payload")))
    blob[-1] ^= 0x01
    with pytest.raises(FrameError, match="payload checksum"):
        decode_frame(bytes(blob))


def test_truncation_detected():
    blob = encode_frame(Frame(1, 2, payload=b"payload"))
    with pytest.raises(FrameError):
        decode_frame(blob[:FRAME_HEADER_SIZE - 1])
    with pytest.raises(FrameError):
        decode_frame(blob[:-1])


def test_unknown_flags_rejected():
    head = struct.pack("<4sBBHQQII", FRAME_MAGIC, 1, 0x80, 0, 0, 0, 0, 0)
    from repro.util.checksum import crc32

    blob = head + struct.pack("<I", crc32(head))
    with pytest.raises(FrameError, match="flags"):
        decode_frame(blob)


def test_ack_payload_round_trip():
    payload = pack_ack(12, 34567, 0xDEADBEEF)
    assert unpack_ack(payload) == (12, 34567, 0xDEADBEEF)
    with pytest.raises(FrameError):
        unpack_ack(payload + b"x")


def _fed_reader(*blobs: bytes, eof: bool = True) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    for blob in blobs:
        reader.feed_data(blob)
    if eof:
        reader.feed_eof()
    return reader


def test_read_frame_stream():
    frames = [Frame(1, i, payload=bytes([i]) * i) for i in range(5)]

    async def scenario():
        reader = _fed_reader(b"".join(encode_frame(f) for f in frames))
        got = []
        while (f := await read_frame(reader)) is not None:
            got.append(f)
        return got

    assert asyncio.run(scenario()) == frames


def test_read_frame_clean_eof_is_none():
    async def scenario():
        return await read_frame(_fed_reader())

    assert asyncio.run(scenario()) is None


def test_read_frame_mid_frame_eof_raises():
    blob = encode_frame(Frame(1, 2, payload=b"payload"))

    async def scenario(cut: int):
        return await read_frame(_fed_reader(blob[:cut]))

    with pytest.raises(FrameError, match="mid-header"):
        asyncio.run(scenario(10))
    with pytest.raises(FrameError, match="mid-payload"):
        asyncio.run(scenario(FRAME_HEADER_SIZE + 2))


def test_read_frame_timeout():
    async def scenario():
        reader = asyncio.StreamReader()  # never fed
        await read_frame(reader, timeout=0.05)

    with pytest.raises((asyncio.TimeoutError, TimeoutError)):
        asyncio.run(scenario())


def test_read_frame_rejects_stale_header_crc_before_reading_payload():
    """A length field rewritten without fixing the header CRC fails at
    once, instead of waiting for (or swallowing) a payload that never
    comes."""
    blob = bytearray(encode_frame(Frame(1, 2, payload=b"payload")))
    struct.pack_into("<I", blob, 24, 1 << 20)  # length: 1 MiB, CRC stale
    valid = encode_frame(Frame(1, 3, payload=b"next frame"))

    async def scenario():
        reader = _fed_reader(bytes(blob), valid, eof=False)
        await read_frame(reader, timeout=1.0)

    with pytest.raises(FrameError, match="frame header checksum mismatch"):
        asyncio.run(scenario())
