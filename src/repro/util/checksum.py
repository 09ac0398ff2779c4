"""CRC-32 (IEEE), the checksum of the container and the frame protocol.

``crc32_reference`` is a from-scratch table-driven CRC-32 — the
executable specification.  ``crc32`` is the production entry point; it
delegates to :func:`binascii.crc32` (C speed, same polynomial), and the
test suite property-checks the two against each other.
"""

from __future__ import annotations

import binascii

import numpy as np

from repro.util.buffers import as_u8

__all__ = ["crc32", "crc32_reference"]

_CRC_POLY = 0xEDB88320  # reflected IEEE 802.3 polynomial


def _build_crc_table() -> list[int]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ _CRC_POLY if crc & 1 else crc >> 1
        table.append(crc)
    return table


_CRC_TABLE = _build_crc_table()


def crc32_reference(data: bytes | np.ndarray, crc: int = 0) -> int:
    """Table-driven CRC-32, bit-for-bit compatible with zlib's crc32."""
    crc ^= 0xFFFFFFFF
    for byte in bytes(as_u8(data).tobytes()):
        crc = _CRC_TABLE[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


def crc32(data: bytes | bytearray | memoryview | np.ndarray, crc: int = 0) -> int:
    """CRC-32 of ``data`` (fast path; identical to :func:`crc32_reference`)."""
    if isinstance(data, np.ndarray):
        data = as_u8(data).tobytes()
    return binascii.crc32(data, crc) & 0xFFFFFFFF

