"""Shared low-level utilities: bit streams, checksums, buffers, validation.

These are the common substrate under every codec in the package.  They are
deliberately dependency-free (NumPy only) and individually unit-tested.
"""

from repro.util.bitio import (
    BitReader,
    BitWriter,
    gather_fields,
    pack_tokens,
    unpack_bits,
)
from repro.util.buffers import as_bytes, as_u8
from repro.util.checksum import crc32, crc32_reference
from repro.util.validation import require, require_range, require_type

__all__ = [
    "BitReader",
    "BitWriter",
    "as_bytes",
    "as_u8",
    "crc32",
    "crc32_reference",
    "gather_fields",
    "pack_tokens",
    "require",
    "require_range",
    "require_type",
    "unpack_bits",
]
