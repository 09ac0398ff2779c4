"""The serial CPU LZSS driver — the paper's baseline implementation.

A thin, stateful wrapper over :mod:`repro.lzss` with Dipperstein's
parameters pinned (window 4096, lookahead 18, 17-bit tokens), plus the
container framing so serial streams are self-describing like the GPU
ones.
"""

from __future__ import annotations

from repro.container import pack_container, unpack_container
from repro.lzss.decoder import decode
from repro.lzss.encoder import EncodeResult, encode
from repro.lzss.formats import SERIAL
from repro.util.buffers import as_bytes
from repro.util.validation import require

__all__ = ["SerialLzss"]


class SerialLzss:
    """Serial LZSS compressor/decompressor (Dipperstein parameters)."""

    format = SERIAL

    def __init__(self, parse: str = "greedy"):
        self.parse = parse

    def compress(self, data) -> EncodeResult:
        """Compress to a raw LZSS bit stream (+stats)."""
        return encode(as_bytes(data), self.format, parse=self.parse)

    def compress_container(self, data) -> bytes:
        """Compress to a self-describing container blob."""
        return pack_container(self.compress(data))

    def decompress(self, payload, output_size: int) -> bytes:
        """Decompress a raw stream of known original size."""
        return decode(payload, self.format, output_size)

    def decompress_container(self, blob) -> bytes:
        """Decompress a container blob."""
        info = unpack_container(as_bytes(blob))
        require(info.format.name == self.format.name,
                f"container holds {info.format.name!r} data, not serial")
        require(not info.is_chunked, "serial containers are unchunked")
        return self.decompress(info.payload, info.original_size)
