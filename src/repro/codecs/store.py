"""The ``store`` codec: raw passthrough for incompressible chunks.

Compression schemes pay a framing tax on data they cannot shrink —
LZSS spends 9 bits per literal, so a chunk of high-entropy bytes
*expands* by ~12.5%.  The store codec is the dispatcher's escape
hatch: the chunk's bytes are the payload, verbatim.  Decoding is a
length check and a copy; the per-chunk CRC (container v2+) still
guards integrity.
"""

from __future__ import annotations

import numpy as np

from repro.codecs.base import Codec, register_codec
from repro.errors import CorruptChunkError
from repro.lzss.formats import TokenFormat

__all__ = ["STORE_CODEC_ID", "StoreCodec"]

STORE_CODEC_ID = 1


class StoreCodec(Codec):
    name = "store"
    codec_id = STORE_CODEC_ID

    def decode_chunk(self, payload: np.ndarray, fmt: TokenFormat,
                     output_size: int, *, chunk_index: int = 0) -> np.ndarray:
        if payload.size != output_size:
            raise CorruptChunkError(
                f"store payload is {payload.size} bytes, "
                f"declared output is {output_size}",
                chunk_index=chunk_index)
        return np.asarray(payload, dtype=np.uint8)

    def encode_run(self, data: np.ndarray, fmt: TokenFormat,
                   chunk_size: int) -> tuple[bytes, np.ndarray]:
        n = int(data.size)
        n_chunks = -(-n // chunk_size) if n else 0
        sizes = np.full(n_chunks, chunk_size, dtype=np.int64)
        if n_chunks:
            sizes[-1] = n - (n_chunks - 1) * chunk_size
        return data.tobytes(), sizes


register_codec(StoreCodec())
