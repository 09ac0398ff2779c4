"""The ``lzss`` codec: the paper's token format behind the Codec ABC.

A thin adapter — encode and decode delegate to the existing vectorized
encoder and decoder: ``encode_run`` is exactly
:func:`repro.lzss.encoder.encode_chunked`, so a run of lzss chunks
under the dispatcher is byte-identical to (and as fast as) the classic
single-codec path.
"""

from __future__ import annotations

import numpy as np

from repro.codecs.base import Codec, register_codec
from repro.lzss.decoder import decode_chunked_with_stats
from repro.lzss.encoder import encode_chunked
from repro.lzss.formats import TokenFormat

__all__ = ["LZSS_CODEC_ID", "LzssCodec"]

LZSS_CODEC_ID = 2


class LzssCodec(Codec):
    name = "lzss"
    codec_id = LZSS_CODEC_ID

    def decode_chunk(self, payload: np.ndarray, fmt: TokenFormat,
                     output_size: int, *, chunk_index: int = 0) -> np.ndarray:
        if output_size == 0:
            return np.zeros(0, dtype=np.uint8)
        out, _tokens, _report = decode_chunked_with_stats(
            payload, fmt, [payload.size], output_size, output_size,
            first_chunk=chunk_index)
        return np.frombuffer(out, dtype=np.uint8)

    def encode_run(self, data: np.ndarray, fmt: TokenFormat,
                   chunk_size: int) -> tuple[bytes, np.ndarray]:
        result = encode_chunked(data, fmt, chunk_size)
        return result.payload, np.asarray(result.chunk_sizes, dtype=np.int64)


register_codec(LzssCodec())
