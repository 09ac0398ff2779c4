"""Pluggable per-chunk codecs: registry, four coders, and dispatch.

The paper's container records a compressed size per chunk (§III.C),
which makes the codec itself a per-chunk decision.  This package turns
that observation into an interface:

* :mod:`repro.codecs.base` — the :class:`Codec` ABC and registry;
* :mod:`repro.codecs.store` — raw passthrough (id 1);
* :mod:`repro.codecs.lzss` — the paper's token format (id 2);
* :mod:`repro.codecs.lz4s` — byte-aligned literal-run/match format
  tuned for encode throughput (id 3);
* :mod:`repro.codecs.lzss_huffman` — LZSS tokens under a canonical
  Huffman entropy stage, tuned for ratio (id 4);
* :mod:`repro.codecs.dispatch` — the content-aware per-chunk chooser
  (``--codec auto``).  Decoding a codec column is
  :func:`repro.lzss.decoder.decode_chunked_with_stats` with
  ``chunk_codecs=``.

Importing the package registers the four built-in codecs.
"""

from repro.codecs.base import (
    Codec,
    codec_names,
    get_codec,
    known_codec_ids,
    register_codec,
)
from repro.codecs.lz4s import LZ4S_CODEC_ID, Lz4sCodec
from repro.codecs.lzss import LZSS_CODEC_ID, LzssCodec
from repro.codecs.lzss_huffman import LZSS_HUFFMAN_CODEC_ID, LzssHuffmanCodec
from repro.codecs.store import STORE_CODEC_ID, StoreCodec
from repro.codecs.dispatch import (
    choose_chunk_codec,
    encode_chunked_auto,
    match_density,
)

__all__ = [
    "Codec",
    "LZ4S_CODEC_ID",
    "LZSS_CODEC_ID",
    "LZSS_HUFFMAN_CODEC_ID",
    "Lz4sCodec",
    "LzssCodec",
    "LzssHuffmanCodec",
    "STORE_CODEC_ID",
    "StoreCodec",
    "choose_chunk_codec",
    "codec_names",
    "encode_chunked_auto",
    "get_codec",
    "known_codec_ids",
    "match_density",
    "register_codec",
]
