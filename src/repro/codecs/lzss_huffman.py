"""The ``lzss-huffman`` codec: LZSS tokens under an entropy stage.

LZSS spends a flat 9 bits per literal; on text (~4.5 bits of actual
entropy per byte) that is the dominant waste.  Following the classic
LZSS+Huffman pairing (cf. arXiv:1107.1525), this codec tokenizes a
run of chunks exactly like ``lzss``, in one chunk-major
:func:`~repro.lzss.encoder.tokenize` call, and then entropy-codes each
chunk's token stream (:func:`~repro.lzss.encoder.split_tokens`) on its
own with the canonical length-limited Huffman coder from
:mod:`repro.bzip2.huffman`:

* a 257-symbol alphabet — byte values 0..255 for literals plus a
  ``MATCH`` marker (256) — carries the token *sequence*;
* match fields ride in a separate raw bit stream, ``length_bits``
  of (length − min_match) then ``offset_bits`` of (distance − 1)
  per match, in token order.

Wire format (per chunk, self-contained, all lengths byte-aligned)::

    u32 n_tokens   u32 n_matches   u32 sym_bits      (little-endian)
    129 bytes      nibble-packed code lengths, symbols 0..256
                   (symbol i -> byte i//2, even i low nibble)
    ceil(sym_bits/8) bytes        Huffman-coded symbol stream
    ceil(n_matches*(offset_bits+length_bits)/8) bytes  match fields

Code lengths are limited to 15 so every length fits one nibble and
the decode LUT stays 32K entries.  The ~141-byte header tax is why
the dispatcher only picks this codec when literal entropy is low
enough for the symbol stream to win it back.
"""

from __future__ import annotations

import struct

import numpy as np

from repro import obs
from repro.bzip2.huffman import HuffmanCode, huffman_decode, huffman_encode
from repro.codecs.base import Codec, register_codec
from repro.errors import CorruptChunkError
from repro.lzss.decoder import reconstruct
from repro.lzss.encoder import split_tokens, tokenize
from repro.lzss.formats import TokenFormat
from repro.lzss.parse import Tokens
from repro.util.bitio import gather_fields, pack_tokens, unpack_bits

__all__ = ["LZSS_HUFFMAN_CODEC_ID", "MATCH_SYMBOL", "LzssHuffmanCodec",
           "pack_lzss_huffman"]

LZSS_HUFFMAN_CODEC_ID = 4

#: The 257th symbol: "a match token follows in the field stream".
MATCH_SYMBOL = 256
_N_SYMBOLS = 257
_TABLE_BYTES = (_N_SYMBOLS + 1) // 2  # 129 nibble-packed lengths
_HEADER = struct.Struct("<III")
#: Nibble-packed lengths cap the code depth (and the decode LUT) at 15.
_MAX_CODE_LEN = 15


def pack_lzss_huffman(tokens: Tokens, chunk: np.ndarray,
                      fmt: TokenFormat) -> bytes:
    """One nonempty chunk's tokens in the lzss-huffman wire format."""
    is_match = tokens.is_pair
    symbols = np.where(is_match, MATCH_SYMBOL,
                       chunk[tokens.starts].astype(np.int64))
    # Ledger: the entropy stage alone (tree build + symbol coding).
    with obs.stage("codec.huffman", bytes=int(chunk.size)):
        code = HuffmanCode.from_frequencies(
            np.bincount(symbols, minlength=_N_SYMBOLS), _MAX_CODE_LEN)
        sym_payload, sym_bits = huffman_encode(symbols, code)

    fw = fmt.offset_bits + fmt.length_bits
    fields = (((tokens.distances[is_match] - 1) << fmt.length_bits)
              | (tokens.lengths[is_match] - fmt.min_match))
    match_payload, _bits = pack_tokens(
        fields, np.full(fields.size, fw, dtype=np.int64))

    nib = np.zeros(_TABLE_BYTES * 2, dtype=np.uint8)
    nib[:_N_SYMBOLS] = code.lengths.astype(np.uint8)
    table = (nib[0::2] | (nib[1::2] << 4)).tobytes()

    header = _HEADER.pack(int(symbols.size), int(fields.size), int(sym_bits))
    return header + table + sym_payload + match_payload


class LzssHuffmanCodec(Codec):
    name = "lzss-huffman"
    codec_id = LZSS_HUFFMAN_CODEC_ID

    def encode_run(self, data: np.ndarray, fmt: TokenFormat,
                   chunk_size: int) -> tuple[bytes, np.ndarray]:
        tokens, _stats = tokenize(data, fmt, chunk_size)
        parts = [pack_lzss_huffman(chunk_tokens, chunk, fmt)
                 for chunk, chunk_tokens in split_tokens(tokens, data,
                                                         chunk_size)]
        return b"".join(parts), np.array([len(p) for p in parts],
                                         dtype=np.int64)

    def decode_chunk(self, payload: np.ndarray, fmt: TokenFormat,
                     output_size: int, *, chunk_index: int = 0) -> np.ndarray:
        def corrupt(message: str) -> CorruptChunkError:
            return CorruptChunkError(f"lzss-huffman: {message}",
                                     chunk_index=chunk_index)

        p = np.asarray(payload, dtype=np.uint8)
        if output_size == 0:
            if p.size:
                raise corrupt("nonempty payload for empty chunk")
            return np.zeros(0, dtype=np.uint8)
        if p.size < _HEADER.size + _TABLE_BYTES:
            raise corrupt("payload too short for header and code table")
        n_tokens, n_matches, sym_bits = _HEADER.unpack_from(p.tobytes(), 0)
        if not (1 <= n_tokens <= output_size and n_matches <= n_tokens):
            raise corrupt("inconsistent token counts")

        packed = p[_HEADER.size:_HEADER.size + _TABLE_BYTES]
        lengths = np.empty(_TABLE_BYTES * 2, dtype=np.int64)
        lengths[0::2] = packed & 0x0F
        lengths[1::2] = packed >> 4
        lengths = lengths[:_N_SYMBOLS]

        sym_off = _HEADER.size + _TABLE_BYTES
        sym_nbytes = (sym_bits + 7) // 8
        fw = fmt.offset_bits + fmt.length_bits
        match_nbytes = (n_matches * fw + 7) // 8
        if p.size != sym_off + sym_nbytes + match_nbytes:
            raise corrupt(
                f"payload is {p.size} bytes, layout declares "
                f"{sym_off + sym_nbytes + match_nbytes}")

        try:
            code = HuffmanCode.from_lengths(lengths)
            symbols = huffman_decode(
                p[sym_off:sym_off + sym_nbytes].tobytes(), sym_bits, code,
                n_tokens)
        except ValueError as exc:
            raise corrupt(str(exc)) from exc
        is_match = symbols == MATCH_SYMBOL
        if int(is_match.sum()) != n_matches:
            raise corrupt("match marker count disagrees with header")

        out_len = np.ones(n_tokens, dtype=np.int64)
        distances = np.zeros(n_tokens, dtype=np.int64)
        if n_matches:
            fields = gather_fields(
                unpack_bits(p[sym_off + sym_nbytes:]),
                np.arange(n_matches, dtype=np.int64) * fw, fw)
            m_len = (fields & ((1 << fmt.length_bits) - 1)) + fmt.min_match
            m_dist = (fields >> fmt.length_bits) + 1
            if int(m_dist.max()) > fmt.window:
                raise corrupt("match distance exceeds window")
            out_len[is_match] = m_len
            distances[is_match] = m_dist
        ends = np.cumsum(out_len)
        if int(ends[-1]) != output_size:
            raise corrupt("token output does not land on declared size")
        tokens = Tokens(starts=ends - out_len, is_pair=is_match,
                        lengths=out_len, distances=distances)
        return reconstruct(tokens, symbols[~is_match].astype(np.uint8),
                           output_size, chunk_index=chunk_index)


register_codec(LzssHuffmanCodec())
