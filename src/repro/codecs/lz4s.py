"""The ``lz4s`` codec: a byte-aligned literal-run/match format for speed.

LZSS spends one flag bit per token and packs fields at arbitrary bit
offsets — great for ratio, but both ends pay for the bit twiddling.
This codec trades ratio for throughput the way LZ4 does (cf. the
GPU-LZ4 line of work, arXiv:2409.12433): everything is byte-aligned,
literals travel in *runs* under one control byte, and the matcher runs
at a shallow chain depth.

Wire format (per chunk, self-contained):

* control byte ``c < 0x80`` — literal run: the next ``c + 1`` bytes
  (1..128) are verbatim literals.  Longer runs split into consecutive
  full blocks.
* control byte ``c >= 0x80`` — match: length ``(c & 0x7F) + 4``
  (4..131), followed by a 2-byte little-endian distance (1..65535).

Matches never cross chunk boundaries, distances are chunk-local, and
a chunk's stream must consume its payload exactly and produce exactly
the declared output size — violations raise
:class:`~repro.errors.CorruptChunkError` like every other codec.

Both directions are single-pass NumPy over the shared
:class:`~repro.lzss.parse.Tokens`: encode parses its own hash-chain
matches with :func:`~repro.lzss.encoder.tokens_from_matches` and
scatters one to three bytes per token; decode walks a byte-level jump
chain (:func:`~repro.lzss.parse.reachable_from`) into literal-run and
match tokens and resolves them with
:func:`~repro.lzss.decoder.reconstruct`.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.codecs.base import Codec, register_codec
from repro.errors import CorruptChunkError
from repro.lzss.decoder import reconstruct
from repro.lzss.encoder import tokens_from_matches
from repro.lzss.formats import TokenFormat
from repro.lzss.matcher import hash_chain_best_matches
from repro.lzss.parse import Tokens, reachable_from
from repro.util.bitio import ragged_arange
from repro.util.buffers import as_u8
from repro.util.validation import require_range

__all__ = [
    "LZ4S_CODEC_ID",
    "LZ4S_MAX_DIST",
    "LZ4S_MAX_MATCH",
    "LZ4S_MIN_MATCH",
    "Lz4sCodec",
    "lz4s_decode_chunk",
    "lz4s_encode_chunked",
    "lz4s_tokenize",
]

LZ4S_CODEC_ID = 3
LZ4S_MIN_MATCH = 4
LZ4S_MAX_MATCH = 0x7F + LZ4S_MIN_MATCH  # 131
LZ4S_MAX_RUN = 128
LZ4S_MAX_DIST = 0xFFFF

#: Shallow chain depth, the codec's speed setting.  Eight probes catch
#: the bulk of 4+ byte matches at a fraction of lzss's depth of 64.
LZ4S_MAX_CHAIN = 8


def lz4s_tokenize(arr: np.ndarray, chunk_size: int) -> Tokens:
    """Chunk-local lz4s tokens: shallow hash-chain matches, min match 4.

    Reports the ``encode.match`` and ``encode.parse`` stages, the same
    ledger rows as the lzss tokenizer.
    """
    window = min(chunk_size, LZ4S_MAX_DIST)
    with obs.stage("encode.match", bytes=arr.size):
        blen, bdist = hash_chain_best_matches(arr, window, LZ4S_MAX_MATCH,
                                              max_chain=LZ4S_MAX_CHAIN,
                                              chunk_size=chunk_size)
    with obs.stage("encode.parse", bytes=arr.size):
        advance = np.where(blen >= LZ4S_MIN_MATCH, blen, 1).astype(np.int64)
        return tokens_from_matches(bdist, advance, chunk_size)


def lz4s_encode_chunked(data, chunk_size: int) -> tuple[bytes, np.ndarray]:
    """Encode consecutive chunks; returns (payload, per-chunk sizes).

    The byte scatter after :func:`lz4s_tokenize` is the ``encode.pack``
    stage.
    """
    arr = as_u8(data)
    n = arr.size
    require_range(chunk_size, 1, 1 << 40, "chunk_size")
    n_chunks = (n + chunk_size - 1) // chunk_size if n else 0
    if n_chunks == 0:
        return b"", np.zeros(0, dtype=np.int64)

    tokens = lz4s_tokenize(arr, chunk_size)
    with obs.stage("encode.pack", bytes=n, tokens=int(tokens.starts.size)):
        chunk_id = tokens.starts // chunk_size
        lit = np.nonzero(~tokens.is_pair)[0]
        m = np.nonzero(tokens.is_pair)[0]

        # Consecutive literal tokens of one chunk form a run.  The run's
        # literals k = 0, 128, 256, ... each open a block behind a
        # control byte holding the block size - 1.
        run_head = np.ones(lit.size, dtype=bool)
        run_head[1:] = (np.diff(lit) > 1) | (np.diff(chunk_id[lit]) != 0)
        run = np.cumsum(run_head) - 1
        k = np.arange(lit.size) - np.nonzero(run_head)[0][run]
        left = np.bincount(run)[run] - k  # literals left in the run
        opens = k % LZ4S_MAX_RUN == 0

        size = np.full(tokens.starts.size, 3, dtype=np.int64)
        size[lit] = 1 + opens
        off = np.cumsum(size) - size
        chunk_sizes = np.bincount(chunk_id, weights=size,
                                  minlength=n_chunks).astype(np.int64)

        out = np.empty(int(size.sum()), dtype=np.uint8)
        out[off[lit][opens]] = np.minimum(left[opens], LZ4S_MAX_RUN) - 1
        out[off[lit] + opens] = arr[tokens.starts[lit]]
        out[off[m]] = 0x80 | (tokens.lengths[m] - LZ4S_MIN_MATCH)
        out[off[m] + 1] = tokens.distances[m] & 0xFF
        out[off[m] + 2] = tokens.distances[m] >> 8
        return out.tobytes(), chunk_sizes


def lz4s_decode_chunk(payload: np.ndarray, output_size: int,
                      chunk_index: int = 0) -> np.ndarray:
    """Decode one chunk payload to exactly ``output_size`` bytes."""
    def corrupt(message: str, token: int | None = None) -> CorruptChunkError:
        return CorruptChunkError(message, chunk_index=chunk_index,
                                 token_position=token)

    p = np.asarray(payload, dtype=np.uint8)
    nb = p.size
    if output_size == 0:
        if nb:
            raise corrupt("lz4s: nonempty payload for empty chunk")
        return np.zeros(0, dtype=np.uint8)
    if nb == 0:
        raise corrupt("lz4s: empty payload for nonempty chunk")

    # Byte-level token scan: every control byte names its token size.
    ctrl = p.astype(np.int64)
    step = np.where(ctrl >= 0x80, 3, ctrl + 2)
    jump = np.arange(nb, dtype=np.int64) + step
    starts = reachable_from(jump, 0)
    ends = starts + step[starts]
    if int(ends[-1]) != nb:
        raise corrupt("lz4s: token stream does not consume payload exactly",
                      token=int(starts.size) - 1)

    c = ctrl[starts]
    is_match = c >= 0x80
    out_len = np.where(is_match, (c & 0x7F) + LZ4S_MIN_MATCH, c + 1)
    out_ends = np.cumsum(out_len)
    if int(out_ends[-1]) != output_size:
        raise corrupt("lz4s: token output does not land on declared size",
                      token=int(starts.size) - 1)

    lit_idx = np.nonzero(~is_match)[0]
    lens = out_len[lit_idx]
    literals = p[np.repeat(starts[lit_idx] + 1, lens) + ragged_arange(lens)]

    m_idx = np.nonzero(is_match)[0]
    m_start = starts[m_idx]
    dist = ctrl[m_start + 1] | (ctrl[m_start + 2] << 8)
    if m_idx.size and int(dist.min()) == 0:
        raise corrupt("lz4s: zero match distance",
                      token=int(m_idx[np.nonzero(dist == 0)[0][0]]))
    distances = np.zeros(starts.size, dtype=np.int64)
    distances[m_idx] = dist
    tokens = Tokens(starts=out_ends - out_len, is_pair=is_match,
                    lengths=out_len, distances=distances)
    return reconstruct(tokens, literals, output_size,
                       chunk_index=chunk_index)


class Lz4sCodec(Codec):
    name = "lz4s"
    codec_id = LZ4S_CODEC_ID

    def decode_chunk(self, payload: np.ndarray, fmt: TokenFormat,
                     output_size: int, *, chunk_index: int = 0) -> np.ndarray:
        return lz4s_decode_chunk(payload, output_size, chunk_index)

    def encode_run(self, data: np.ndarray, fmt: TokenFormat,
                   chunk_size: int) -> tuple[bytes, np.ndarray]:
        return lz4s_encode_chunked(data, chunk_size)


register_codec(Lz4sCodec())
