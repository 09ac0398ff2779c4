"""Fast vectorized LZSS encoder.

The encode pipeline is four vector stages — no per-byte Python:

1. all-position longest matches (lag method for CUDA windows,
   hash-chain for the serial window);
2. greedy parse → :class:`~repro.lzss.parse.Tokens` (chunk-seeded jump
   doubling, :func:`tokens_from_matches`);
3. token field packing → ragged (value, nbits) arrays;
4. one :func:`repro.util.bitio.pack_tokens` call, which places each
   field's few bytes with one ``bincount`` (O(tokens), not O(bits)),
   with per-chunk byte alignment injected as pad entries so the
   chunked container can slice chunks on byte boundaries.

Stages 1–2 are :func:`tokenize`, stages 3–4 :func:`pack_lzss`.  The
other codecs emit their own wire formats from the same tokens:
lzss-huffman per chunk from one chunk-major :func:`tokenize` of a
whole run (:func:`split_tokens` hands each chunk its own tokens), lz4s
from :func:`tokens_from_matches` over its own hash-chain matches.

``encode`` produces one continuous stream (the serial format);
``encode_chunked`` produces independently-decodable chunk streams (the
GPU distribution and the Pthread chunking).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.lzss.formats import FLAG_LITERAL, TokenFormat
from repro.lzss.lagmatch import lag_best_matches
from repro.lzss.matcher import DEFAULT_MAX_CHAIN, hash_chain_best_matches
from repro.lzss.parse import Tokens, greedy_token_starts, optimal_token_advance
from repro.lzss.stats import EncodeStats
from repro.util.bitio import pack_tokens
from repro.util.buffers import as_u8
from repro.util.validation import require_range

__all__ = ["EncodeResult", "best_matches", "encode", "encode_chunked",
           "pack_lzss", "split_tokens", "tokenize", "tokens_from_matches"]

#: Largest window for which the exact per-lag scan is the matcher of
#: choice; beyond this the hash chain wins by a mile.
LAG_WINDOW_LIMIT = 512


@dataclass
class EncodeResult:
    """Compressed payload plus everything the caller may want to know.

    ``chunk_sizes`` is the paper's "list of block compression sizes"
    (§III.C): byte length of each independently-decodable chunk stream,
    present only for chunked encodes.  ``chunk_codecs`` is the per-chunk
    codec-id column (:mod:`repro.codecs`) — ``None`` for the classic
    single-codec lzss path, a uint8 array (container v3) when the
    dispatcher chose codecs per chunk.
    """

    payload: bytes
    format: TokenFormat
    input_size: int
    chunk_sizes: np.ndarray | None
    chunk_size: int | None
    stats: EncodeStats
    chunk_codecs: np.ndarray | None = None


def best_matches(
    arr: np.ndarray,
    fmt: TokenFormat,
    chunk_size: int | None,
    max_chain: int = DEFAULT_MAX_CHAIN,
    collect_detail: bool = False,
    slice_size: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Dispatch to the right matcher.

    Returns ``(len, dist, warp_compares)``: the all-position match
    arrays, then the per-warp SIMT-lockstep comparison cost the lag
    matcher collects — ``None`` on the hash-chain path (serial window)
    or when ``collect_detail`` is off.  The lag matcher's total compare
    count goes to the ``matcher.lag_compares`` counter.
    """
    if fmt.window <= LAG_WINDOW_LIMIT and slice_size is None:
        res = lag_best_matches(arr, fmt.window, fmt.max_match,
                               chunk_size=chunk_size,
                               collect_per_position=collect_detail)
        obs.inc("matcher.lag_calls")
        if res.compare_count:
            obs.inc("matcher.lag_compares", int(res.compare_count))
        return res.best_len, res.best_dist, res.warp_compares
    blen, bdist = hash_chain_best_matches(arr, fmt.window, fmt.max_match,
                                          max_chain=max_chain,
                                          chunk_size=chunk_size,
                                          slice_size=slice_size)
    return blen, bdist, None


def tokens_from_matches(best_dist: np.ndarray, advance: np.ndarray,
                        chunk_size: int | None) -> Tokens:
    """The greedy parse of all-position matches, as :class:`Tokens`.

    ``advance[i]`` is how far the parse moves on from ``i``: the
    accepted match length, or 1 for a literal.  It carries the parse
    policy (greedy, lazy, optimal, lz4s's minimum match), so a token is
    a pair exactly when it advances more than one byte, and takes its
    distance from ``best_dist``.  ``chunk_size`` restarts the parse at
    every chunk; ``None`` parses one stream.
    """
    starts = greedy_token_starts(advance, chunk_size)
    lengths = advance[starts]
    is_pair = lengths > 1
    distances = np.where(is_pair, best_dist[starts], 0).astype(np.int64)
    return Tokens(starts=starts, is_pair=is_pair, lengths=lengths,
                  distances=distances)


def tokenize(arr: np.ndarray, fmt: TokenFormat, chunk_size: int | None,
             max_chain: int = DEFAULT_MAX_CHAIN,
             collect_detail: bool = False,
             slice_size: int | None = None,
             parse: str = "greedy") -> tuple[Tokens, EncodeStats]:
    """Stages 1–2: matches → parse → :class:`Tokens` plus their stats.

    With ``slice_size`` the greedy parse restarts at every slice (the
    CULZSS V1 per-thread boundaries); slices always divide chunks, so
    chunk restarts are implied.

    ``parse="lazy"`` applies one-byte lazy evaluation (the classic
    zlib refinement, one of §VII's "improvements to be made on the
    LZSS algorithm"): a match is deferred in favour of a literal when
    the *next* position holds a strictly longer match.  The rule is
    local, so it stays a vectorized advance-array rewrite.

    ``parse="optimal"`` computes the bit-optimal parse by dynamic
    programming (:func:`repro.lzss.parse.optimal_token_advance`) —
    slower, for when ratio matters more than encode speed.

    The stats' ``output_size`` is 0 until a packer fills it in.
    """
    if parse not in ("greedy", "lazy", "optimal"):
        raise ValueError(f"unknown parse strategy {parse!r}")
    n = arr.size
    with obs.stage("encode.match", bytes=n, parse=parse):
        blen, bdist, warp_cmp = best_matches(
            arr, fmt, chunk_size, max_chain, collect_detail, slice_size)
    with obs.stage("encode.parse", bytes=n, parse=parse):
        if parse == "optimal":
            advance = optimal_token_advance(blen, fmt.literal_bits,
                                            fmt.pair_bits, fmt.min_match)
        else:
            matchable = blen >= fmt.min_match
            if parse == "lazy":
                matchable[:-1] &= blen[1:] <= blen[:-1]
            advance = np.where(matchable, blen, 1).astype(np.int64)
        tokens = tokens_from_matches(bdist, advance,
                                     slice_size or chunk_size)

    pairs = tokens.is_pair
    n_pairs = int(pairs.sum())
    n_literals = int(tokens.starts.size) - n_pairs
    stats = EncodeStats(
        input_size=n,
        output_size=0,
        n_tokens=int(tokens.starts.size),
        n_literals=n_literals,
        n_pairs=n_pairs,
        sum_match_length=int(tokens.lengths[pairs].sum()),
        total_bits=n_literals * fmt.literal_bits + n_pairs * fmt.pair_bits,
        per_warp_compares=warp_cmp,
        token_starts=tokens.starts if collect_detail else None,
    )
    return tokens, stats


def split_tokens(tokens: Tokens, arr: np.ndarray, chunk_size: int
                 ) -> list[tuple[np.ndarray, Tokens]]:
    """Each chunk of a chunk-major run, paired with its own tokens.

    ``tokens`` is the :func:`tokenize` of ``arr`` with ``chunk_size``,
    so no token crosses a chunk end.  Every chunk's slice of the stream
    comes back with its starts rebased to the chunk: what tokenizing
    the chunk alone gives, since the matchers are chunk-local too.
    """
    los = range(0, arr.size, chunk_size)
    cuts = np.searchsorted(tokens.starts, [*los, arr.size]).tolist()
    return [(arr[lo:lo + chunk_size],
             Tokens(starts=tokens.starts[a:b] - lo,
                    is_pair=tokens.is_pair[a:b],
                    lengths=tokens.lengths[a:b],
                    distances=tokens.distances[a:b]))
            for lo, a, b in zip(los, cuts, cuts[1:])]


def pack_lzss(tokens: Tokens, arr: np.ndarray, fmt: TokenFormat,
              chunk_size: int | None) -> tuple[bytes, np.ndarray | None]:
    """Stages 3–4: the lzss bit packer; returns ``(payload, chunk_bytes)``.

    Every token becomes one (value, nbits) field — flag plus byte for a
    literal, flag plus (distance − 1, length − min_match) for a pair —
    and one :func:`pack_tokens` call writes them all.  With
    ``chunk_size`` every chunk's stream is padded to a byte boundary by
    a zero-valued pad entry, so the container can slice chunks on byte
    boundaries; ``chunk_bytes`` is then the per-chunk byte table
    (``None`` for one stream).
    """
    n = arr.size
    starts, is_pair = tokens.starts, tokens.is_pair
    with obs.stage("encode.pack", bytes=n, tokens=int(starts.size)):
        lit_values = ((np.int64(FLAG_LITERAL) << 8)
                      | arr[starts].astype(np.int64))
        pair_values = (((tokens.distances - 1) << fmt.length_bits)
                       | (tokens.lengths - fmt.min_match))
        values = np.where(is_pair, pair_values, lit_values)
        nbits = np.where(is_pair, fmt.pair_bits,
                         fmt.literal_bits).astype(np.int64)
        if chunk_size is None:
            payload, _bits = pack_tokens(values, nbits)
            return payload, None
        n_chunks = -(-n // chunk_size)
        chunk_id = starts // chunk_size
        bits_per_chunk = np.bincount(chunk_id, weights=nbits,
                                     minlength=n_chunks).astype(np.int64)
        pad_bits = (-bits_per_chunk) % 8
        # Inject one zero-valued pad entry at each chunk boundary.  Insert
        # positions are cumulative token counts per chunk.
        boundaries = np.cumsum(np.bincount(chunk_id, minlength=n_chunks))
        payload, _bits = pack_tokens(np.insert(values, boundaries, 0),
                                     np.insert(nbits, boundaries, pad_bits))
    chunk_bytes = (bits_per_chunk + pad_bits) // 8
    assert int(chunk_bytes.sum()) == len(payload)
    return payload, chunk_bytes


def encode(data, fmt: TokenFormat, max_chain: int = DEFAULT_MAX_CHAIN,
           collect_detail: bool = False,
           parse: str = "greedy") -> EncodeResult:
    """Compress ``data`` into one continuous LZSS bit stream."""
    arr = as_u8(data)
    tokens, stats = tokenize(arr, fmt, None, max_chain, collect_detail,
                             parse=parse)
    payload, _sizes = pack_lzss(tokens, arr, fmt, None)
    stats.output_size = len(payload)
    return EncodeResult(payload=payload, format=fmt, input_size=arr.size,
                        chunk_sizes=None, chunk_size=None, stats=stats)


def encode_chunked(data, fmt: TokenFormat, chunk_size: int,
                   max_chain: int = DEFAULT_MAX_CHAIN,
                   collect_detail: bool = False,
                   slice_size: int | None = None,
                   parse: str = "greedy") -> EncodeResult:
    """Compress ``data`` as independent fixed-size chunks.

    Every chunk's bit stream is padded to a byte boundary so the
    container can address chunks directly; ``chunk_sizes`` reports the
    per-chunk byte lengths in order.
    """
    arr = as_u8(data)
    require_range(chunk_size, 1, 1 << 40, "chunk_size")
    tokens, stats = tokenize(arr, fmt, chunk_size, max_chain,
                             collect_detail, slice_size, parse)
    payload, chunk_bytes = pack_lzss(tokens, arr, fmt, chunk_size)
    stats.output_size = len(payload)
    stats.total_bits = 8 * len(payload)  # chunk streams end byte-aligned
    return EncodeResult(payload=payload, format=fmt, input_size=arr.size,
                        chunk_sizes=chunk_bytes, chunk_size=chunk_size,
                        stats=stats)
