"""Canonical, length-limited Huffman coding for the RLE2 symbol stream.

Code lengths come from the classic two-queue Huffman construction; if
the deepest code exceeds the 20-bit limit (possible on extremely
skewed RUNA-dominated blocks), frequencies are halved-and-rebuilt until
it fits — the standard practical limiter.  Codes are canonicalized
(shorter first, then by symbol), so the container only ships the
length table.

Encoding is one :func:`repro.util.bitio.pack_tokens` scatter.  Decoding
reuses the package's jump-chain trick: a canonical decode table maps
the ``max_len`` bits at every bit position (8 per big-endian word read
at each byte) to (symbol, length), the per-position jump table follows,
and reachable-set doubling yields all code boundaries at once.

Simplification vs. real bzip2 (documented in DESIGN.md): one table per
block instead of six switching tables selected per 50-symbol group —
worth a few percent of ratio, nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.lzss.parse import reachable_from
from repro.util.bitio import pack_tokens
from repro.util.validation import require

__all__ = [
    "HuffmanCode",
    "MAX_CODE_LEN",
    "huffman_code_lengths",
    "huffman_decode",
    "huffman_encode",
]

MAX_CODE_LEN = 20


def huffman_code_lengths(freqs: np.ndarray,
                         max_len: int = MAX_CODE_LEN) -> np.ndarray:
    """Code length per symbol (0 for absent symbols), depth-limited."""
    freqs = np.asarray(freqs, dtype=np.int64)
    require(bool((freqs >= 0).all()), "negative frequency")
    present = np.nonzero(freqs)[0]
    lengths = np.zeros(freqs.size, dtype=np.int64)
    n = present.size
    if n == 0:
        return lengths
    if n == 1:
        lengths[present[0]] = 1
        return lengths
    # The limiter ends at all-ones weights: a balanced tree this deep.
    require(max_len >= (n - 1).bit_length(),
            f"max_len={max_len} is too short for {n} symbols")

    work = freqs[present]
    while True:
        # Two queues: leaves by (weight, symbol), merges in creation order
        # (never lighter than the last).  A tie pops the leaf, as in a heap
        # whose symbol tiebreaks sort below its merge counters.
        order = np.argsort(work, kind="stable")
        leaf = work[order].tolist() + [np.inf]
        merged = [np.inf] * (n - 1)
        parent = [0] * (2 * n - 2)  # leaf i is node i, merge t node n + t
        i = j = 0
        for t in range(n - 1):
            w = 0
            for _ in range(2):
                if merged[j] < leaf[i]:
                    w, parent[n + j], j = w + merged[j], n + t, j + 1
                else:
                    w, parent[i], i = w + leaf[i], n + t, i + 1
            merged[t] = w
        depth = [0] * (2 * n - 1)  # by node; the root is the last
        for v in range(2 * n - 3, -1, -1):
            depth[v] = depth[parent[v]] + 1
        if max(depth) <= max_len:
            lengths[present[order]] = depth[:n]
            return lengths
        # Flatten the distribution and retry — the classic limiter.
        work = (work + 1) // 2


def _kraft_order(lengths: np.ndarray) -> tuple[np.ndarray, ...]:
    """Coded symbols by (length, symbol), ML - length for each, and the
    Kraft sum before each in 2^-ML units (ML the longest): its canonical
    code shifted left by ML - length, over-subscribed tables included."""
    present = np.nonzero(lengths)[0]
    order = present[np.argsort(lengths[present], kind="stable")]
    shift = lengths.max(initial=0) - lengths[order]
    return order, shift, np.cumsum(1 << shift) - (1 << shift)


def canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Canonical code values: shorter codes first, ties by symbol."""
    lengths = np.asarray(lengths, dtype=np.int64)
    codes = np.zeros(lengths.size, dtype=np.int64)
    order, shift, kraft = _kraft_order(lengths)
    codes[order] = kraft >> shift
    return codes


@dataclass
class HuffmanCode:
    """A canonical code: per-symbol lengths and code values."""

    lengths: np.ndarray
    codes: np.ndarray

    @classmethod
    def from_frequencies(cls, freqs: np.ndarray,
                         max_len: int = MAX_CODE_LEN) -> "HuffmanCode":
        lengths = huffman_code_lengths(freqs, max_len)
        return cls(lengths=lengths, codes=canonical_codes(lengths))

    @classmethod
    def from_lengths(cls, lengths: np.ndarray) -> "HuffmanCode":
        lengths = np.asarray(lengths, dtype=np.int64)
        return cls(lengths=lengths, codes=canonical_codes(lengths))

    @property
    def max_len(self) -> int:
        return int(self.lengths.max(initial=0))


def huffman_encode(symbols: np.ndarray, code: HuffmanCode) -> tuple[bytes, int]:
    """Pack a symbol stream; returns (bytes, total bits)."""
    syms = np.asarray(symbols, dtype=np.int64)
    require(bool((code.lengths[syms] > 0).all()),
            "symbol without a code in the table")
    return pack_tokens(code.codes[syms], code.lengths[syms])


def huffman_decode(payload: bytes, nbits: int, code: HuffmanCode,
                   n_symbols: int) -> np.ndarray:
    """Decode exactly ``n_symbols`` symbols from a packed stream.

    Builds the canonical decode LUT (2^max_len entries), reads the
    max_len-bit window at every bit position (one word per byte),
    jump-chains boundaries and gathers the symbols — all vectorized.
    """
    if n_symbols == 0:
        return np.zeros(0, dtype=np.int64)
    ml = code.max_len
    require(ml > 0, "empty code table")
    # LUT: prefix → (symbol, length).  Each symbol owns the slots from its
    # Kraft prefix on, cut at 2^ml; the slots after the last are codeless.
    order, shift, kraft = _kraft_order(code.lengths)
    counts = np.diff(np.minimum(kraft + (1 << shift), 1 << ml),
                     prepend=0, append=1 << ml)
    lut_sym = np.repeat(np.append(order, 0), counts)
    lut_len = np.repeat(np.append(ml - shift, 0), counts)

    npos = min(nbits, 8 * len(payload))
    require(npos >= 1, "empty Huffman stream")
    # The ml-bit windows at a byte's 8 bit offsets all lie in the
    # big-endian word of ``span`` bytes read there; bits past npos are 0.
    nbytes, span = (npos + 7) // 8, (ml + 14) // 8
    buf = np.zeros(nbytes + span, dtype=np.uint8)
    buf[:nbytes] = np.frombuffer(payload, dtype=np.uint8, count=nbytes)
    buf[nbytes - 1] &= (0xFF << (8 * nbytes - npos)) & 0xFF
    word = buf[:nbytes].astype(np.int64)
    for j in range(1, span):
        word = (word << 8) | buf[j:j + nbytes]
    windows = ((word[:, None] >> (8 * span - ml - np.arange(8)))
               & ((1 << ml) - 1)).reshape(-1)[:npos]
    step = lut_len[windows]
    # Zero-length steps mark prefixes with no code.  Positions off the
    # decode chain (padding tails) may hold them legally; the chain
    # itself must not land on one — validated after the walk.
    jump = np.arange(npos, dtype=np.int64) + np.maximum(step, 1)
    starts = reachable_from(jump, 0)
    require(starts.size >= n_symbols,
            "corrupt Huffman stream: ran out of bits")
    kept = starts[:n_symbols]
    require(bool((step[kept] > 0).all()),
            "corrupt Huffman stream: unknown prefix")
    return lut_sym[windows[kept]]
