"""The full BZIP2-style pipeline: block framing, stats, round-trip.

Per block (default 900 000 bytes, bzip2's ``-9``):

    RLE1 → BWT → MTF → RLE2 → Huffman (+ EOB symbol)

Container layout (little-endian)::

    magic  b"RBZ2" | version u8 | reserved u8×3 | block_size u32 |
    n_blocks u32 | original_size u64
    per block:
      orig_len u32 | rle1_len u32 | primary u32 | n_symbols u32 |
      payload_bits u32 | payload_bytes u32 | 258×u8 code lengths |
      payload

:class:`Bzip2BlockStats` records what the timing model needs: the
post-RLE1 size actually sorted (why DE-map stays fast) and the mean
adjacent-rotation LCP (why the repeating-pattern dataset explodes).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.bzip2.bwt import adjacent_lcp, bwt_inverse, rotation_order
from repro.bzip2.huffman import (
    MAX_CODE_LEN,
    HuffmanCode,
    huffman_decode,
    huffman_encode,
)
from repro.bzip2.mtf import mtf_decode, mtf_encode
from repro.bzip2.rle1 import rle1_decode, rle1_encode
from repro.bzip2.rle2 import ALPHABET_SIZE, rle2_decode, rle2_encode
from repro.util.buffers import as_u8
from repro.util.validation import require

__all__ = ["Bzip2BlockStats", "Bzip2Result", "compress", "decompress"]

MAGIC = b"RBZ2"
VERSION = 1
DEFAULT_BLOCK_SIZE = 900_000
EOB = ALPHABET_SIZE - 1  # 257

_HEADER = struct.Struct("<4sB3xIIQ")
_BLOCK_HEADER = struct.Struct("<IIIIII")


@dataclass
class Bzip2BlockStats:
    """Per-block facts the BZIP2 timing model consumes."""

    orig_bytes: int
    rle1_bytes: int
    mean_lcp: float
    n_symbols: int
    payload_bytes: int


@dataclass
class Bzip2Result:
    """Compressed blob plus per-block statistics."""

    blob: bytes
    original_size: int
    block_stats: list[Bzip2BlockStats]

    @property
    def ratio(self) -> float:
        if self.original_size == 0:
            return 1.0
        return len(self.blob) / self.original_size


def _compress_block(block: bytes) -> tuple[bytes, Bzip2BlockStats]:
    rle1 = rle1_encode(block)
    arr = as_u8(rle1)
    order = rotation_order(arr)
    n = arr.size
    last = arr[(order - 1) % n] if n else np.zeros(0, dtype=np.uint8)
    primary = int(np.nonzero(order == 0)[0][0]) if n else 0
    lcp = adjacent_lcp(arr, order)
    mean_lcp = float(lcp.mean()) if lcp.size else 0.0

    mtf = mtf_encode(last.tobytes())
    symbols = rle2_encode(mtf)
    symbols = np.concatenate([symbols.astype(np.int64), [EOB]])
    freqs = np.bincount(symbols, minlength=ALPHABET_SIZE)
    code = HuffmanCode.from_frequencies(freqs)
    payload, nbits = huffman_encode(symbols, code)

    head = _BLOCK_HEADER.pack(len(block), len(rle1), primary,
                              symbols.size, nbits, len(payload))
    table = code.lengths.astype(np.uint8).tobytes()
    stats = Bzip2BlockStats(orig_bytes=len(block), rle1_bytes=len(rle1),
                            mean_lcp=mean_lcp, n_symbols=int(symbols.size),
                            payload_bytes=len(payload))
    return head + table + payload, stats


def compress(data, block_size: int = DEFAULT_BLOCK_SIZE) -> Bzip2Result:
    """Compress ``data`` block by block through the full pipeline."""
    raw = as_u8(data).tobytes()
    n = len(raw)
    n_blocks = (n + block_size - 1) // block_size if n else 0
    parts = [_HEADER.pack(MAGIC, VERSION, block_size, n_blocks, n)]
    stats: list[Bzip2BlockStats] = []
    for b in range(n_blocks):
        blob, st = _compress_block(raw[b * block_size:(b + 1) * block_size])
        parts.append(blob)
        stats.append(st)
    return Bzip2Result(blob=b"".join(parts), original_size=n,
                       block_stats=stats)


def _decompress_block(view: memoryview) -> tuple[bytes, int]:
    (orig_len, rle1_len, primary, n_symbols, nbits,
     payload_bytes) = _BLOCK_HEADER.unpack_from(view, 0)
    off = _BLOCK_HEADER.size
    lengths = np.frombuffer(view[off:off + ALPHABET_SIZE],
                            dtype=np.uint8).astype(np.int64)
    # the decode table has 2^(longest length) entries
    require(int(lengths.max(initial=0)) <= MAX_CODE_LEN,
            f"corrupt block: code length above {MAX_CODE_LEN}")
    off += ALPHABET_SIZE
    payload = bytes(view[off:off + payload_bytes])
    off += payload_bytes

    code = HuffmanCode.from_lengths(lengths)
    symbols = huffman_decode(payload, nbits, code, n_symbols)
    require(int(symbols[-1]) == EOB, "corrupt block: missing EOB")
    mtf = rle2_decode(symbols[:-1])
    last = mtf_decode(mtf)
    require(len(last) == rle1_len, "corrupt block: BWT size mismatch")
    rle1 = bwt_inverse(last, primary)
    out = rle1_decode(rle1)
    require(len(out) == orig_len, "corrupt block: size mismatch")
    return out, off


def decompress(blob: bytes) -> bytes:
    """Full inverse of :func:`compress`."""
    require(len(blob) >= _HEADER.size, "truncated container")
    magic, version, _block_size, n_blocks, orig_size = _HEADER.unpack_from(blob, 0)
    require(magic == MAGIC, "bad magic")
    require(version == VERSION, f"unsupported version {version}")
    view = memoryview(blob)[_HEADER.size:]
    out = []
    for _ in range(n_blocks):
        block, consumed = _decompress_block(view)
        out.append(block)
        view = view[consumed:]
    result = b"".join(out)
    require(len(result) == orig_size, "container size mismatch")
    return result
