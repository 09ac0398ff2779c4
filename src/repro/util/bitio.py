"""MSB-first bit stream I/O, scalar and vectorized.

LZSS token streams are bit-granular (a 1-bit flag followed by either a
9-bit literal or an offset/length pair), so every codec in this package
sits on top of this module.

Two API levels are provided:

* :class:`BitWriter` / :class:`BitReader` — scalar, byte-at-a-time
  streams used by the executable-specification (reference) codecs and by
  header serialization.  Simple and obviously correct.
* :func:`pack_tokens` / :func:`unpack_bits` / :func:`gather_fields` —
  vectorized NumPy kernels used by the fast codecs.  ``pack_tokens``
  writes a ragged sequence of ``(value, nbits)`` items into packed
  bytes in O(fields) vector work, a few bytes per field rather than
  arrays per bit; ``gather_fields`` extracts fixed-width big-endian
  fields at arbitrary bit offsets.

Bit order is MSB-first within each byte (the order ``np.packbits`` and
``np.unpackbits`` use), matching Dipperstein's LZSS stream layout.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import require, require_range

__all__ = [
    "BitReader",
    "BitWriter",
    "gather_fields",
    "pack_tokens",
    "ragged_arange",
    "unpack_bits",
]

_MAX_FIELD_BITS = 57  # fits in int64 with room for shifts


class BitWriter:
    """Accumulates bits MSB-first into a growable byte buffer.

    >>> w = BitWriter()
    >>> w.write_bit(1)
    >>> w.write_bits(0b0101, 4)
    >>> w.getvalue()[0] == 0b10101000
    True
    """

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._acc = 0  # partial byte accumulator
        self._nacc = 0  # number of valid bits in _acc (0..7)

    def __len__(self) -> int:
        """Total number of bits written so far."""
        return 8 * len(self._bytes) + self._nacc

    @property
    def bit_length(self) -> int:
        return len(self)

    def write_bit(self, bit: int) -> None:
        self._acc = (self._acc << 1) | (bit & 1)
        self._nacc += 1
        if self._nacc == 8:
            self._bytes.append(self._acc)
            self._acc = 0
            self._nacc = 0

    def write_bits(self, value: int, nbits: int) -> None:
        """Write ``nbits`` bits of ``value``, most significant first."""
        require_range(nbits, 0, _MAX_FIELD_BITS, "nbits")
        require(0 <= value < (1 << nbits) if nbits else value == 0,
                f"value {value} does not fit in {nbits} bits")
        for shift in range(nbits - 1, -1, -1):
            self.write_bit((value >> shift) & 1)

    def write_bytes(self, data: bytes) -> None:
        """Write whole bytes (fast path when byte-aligned)."""
        if self._nacc == 0:
            self._bytes.extend(data)
        else:
            for b in data:
                self.write_bits(b, 8)

    def align(self) -> None:
        """Pad with zero bits to the next byte boundary."""
        while self._nacc:
            self.write_bit(0)

    def getvalue(self) -> bytes:
        """Return the stream padded with zero bits to a whole byte."""
        out = bytearray(self._bytes)
        if self._nacc:
            out.append((self._acc << (8 - self._nacc)) & 0xFF)
        return bytes(out)


class BitReader:
    """Reads bits MSB-first from a bytes-like object."""

    def __init__(self, data: bytes | bytearray | memoryview | np.ndarray) -> None:
        if isinstance(data, np.ndarray):
            data = data.astype(np.uint8, copy=False).tobytes()
        self._data = bytes(data)
        self._pos = 0  # bit position

    @property
    def bits_remaining(self) -> int:
        return 8 * len(self._data) - self._pos

    @property
    def bit_position(self) -> int:
        return self._pos

    def read_bit(self) -> int:
        if self._pos >= 8 * len(self._data):
            raise EOFError("bit stream exhausted")
        byte = self._data[self._pos >> 3]
        bit = (byte >> (7 - (self._pos & 7))) & 1
        self._pos += 1
        return bit

    def read_bits(self, nbits: int) -> int:
        require_range(nbits, 0, _MAX_FIELD_BITS, "nbits")
        value = 0
        for _ in range(nbits):
            value = (value << 1) | self.read_bit()
        return value

    def seek_bit(self, bit_position: int) -> None:
        require_range(bit_position, 0, 8 * len(self._data), "bit_position")
        self._pos = bit_position


def ragged_arange(lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(n) for n in lengths])`` without the Python loop.

    The standard trick: a global arange minus the repeated cumulative
    starts.  Used to index within ragged (per-token) bit spans.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.size == 0:
        return np.zeros(0, dtype=np.int64)
    total = int(lengths.sum())
    starts = np.zeros(lengths.size, dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    return np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)


def pack_tokens(values: np.ndarray, nbits: np.ndarray) -> tuple[bytes, int]:
    """Pack a ragged sequence of big-endian bit fields into bytes.

    ``values[i]`` is written MSB-first in exactly ``nbits[i]`` bits,
    concatenated in order.  Returns ``(packed_bytes, total_bits)``; the
    final byte is zero-padded.

    This is the fast codecs' entire serialization step, and its work is
    O(fields), not O(total_bits).  A field starting ``r`` bits into a
    byte touches at most ``span = ceil((7 + max width) / 8)`` bytes from
    there (8 at the 57-bit limit), so it is shifted into place in a
    ``span``-byte big-endian word, and one ``np.bincount`` adds every
    word's bytes into the output.  Fields share no bits, so the sum of
    a byte's contributions is their OR.
    """
    values = np.asarray(values, dtype=np.int64)
    nbits = np.asarray(nbits, dtype=np.int64)
    require(values.shape == nbits.shape, "values/nbits shape mismatch")
    if values.size == 0:
        return b"", 0
    if np.any(nbits < 0) or np.any(nbits > _MAX_FIELD_BITS):
        raise ValueError("field widths must be in [0, 57]")
    if np.any(values < 0) or np.any(values >= np.int64(1) << nbits):
        raise ValueError("token value does not fit its declared width")

    # Each temporary array is dropped once used: the peak stays a few
    # words per field.
    start = np.cumsum(nbits)
    total = int(start[-1])
    start -= nbits
    span = (int(nbits.max()) + 14) // 8
    # A field fills bits r .. r + width of a span-byte word, counted
    # from the top (r = start % 8): shift it past the bits below that.
    shift = 8 * span - nbits
    shift -= start & 7
    words = values.astype(np.uint64) << shift.view(np.uint64)
    del shift
    lanes = words.astype(">u8").view(np.uint8).reshape(-1, 8)[:, 8 - span:]
    first = start >> 3
    del start, words
    where = (first[:, None] + np.arange(span, dtype=np.int64)).ravel()
    del first
    nbytes = (total + 7) // 8
    packed = np.bincount(where, weights=lanes.ravel(),
                         minlength=nbytes + span)[:nbytes]
    return packed.astype(np.uint8).tobytes(), total


def unpack_bits(data: bytes | np.ndarray, nbits: int | None = None) -> np.ndarray:
    """Return the stream as a uint8 0/1 array, MSB-first, truncated to nbits."""
    arr = np.frombuffer(bytes(data), dtype=np.uint8) if not isinstance(
        data, np.ndarray) else data.astype(np.uint8, copy=False)
    bits = np.unpackbits(arr)
    if nbits is not None:
        require_range(nbits, 0, bits.size, "nbits")
        bits = bits[:nbits]
    return bits


def gather_fields(bits: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """Extract fixed-width big-endian fields at the given bit offsets.

    ``bits`` is a 0/1 uint8 array; ``starts`` are bit positions; the
    result is an int64 array of ``len(starts)`` field values.  Reads past
    the end of ``bits`` are an error.
    """
    require_range(width, 0, _MAX_FIELD_BITS, "width")
    starts = np.asarray(starts, dtype=np.int64)
    if starts.size == 0:
        return np.zeros(0, dtype=np.int64)
    if width == 0:
        return np.zeros(starts.size, dtype=np.int64)
    if int(starts.max()) + width > bits.size:
        raise ValueError("field read past end of bit stream")
    idx = starts[:, None] + np.arange(width, dtype=np.int64)[None, :]
    weights = (np.int64(1) << np.arange(width - 1, -1, -1, dtype=np.int64))
    return (bits[idx].astype(np.int64) * weights).sum(axis=1)
