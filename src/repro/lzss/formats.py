"""LZSS token formats.

A token stream is a sequence of flag-prefixed tokens, MSB-first:

* literal:  ``1`` followed by the 8-bit byte value (9 bits total);
* pair:  ``0`` followed by ``offset_bits`` of (distance − 1) and
  ``length_bits`` of (match length − MIN_MATCH).

Three concrete layouts appear in the paper:

========== ============ ============ ======== =========== ==========
format      offset bits  length bits  window   max match   pair bits
========== ============ ============ ======== =========== ==========
SERIAL      12           4            4096     18          17
CUDA_V1     12           4            4096     18          17
CUDA_V2     8            8            128      258         17
========== ============ ============ ======== =========== ==========

``SERIAL`` is Dipperstein's layout used by the serial and Pthread CPU
implementations.  ``CUDA_V1`` keeps the token unchanged (the paper
ported the serial coder as-is): each CUDA block's 4 KiB chunk lives in
shared memory, every thread parses a 32-byte slice of it, and matches
reference anywhere earlier in the chunk — which is why Table II shows
V1 consistently a *fraction of a point worse* than serial (chunk and
slice boundary truncation only), never better.  ``CUDA_V2``'s 8-bit
length field over a 128-byte window ("extended offset ... 16 bit
encoding space", §III.D) is why V2 *beats* serial on long-run data
(DE map, highly-compressible) while losing on plain text.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lzss.constants import (
    CUDA_WINDOW,
    MIN_MATCH,
    SERIAL_LOOKAHEAD,
    SERIAL_WINDOW,
    V2_MAX_MATCH,
)
from repro.util.validation import require, require_range

__all__ = ["CUDA_V1", "CUDA_V2", "SERIAL", "TokenFormat"]

FLAG_LITERAL = 1


@dataclass(frozen=True)
class TokenFormat:
    """Immutable description of one LZSS bit layout.

    Attributes
    ----------
    name:
        Human-readable identifier (appears in container headers).
    offset_bits / length_bits:
        Field widths of the encoded pair.
    window:
        Maximum back-reference distance.  May be smaller than the
        ``2**offset_bits`` the field could express (CUDA formats keep
        the window at 128 inside an 8-bit field).
    min_match:
        Shortest match worth encoding (3 throughout the paper).
    """

    name: str
    offset_bits: int
    length_bits: int
    window: int
    min_match: int = MIN_MATCH
    #: Implementation cap on match length, when smaller than what the
    #: length field could express (CULZSS V2's matcher is bounded by
    #: its per-tile extended lookahead buffer, not by the 8-bit field).
    max_match_cap: int | None = None

    def __post_init__(self) -> None:
        require_range(self.offset_bits, 1, 24, "offset_bits")
        require_range(self.length_bits, 1, 16, "length_bits")
        require_range(self.window, 1, 1 << self.offset_bits, "window")
        require_range(self.min_match, 1, 255, "min_match")
        if self.max_match_cap is not None:
            require_range(self.max_match_cap, self.min_match,
                          self.min_match + (1 << self.length_bits) - 1,
                          "max_match_cap")

    @property
    def max_match(self) -> int:
        """Longest encodable match: field capacity or the buffer cap."""
        capacity = self.min_match + (1 << self.length_bits) - 1
        return capacity if self.max_match_cap is None else self.max_match_cap

    @property
    def literal_bits(self) -> int:
        return 1 + 8

    @property
    def pair_bits(self) -> int:
        return 1 + self.offset_bits + self.length_bits

    def pair_is_profitable(self, length: int) -> bool:
        """True when encoding ``length`` bytes as a pair beats literals."""
        return self.pair_bits < length * self.literal_bits

    # ---- scalar token packing (reference codecs / headers) -------------

    def pack_literal(self, byte: int) -> tuple[int, int]:
        """Return (value, nbits) for a literal token."""
        require_range(byte, 0, 255, "byte")
        return (FLAG_LITERAL << 8) | byte, self.literal_bits

    def pack_pair(self, distance: int, length: int) -> tuple[int, int]:
        """Return (value, nbits) for an encoded pair token."""
        require_range(distance, 1, self.window, "distance")
        require_range(length, self.min_match, self.max_match, "length")
        value = ((distance - 1) << self.length_bits) | (length - self.min_match)
        return value, self.pair_bits

    def unpack_pair(self, value: int) -> tuple[int, int]:
        """Inverse of :meth:`pack_pair` (flag bit not included)."""
        length = (value & ((1 << self.length_bits) - 1)) + self.min_match
        distance = (value >> self.length_bits) + 1
        require(distance <= self.window,
                f"decoded distance {distance} exceeds window {self.window}")
        return distance, length

    # ---- registry -------------------------------------------------------

    def to_id(self) -> int:
        """Stable numeric id for container headers."""
        try:
            return _FORMAT_IDS[self.name]
        except KeyError:
            raise ValueError(f"format {self.name!r} has no registered id") from None

    @staticmethod
    def from_id(fmt_id: int) -> "TokenFormat":
        try:
            return _FORMATS_BY_ID[fmt_id]
        except KeyError:
            raise ValueError(f"unknown format id {fmt_id}") from None


SERIAL = TokenFormat(
    name="serial",
    offset_bits=12,
    length_bits=4,
    window=SERIAL_WINDOW,
)
assert SERIAL.max_match == SERIAL_LOOKAHEAD

CUDA_V1 = TokenFormat(
    name="cuda_v1",
    offset_bits=12,
    length_bits=4,
    window=SERIAL_WINDOW,
)

#: V2's matcher is bounded by its per-tile extended lookahead view —
#: 64 bytes (half the window) past each position — so matches cap at
#: 66 even though the 8-bit length field could express 258.  The cap
#: is what keeps V2's all-position matching affordable on run-heavy
#: data while still tripling the serial coder's 18-byte reach (the
#: Table II wins on DE map and the highly-compressible set).
CUDA_V2 = TokenFormat(
    name="cuda_v2",
    offset_bits=8,
    length_bits=8,
    window=CUDA_WINDOW,
    max_match_cap=V2_MAX_MATCH,
)

_FORMAT_IDS = {"serial": 1, "cuda_v1": 2, "cuda_v2": 3}
_FORMATS_BY_ID = {1: SERIAL, 2: CUDA_V1, 3: CUDA_V2}
