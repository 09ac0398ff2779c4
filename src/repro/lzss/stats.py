"""Encoder run statistics — the raw material of the timing models.

Every fast encode returns an :class:`EncodeStats` describing exactly
what happened: token mix, match-length mass, and (with detail, when
the lag matcher ran) the per-warp byte-comparison cost of a lockstep
window scan.  The analytic cost models in :mod:`repro.model` consume
these numbers; nothing in the timing pipeline is estimated from the
compressed bytes alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["EncodeStats"]


@dataclass
class EncodeStats:
    """What one compression run did, in counts.

    The two detail arrays are filled only when the encode collects
    detail.  ``per_warp_compares`` is each 32-position warp's lockstep
    comparison cost, the V2 model's input (lag matcher only; ``None``
    on the hash-chain path).  ``token_starts`` is every token's input
    offset, which the V1, serial and decompression models read.
    """

    input_size: int
    output_size: int
    n_tokens: int
    n_literals: int
    n_pairs: int
    sum_match_length: int
    total_bits: int
    per_warp_compares: np.ndarray | None = field(default=None, repr=False)
    token_starts: np.ndarray | None = field(default=None, repr=False)

    @property
    def ratio(self) -> float:
        """Compressed/original size — the paper's 'smaller is better'."""
        if self.input_size == 0:
            return 1.0
        return self.output_size / self.input_size
