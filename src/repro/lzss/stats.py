"""Encoder run statistics — the raw material of the timing models.

Every fast encode returns an :class:`EncodeStats` describing exactly
what happened: token mix, match-length mass, and (when the lag matcher
ran) the exact byte-comparison count a linear window scan performs.
The analytic cost models in :mod:`repro.model` consume these numbers;
nothing in the timing pipeline is estimated from the compressed bytes
alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["EncodeStats"]


@dataclass
class EncodeStats:
    """What one compression run did, in counts.

    ``compare_count`` is the exact number of byte comparisons an
    all-position linear window scan performs (filled by the lag
    matcher; ``None`` for the hash-chain path, where the model uses
    sampled brute-force counts instead).  ``token_starts`` /
    ``token_lengths`` are optional detail arrays for divergence
    modeling.
    """

    input_size: int
    output_size: int
    n_tokens: int
    n_literals: int
    n_pairs: int
    sum_match_length: int
    total_bits: int
    compare_count: int | None = None
    per_position_compares: np.ndarray | None = field(default=None, repr=False)
    per_warp_compares: np.ndarray | None = field(default=None, repr=False)
    token_starts: np.ndarray | None = field(default=None, repr=False)
    token_lengths: np.ndarray | None = field(default=None, repr=False)

    @property
    def ratio(self) -> float:
        """Compressed/original size — the paper's 'smaller is better'."""
        if self.input_size == 0:
            return 1.0
        return self.output_size / self.input_size
