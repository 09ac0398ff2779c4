"""V2's serial CPU fixup pass — redundant-match elimination.

§III.B.2–3: the V2 kernel records a candidate match for *every* input
position; the serial greedy walk that keeps only the non-overlapping
subset ("the previously described redundant searches needs to be
eliminated from the encoded output … it follows a serial path and
needs to be done on CPU") and generates the flag bits happens on the
host.

Functionally the fixup is exactly the greedy parse every encoder runs
(:func:`repro.lzss.encoder.tokens_from_matches` over all-position
match arrays).  This module keeps the paper's plain-loop walk as the
executable specification that vectorized parse is tested against.
"""

from __future__ import annotations

import numpy as np

from repro.lzss.formats import TokenFormat
from repro.lzss.parse import Tokens

__all__ = ["fixup_matches_reference"]


def fixup_matches_reference(best_len: np.ndarray, best_dist: np.ndarray,
                            fmt: TokenFormat,
                            chunk_size: int | None = None) -> Tokens:
    """The serial walk as the paper's CPU would run it (plain loops)."""
    n = len(best_len)
    cs = chunk_size if chunk_size is not None else max(n, 1)
    starts, is_pair, lengths, distances = [], [], [], []
    for chunk_start in range(0, n, cs):
        end = min(chunk_start + cs, n)
        pos = chunk_start
        while pos < end:
            starts.append(pos)
            if best_len[pos] >= fmt.min_match:
                is_pair.append(True)
                lengths.append(int(best_len[pos]))
                distances.append(int(best_dist[pos]))
                pos += int(best_len[pos])
            else:
                is_pair.append(False)
                lengths.append(1)
                distances.append(0)
                pos += 1
    return Tokens(
        starts=np.asarray(starts, dtype=np.int64),
        is_pair=np.asarray(is_pair, dtype=bool),
        lengths=np.asarray(lengths, dtype=np.int64),
        distances=np.asarray(distances, dtype=np.int64),
    )
