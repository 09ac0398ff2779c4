"""Exact all-position longest-match search — the CULZSS V2 kernel math.

The V2 GPU kernel assigns one thread per input character; every thread
scans the same ``window``-byte history linearly and records the longest
match starting at its character (§III.B.2).  Vectorized on the host this
becomes a pass over every *lag* ``d ∈ [1, window]`` of one flat buffer,
a block of consecutive lags per NumPy call:

* **lag blocks** — ``b = clip(BLOCK_CELLS // size, 1, lags)`` lags at a
  time, as a lag-major ``(b, size)`` array whose rows are strided views
  of one zero-padded copy of the input (row ``j`` holds the byte
  ``d0 + j`` positions back).  Every op writes into work arrays
  allocated once per call and sized to stay in L2.  A 16 KiB buffer
  runs 16 lags a block, so 16 lags share each call's fixed cost;
  inputs of 256 KiB or more run one lag a block;
* **chunk-major layout** — chunks lie end to end, the last one
  zero-padded, and every position carries a length cap
  ``min(max_match, room left in its chunk)`` (0 on padding), which
  also stops a run at its chunk end.  Lag ``d`` must not start at any
  chunk's first ``d`` offsets: the shared caps are zeroed below the
  block's first lag ``d0``, and one triangular mask zeroes offsets
  ``d0 … d − 1`` of each later row, so a compare that would reach
  before its chunk start counts for nothing and no per-chunk loop is
  needed;
* **saturating run doubling** — the equal-byte flags of a block become
  run lengths in at most ``⌈log2 max_match⌉`` steps of two vector passes
  each.  Flags start at ``sat``, the smallest power of two ``≥
  max_match``, and step ``s`` is ``r[:-s] = min(r[:-s], r[s:] + s)``;
  afterwards a cell holds its run where that run is below ``2s`` and
  ``sat`` elsewhere, which caps to the same length.  The run type is the
  smallest unsigned one holding ``sat + sat/2 + 1`` (``uint8`` for V2's
  66), and the steps stop once no cell in the block is ``sat``;
* **best match on strict improvement** — lag by lag in ascending
  order, ``upd = len > best_len``, ``best_len = max(best_len, len)``
  and ``best_dist = max(best_dist, upd·d)``: a new ``d`` always exceeds
  the stored one, so ties keep the smallest distance — exactly the
  reference matcher's answer — and no op widens its operands.

The same pass yields the *exact comparison count* the GPU (or a
brute-force CPU loop) performs: candidate ``(i, d)`` costs
``min(1 + runlen, cap)`` byte compares (compare until first mismatch or
cap).  The timing models in :mod:`repro.model` are fed from these
counts, not from guesses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.util.buffers import as_u8
from repro.util.validation import require_range

__all__ = ["LagMatchResult", "lag_best_matches"]


WARP_SIZE = 32
#: Cells (lags × positions) in one block of lags: its five work arrays of
#: one byte per cell (1.25 MiB) then fit the 2 MiB per-core L2.
BLOCK_CELLS = 1 << 18


@dataclass
class LagMatchResult:
    """All-position match arrays plus exact search-work accounting.

    ``best_len[i]`` / ``best_dist[i]`` describe the longest match
    starting at ``i`` (0 / 0 when shorter than one byte).
    ``compare_count`` is the total number of byte comparisons a linear
    window scan performs over all positions and lags — the quantity the
    GPU timing model consumes.  ``per_position_compares`` (optional)
    breaks that down by position; ``warp_compares`` (optional) is the
    exact SIMT-lockstep cost per 32-position warp —
    ``Σ_lags max_over_lanes(compares)`` — i.e. what a warp actually
    pays when its lanes scan each window offset together and wait for
    the slowest lane's byte-compare loop.
    """

    best_len: np.ndarray
    best_dist: np.ndarray
    compare_count: int
    per_position_compares: np.ndarray | None = None
    warp_compares: np.ndarray | None = None


def _saturated_runs(r: np.ndarray, sat: int, tmp: np.ndarray) -> None:
    """Turn 0/1 equal-byte flags into runs from each index on, in place.

    The flags are scaled to ``sat`` (a power of two), and doubling step
    ``s`` takes ``r[k] = min(r[k], r[k + s] + s)``: a run below ``s`` is
    already exact and ``s + r[k + s] ≥ s`` keeps it, a saturated cell
    whose successor holds an exact run below ``s`` becomes that exact
    run ``< 2s``, and two saturated cells stay ``sat``.  Afterwards
    ``r[k] = min(run, sat)``, except that a shorter run reaching the
    array's end may read ``sat``: the last ``s`` cells skip step ``s``,
    and a caller caps such a cell at no more than its run.  ``r``'s type
    must hold ``sat + sat/2`` (the last step adds ``s = sat/2`` to
    ``sat``); ``tmp`` is a work array of ``r``'s size and type, so every
    step writes into preallocated memory and no output overlaps an input
    (numpy would copy it).  The steps stop once no cell is ``sat``,
    checked from ``s = 8`` on: a block of lags nearly always holds a run
    of 8.
    """
    r *= sat
    s = 1
    while s < sat and (s < 8 or r.max(initial=0) == sat):
        add = tmp[:-s]
        np.add(r[s:], s, out=add)
        np.minimum(r[:-s], add, out=r[:-s])
        s *= 2


def lag_best_matches(
    data: bytes | np.ndarray,
    window: int,
    max_match: int,
    chunk_size: int | None = None,
    collect_per_position: bool = False,
) -> LagMatchResult:
    """Longest match (and exact compare counts) at every input position.

    Parameters
    ----------
    window:
        Maximum back-reference distance (the V2 search-window size;
        cost is one vector pass per lag so keep it ≤ a few hundred).
    max_match:
        Length cap (the lookahead / length-field limit).
    chunk_size:
        When given, positions are compressed per independent chunk:
        matches neither reach before their chunk start nor extend past
        its end — mirroring the per-block GPU distribution.
    """
    arr = as_u8(data)
    n = arr.size
    require_range(window, 1, 1 << 16, "window")
    require_range(max_match, 1, 1 << 16, "max_match")
    if chunk_size is not None:
        # a chunk larger than the data degenerates to one chunk
        require_range(chunk_size, 1, 1 << 40, "chunk_size")
    chunk = max(min(chunk_size or n, n), 1)
    rows = -(-n // chunk)
    size = -(-rows * chunk // WARP_SIZE) * WARP_SIZE  # whole warps
    lags = min(window, chunk - 1)
    block = max(1, min(lags, BLOCK_CELLS // max(size, WARP_SIZE)))
    sat = 1 << (max_match - 1).bit_length()  # run doubling's ceiling
    run_t = np.min_scalar_type(sat + sat // 2 + 1)
    dist_t = np.min_scalar_type(window)
    acc_t = np.min_scalar_type(window * max_match)
    # rows of compare counts (each ≤ max_match) that sum in run_t
    fold = np.iinfo(run_t).max // max_match

    room = chunk - np.arange(chunk)  # per offset, in a full chunk
    len_cap = np.zeros(size, dtype=run_t)
    cap_rows = len_cap[:rows * chunk].reshape(rows, chunk)
    cap_rows[:] = np.minimum(room, max_match)
    cap_rows[-1:] = (room - (rows * chunk - n)).clip(0, max_match)  # ends at n
    padded = np.zeros(lags + size, dtype=np.uint8)
    buf = padded[lags:]
    buf[:n] = arr
    shifted = sliding_window_view(padded, size)  # [lags - d]: d bytes back
    # keep[j, 0, k]: lag d0 + j may start at chunk offset d0 + k
    keep = (np.arange(block - 1) >= np.arange(block)[:, None, None]
            ).astype(run_t)

    runs = np.empty((block, size), dtype=run_t)
    flags = runs.view(bool) if run_t == np.uint8 else runs
    tmp = np.empty((block, size), dtype=run_t)
    lens = np.empty((block, size), dtype=run_t)
    best_len = np.zeros(size, dtype=run_t)
    best_dist = np.zeros(size, dtype=dist_t)
    upd = np.empty(size, dtype=bool)
    stamp = np.empty(size, dtype=dist_t)
    per_pos = np.zeros(size, dtype=acc_t)
    folded = np.empty(size, dtype=run_t)
    if collect_per_position:
        ping, pong = np.empty(tmp.size, run_t), np.empty(tmp.size, run_t)
        warp_acc = np.zeros(size // WARP_SIZE, dtype=acc_t)

    for d0 in range(1, lags + 1, block):
        b = min(block, lags + 1 - d0)
        hi = d0 + b - 1  # the block's last lag
        cap_rows[:, max(d0 - block, 0):d0] = 0  # offsets < d0 leave the chunk
        r, m = runs[:b], lens[:b]
        np.equal(shifted[lags - hi:lags - d0 + 1][::-1], buf, out=flags[:b])
        # one flat pass over the block's rows: a run that crosses into
        # the next row already reached the buffer end, so it is at
        # least its position's cap either way
        _saturated_runs(r.reshape(-1), sat, tmp[:b].reshape(-1))
        np.minimum(r, len_cap, out=m)
        # compare until first mismatch or cap: min(1 + run, cap)
        r += 1
        np.minimum(r, len_cap, out=r)
        if b > 1:  # lag d0 + j also leaves the chunk at offsets < d0 + j
            for a in (m, r):
                a[:, :rows * chunk].reshape(b, rows, chunk)[:, :, d0:hi] *= (
                    keep[:b, :, :b - 1])
        # ascending lags and a strict >: ties keep the smallest distance
        for j in range(b):
            np.greater(m[j], best_len, out=upd)
            np.maximum(best_len, m[j], out=best_len)
            np.multiply(upd.view(np.uint8), dist_t.type(d0 + j), out=stamp)
            np.maximum(best_dist, stamp, out=best_dist)
        for j in range(0, b, fold):  # one widening add per ≤ fold rows
            part = r[j:j + fold]
            per_pos += part[0] if len(part) == 1 else np.add.reduce(
                part, axis=0, dtype=run_t, out=folded)
        if collect_per_position:
            # max over each warp's 32 lanes in 5 sliding steps, ping-pong
            # because numpy copies an input that overlaps ``out``
            # (flat: a row holds whole warps, so no window crosses rows)
            src = r.reshape(-1)
            for s, dst in zip((1, 2, 4, 8, 16), (ping, pong) * 3):
                np.maximum(src[:-s], src[s:], out=dst[:src.size - s])
                src = dst[:src.size]
            warp_acc += np.add.reduce(src[::WARP_SIZE].reshape(b, -1),
                                      axis=0, dtype=acc_t)

    per_pos = per_pos[:n]
    best_len = best_len[:n].astype(np.int32)
    best_dist = best_dist[:n].astype(np.int32)  # 0 wherever best_len is
    if not collect_per_position:
        return LagMatchResult(best_len, best_dist, int(per_pos.sum()))
    n_warps = -(-n // WARP_SIZE)
    return LagMatchResult(best_len, best_dist, int(per_pos.sum()),
                          per_pos.astype(np.int64),
                          warp_acc[:n_warps].astype(np.int64))
