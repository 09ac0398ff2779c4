"""Exact all-position longest-match search — the CULZSS V2 kernel math.

The V2 GPU kernel assigns one thread per input character; every thread
scans the same ``window``-byte history linearly and records the longest
match starting at its character (§III.B.2).  Vectorized on the host this
becomes one pass per *lag* ``d ∈ [1, window]`` over one flat buffer:

* **chunk-major layout** — chunks lie end to end, the last one
  zero-padded, and every position carries a length cap
  ``min(max_match, room left in its chunk)`` (0 on padding), which
  also stops a run at its chunk end.  At lag ``d`` the caps of each
  chunk's first ``d`` positions are zeroed too, so a compare that
  would reach before its chunk start counts for nothing and no
  per-chunk loop is needed;
* **capped run lengths by doubling** — the equal-byte flags of one lag
  become run lengths, exact below ``max_match``, in at most
  ``⌈log2 max_match⌉`` vector steps on ``uint8`` (a wider type only when
  ``2·max_match + 1`` does not fit), stopping once no run reaches the
  next step;
* **packed best key** — the best match is kept as
  ``len << b | (2^b − 1 − d)`` with ``b = window.bit_length()`` and
  reduced with one ``maximum`` per lag, so ties keep the smallest
  distance — exactly the reference matcher's answer.

The same pass yields the *exact comparison count* the GPU (or a
brute-force CPU loop) performs: candidate ``(i, d)`` costs
``min(1 + runlen, cap)`` byte compares (compare until first mismatch or
cap).  The timing models in :mod:`repro.model` are fed from these
counts, not from guesses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.buffers import as_u8
from repro.util.validation import require_range

__all__ = ["LagMatchResult", "lag_best_matches"]


WARP_SIZE = 32


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


def _capped_runs(eq: np.ndarray, cap: int) -> np.ndarray:
    """Runs of ``True`` in ``eq`` from each index on, exact below ``cap``.

    Doubling step ``s`` adds ``r[k + s]`` wherever ``r[k] == s``, which
    turns ``min(run, s)`` into ``min(run, 2s)``.  The result is exact
    where the run is shorter than ``cap`` and at least ``cap`` elsewhere,
    in the narrowest unsigned type holding ``2·cap + 1`` — room for a
    caller's ``+ 1``.  ``eq`` is consumed.
    """
    dtype = np.min_scalar_type(2 * cap + 1)
    r = eq.view(np.uint8) if dtype == np.uint8 else eq.astype(dtype)
    s = 1
    while s < cap and r.max(initial=0) >= s:
        head = r[:-s]
        head += r[s:] * (head == s).view(np.uint8)
        s *= 2
    return r


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
    bits = window.bit_length()
    low = (1 << bits) - 1
    run_t = np.min_scalar_type(2 * max_match + 1)
    key_t = np.min_scalar_type((max_match << bits) | low)
    acc_t = np.min_scalar_type(window * max_match)

    room = chunk - np.arange(chunk)  # per offset, in a full chunk
    len_cap = np.zeros(size, dtype=run_t)
    cap_rows = len_cap[:rows * chunk].reshape(rows, chunk)
    cap_rows[:] = np.minimum(room, max_match)
    cap_rows[-1:] = (room - (rows * chunk - n)).clip(0, max_match)  # ends at n
    buf = np.zeros(size, dtype=np.uint8)
    buf[:n] = arr
    key = np.zeros(size, dtype=key_t)
    per_pos = np.zeros(size, dtype=acc_t)
    compares = np.zeros(size, dtype=run_t)
    ping, pong = np.empty(size, dtype=run_t), np.empty(size, dtype=run_t)
    warp_acc = np.zeros(size // WARP_SIZE, dtype=acc_t)

    for d in range(1, min(window, chunk - 1) + 1):
        cap_rows[:, d - 1] = 0  # offsets < d: the lag leaves the chunk
        runs = _capped_runs(buf[d:] == buf[:-d], max_match)
        cap = len_cap[d:]
        cand = np.left_shift(np.minimum(runs, cap), bits, dtype=key_t)
        cand |= low - d
        best = key[d:]
        np.maximum(best, cand, out=best)
        # compare until first mismatch or cap: min(1 + run, cap)
        runs += 1
        cmp_d = compares[d:]
        np.minimum(runs, cap, out=cmp_d)
        per_pos[d:] += cmp_d
        if collect_per_position:
            compares[d - 1] = 0  # chunk 0's offset d - 1 is outside cmp_d
            # max over each warp's 32 lanes in 5 sliding steps, ping-pong
            # because numpy copies an input that overlaps ``out``
            src = compares
            for s, dst in zip((1, 2, 4, 8, 16), (ping, pong) * 3):
                np.maximum(src[:-s], src[s:], out=dst[:-s])
                src = dst
            warp_acc += src[::WARP_SIZE]

    key, per_pos = key[:n], per_pos[:n]
    best_len = (key >> bits).astype(np.int32)
    best_dist = np.where(best_len > 0, low - (key & low), 0).astype(np.int32)
    if not collect_per_position:
        return LagMatchResult(best_len, best_dist, int(per_pos.sum()))
    n_warps = -(-n // WARP_SIZE)
    return LagMatchResult(best_len, best_dist, int(per_pos.sum()),
                          per_pos.astype(np.int64),
                          warp_acc[:n_warps].astype(np.int64))
