"""Hash-chain longest-match search for the large (4 KiB) serial window.

The lag method of :mod:`repro.lzss.lagmatch` costs one vector pass per
lag — perfect for the CUDA formats' 128-byte window, hopeless for the
serial format's 4096.  This module finds all-position longest matches
the way zlib does: positions are bucketed by their 3-byte prefix
("gram"); candidates for position ``i`` are the nearest previous
positions with the same gram inside the window; candidate match lengths
are extended *for every pair simultaneously* in at most ``max_match``
vector rounds.

Because any match of length ≥ 3 must share its leading gram, searching
every same-gram predecessor in the window is **exact** for LZSS
purposes (shorter candidates are emitted as literals anyway).  The
``max_chain`` bound makes the search approximate on extremely
repetitive data, exactly like zlib's chain cap; tests use
``max_chain ≥ window`` to check exactness against the brute-force
reference.

Hot-path engineering (the matcher dominates small-frame encode cost):

* **Chunk-local chains** — with ``chunk_size`` given, the gram sort key
  carries the chunk id, so buckets never mix chunks.  Chain slots are
  not wasted on cross-chunk candidates (which the window check would
  discard anyway), and — crucially for :mod:`repro.engine` — the result
  for a chunk depends only on that chunk's bytes, so any chunk-aligned
  sharding of the input produces byte-identical matches.
* **Saturation early exit** — a position whose best match already
  reached its length cap (``max_match`` or a chunk/slice boundary)
  cannot improve; its pairs are dropped before extension, and the chain
  loop stops outright once no position can improve (one vector pass per
  few rounds, a large win on run-heavy data).
* **Scratch arena** — the position ladder and integer temporaries are
  reused from a per-thread arena (:class:`ScratchArena`) instead of
  being reallocated per call; the per-call ``argsort`` and the result
  arrays are the only mandatory allocations left.

The arena is thread-local, so the parallel engine's worker threads each
get their own scratch without locking.

This module also hosts :func:`probe_incompressible` — the cheap entropy
probe the service's ingress uses to route already-compressed or random
buffers straight to raw passthrough *before* any match search runs.
Its order-0 threshold is the fixed :data:`PROBE_BYTE_ENTROPY_BITS`
(7.9 bits/byte).
"""

from __future__ import annotations

import threading

import numpy as np

from repro import obs
from repro.util.buffers import as_u8
from repro.util.validation import require_range

__all__ = [
    "ScratchArena",
    "hash_chain_best_matches",
    "probe_incompressible",
]

DEFAULT_MAX_CHAIN = 64

#: Arena slots larger than this many int64 elements are not cached —
#: the arena targets the small-frame hot path, not 8 MiB one-shots.
_ARENA_CAP = 1 << 20

#: Probe defaults: order-0 threshold just below the 8 bits/byte of true
#: noise, order-1 threshold guarding against "random block repeated"
#: inputs whose byte histogram is flat but whose digrams are few.
PROBE_SAMPLE_BYTES = 1 << 16
PROBE_MIN_SIZE = 1024
PROBE_BYTE_ENTROPY_BITS = 7.9

class ScratchArena(threading.local):
    """Per-thread reusable integer scratch buffers.

    ``iota(n)`` hands out a shared read-only position ladder;
    ``i64(name, n)`` a named growable int64 buffer.  Callers must treat
    ``iota`` views as immutable and must not hold ``i64`` views across
    calls into other arena users (the matcher is not reentrant within a
    thread, which is the only discipline required).
    """

    def __init__(self) -> None:
        self._bufs: dict[str, np.ndarray] = {}
        self._iota = np.zeros(0, dtype=np.int64)

    def iota(self, n: int) -> np.ndarray:
        if self._iota.size < n:
            grow = max(n, 2 * self._iota.size)
            self._iota = np.arange(grow, dtype=np.int64)
            if grow <= _ARENA_CAP:
                self._iota.setflags(write=False)
            else:  # oversized: hand out once, do not retain
                out, self._iota = self._iota, np.zeros(0, dtype=np.int64)
                out.setflags(write=False)
                return out[:n]
        return self._iota[:n]

    def i64(self, name: str, n: int) -> np.ndarray:
        if n > _ARENA_CAP:
            return np.empty(n, dtype=np.int64)
        buf = self._bufs.get(name)
        if buf is None or buf.size < n:
            buf = np.empty(max(n, 1024), dtype=np.int64)
            self._bufs[name] = buf
        return buf[:n]


_ARENA = ScratchArena()


def _grams3(arr: np.ndarray, arena: ScratchArena) -> np.ndarray:
    """24-bit keys of 3-byte prefixes: one per position ``i ≤ n-3``."""
    n = arr.size
    a = arena.i64("bytes64", n)
    a[:] = arr
    g = arena.i64("grams", n - 2)
    np.left_shift(a[:-2], 16, out=g)
    t = arena.i64("gram_tmp", n - 2)
    np.left_shift(a[1:-1], 8, out=t)
    np.bitwise_or(g, t, out=g)
    np.bitwise_or(g, a[2:], out=g)
    return g


def _pair_match_lengths(arr: np.ndarray, i_pos: np.ndarray, j_pos: np.ndarray,
                        cap: np.ndarray) -> np.ndarray:
    """Match lengths of ``arr[i:]`` vs ``arr[j:]`` for all pairs at once.

    Vector loop over the match depth: every surviving pair compares its
    next byte each round, so the round count is bounded by ``cap.max()``
    (≤ 18 for the serial format), not by the pair count.
    """
    npairs = i_pos.size
    lengths = np.zeros(npairs, dtype=np.int64)
    if npairs == 0:
        return lengths
    active = np.arange(npairs)
    max_cap = int(cap.max(initial=0))
    for _ in range(max_cap):
        # Two-step masking: only pairs below their cap may read the next
        # byte, otherwise arr[i + len] can index past the array end.
        below = lengths[active] < cap[active]
        active = active[below]
        if active.size == 0:
            break
        ia = i_pos[active]
        ja = j_pos[active]
        la = lengths[active]
        cont = arr[ja + la] == arr[ia + la]
        lengths[active[cont]] += 1
        active = active[cont]
        if active.size == 0:
            break
    return lengths


def hash_chain_best_matches(
    data: bytes | np.ndarray,
    window: int,
    max_match: int,
    max_chain: int = DEFAULT_MAX_CHAIN,
    chunk_size: int | None = None,
    slice_size: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Longest match (length ≥ 3 exact up to ``max_chain``) at every position.

    Returns ``(best_len, best_dist)`` int32 arrays of length ``n``.
    Positions with no match of ≥ 3 bytes report length 0.  Ties on
    length keep the smallest distance (chain order is nearest-first).

    ``chunk_size`` confines the *window* (matches never reach into an
    earlier chunk) and makes the chain itself chunk-local, so results
    for a chunk depend only on that chunk's bytes; ``slice_size``
    additionally caps the match *length* at slice boundaries — the
    CULZSS V1 semantics where every thread encodes its own slice but
    searches the whole chunk before it.
    """
    arr = as_u8(data)
    n = arr.size
    require_range(window, 1, 1 << 24, "window")
    require_range(max_match, 3, 1 << 16, "max_match")
    require_range(max_chain, 1, 1 << 24, "max_chain")

    obs.inc("matcher.hash_calls")
    best_len = np.zeros(n, dtype=np.int32)
    best_dist = np.zeros(n, dtype=np.int32)
    if n < 4:  # a 3-byte match needs source and destination to both fit
        return best_len, best_dist

    arena = _ARENA
    pos = arena.iota(n)
    grams = _grams3(arr, arena)
    if chunk_size is None:
        cap_all = arena.i64("cap_all", n)
        np.subtract(np.int64(n), pos, out=cap_all)
        np.minimum(cap_all, max_match, out=cap_all)
    else:
        require_range(chunk_size, 1, 1 << 40, "chunk_size")
        chunk_of = arena.i64("chunk_of", n)
        np.floor_divide(pos, chunk_size, out=chunk_of)
        cap_all = arena.i64("cap_all", n)
        np.add(chunk_of, 1, out=cap_all)  # chunk end = (chunk + 1) * size
        np.multiply(cap_all, chunk_size, out=cap_all)
        np.minimum(cap_all, n, out=cap_all)
        np.subtract(cap_all, pos, out=cap_all)
        np.minimum(cap_all, max_match, out=cap_all)
        # Chunk-local chains: fold the chunk id into the sort key so
        # buckets never span chunks — every chain slot is a candidate
        # the window/chunk filters could actually accept, and shard
        # boundaries at chunk multiples cannot change the result.
        t = arena.i64("gram_tmp", n - 2)
        np.left_shift(chunk_of[:n - 2], 24, out=t)
        np.bitwise_or(grams, t, out=grams)
    if slice_size is not None:
        require_range(slice_size, 1, 1 << 40, "slice_size")
        if chunk_size is not None and chunk_size % slice_size:
            raise ValueError("slice_size must divide chunk_size")
        slice_end = np.minimum((pos // slice_size + 1) * slice_size, n)
        np.minimum(cap_all, slice_end - pos, out=cap_all)

    # Stable argsort ⇒ within each (chunk, gram) bucket positions stay
    # ascending, so the k-th predecessor is the k-th nearest.
    order = np.argsort(grams[:n - 2], kind="stable").astype(np.int64)
    g_sorted = grams[order]

    # A position whose best length reached its cap can never improve.
    # Observability accumulates locally (rounds, saturation) and records
    # once after the loop — never per round.
    viable = cap_all >= 3
    rounds = 0
    saturated = False
    for k in range(1, max_chain + 1):
        if k >= g_sorted.size:
            break
        if k % 8 == 0 and not np.any(viable & (best_len < cap_all)):
            saturated = True
            break  # every viable position is saturated — nothing to gain
        rounds += 1
        same = g_sorted[k:] == g_sorted[:-k]
        if not np.any(same):
            break
        i_pos = order[k:][same]
        j_pos = order[:-k][same]
        dist = i_pos - j_pos
        ok = dist <= window
        # Only pairs that can still improve are worth extending: the
        # position must accept ≥ 3-byte matches and not be saturated.
        ok &= viable[i_pos]
        ok &= best_len[i_pos] < cap_all[i_pos]
        i_pos, j_pos = i_pos[ok], j_pos[ok]
        if i_pos.size == 0:
            continue
        lengths = _pair_match_lengths(arr, i_pos, j_pos, cap_all[i_pos])
        better = lengths > best_len[i_pos]
        if np.any(better):
            upd = i_pos[better]
            best_len[upd] = lengths[better]
            best_dist[upd] = (i_pos - j_pos)[better]

    obs.inc("matcher.hash_rounds", rounds)
    if saturated:
        obs.inc("matcher.saturation_exits")

    # Lengths below 3 are never encoded; normalize them away so all
    # matchers agree on the canonical "no match" representation.
    short = best_len < 3
    best_len[short] = 0
    best_dist[short] = 0
    return best_len, best_dist


def probe_incompressible(data, *, min_size: int = PROBE_MIN_SIZE) -> bool:
    """Cheap pre-flight check: is ``data`` almost certainly incompressible?

    Samples a prefix of :data:`PROBE_SAMPLE_BYTES` and measures order-0
    (byte) and order-1 (digram) empirical entropy.  Only when *both* sit
    near their ceilings — at least :data:`PROBE_BYTE_ENTROPY_BITS`
    (7.9 bits/byte) for bytes, the sample-size ceiling for digrams — is
    the buffer declared incompressible.  That is the conservative
    direction: a ``False`` merely means the encoder runs as usual, while
    a ``True`` lets the service ship the bytes raw without any match
    search.  The digram check catches the classic false positive of a
    random block repeated many times (flat byte histogram, few digrams).
    Buffers under ``min_size`` bytes are never declared incompressible.

    Cost is two ``bincount`` passes over the sample — orders of
    magnitude below one matcher chain round.
    """
    obs.inc("matcher.probe_calls")
    arr = as_u8(data)
    if arr.size < max(min_size, 2):
        return False
    sample = arr[:PROBE_SAMPLE_BYTES]
    m = sample.size

    counts = np.bincount(sample, minlength=256)
    p = counts[counts > 0] / m
    h1 = float(-(p * np.log2(p)).sum())
    if h1 < PROBE_BYTE_ENTROPY_BITS:
        return False

    grams = (sample[:-1].astype(np.int32) << 8) | sample[1:]
    counts2 = np.bincount(grams, minlength=1 << 16)
    p2 = counts2[counts2 > 0] / (m - 1)
    h2 = float(-(p2 * np.log2(p2)).sum())
    # A random sample of m-1 digrams cannot show more than log2(m-1)
    # bits; demand it come within ~0.8 bits of that ceiling (or of the
    # true 16-bit ceiling for large samples, where the maximum-likelihood
    # estimator's negative bias eats a fraction of a bit).
    ceiling = min(15.0, float(np.log2(m - 1)) - 0.8)
    hit = h2 >= ceiling
    if hit:
        obs.inc("matcher.probe_hits")
    return hit
