"""Hash-chain longest-match search for the large (4 KiB) serial window.

The lag method of :mod:`repro.lzss.lagmatch` costs one vector pass per
lag — perfect for the CUDA formats' 128-byte window, hopeless for the
serial format's 4096.  This module finds all-position longest matches
the way zlib does: positions are bucketed by their 3-byte prefix
("gram"); candidates for position ``i`` are the nearest previous
positions with the same gram inside the window, visited nearest first,
*for every position simultaneously* — round ``k`` tries each position's
``k``-th candidate.

Because any match of length ≥ 3 must share its leading gram, searching
every same-gram predecessor in the window is **exact** for LZSS
purposes (shorter candidates are emitted as literals anyway).  The
``max_chain`` bound makes the search approximate on extremely
repetitive data, exactly like zlib's chain cap; tests use
``max_chain ≥ window`` to check exactness against the brute-force
reference, and a plain-loop oracle of the bounded walk for the rest.

Hot-path engineering (the matcher dominates V1 and lz4s encode cost):

* **Chunk-local chains** — with ``chunk_size`` given, the sort key
  carries the chunk id, so buckets never mix chunks.  Chain slots are
  not wasted on cross-chunk candidates (which the window check would
  discard anyway), and — crucially for :mod:`repro.engine` — the result
  for a chunk depends only on that chunk's bytes, so any chunk-aligned
  sharding of the input produces byte-identical matches.
* **A shrinking live set** — one stable sort (two 16-bit radix passes
  on typical inputs) gives every position its depth in its bucket.  A
  position leaves the walk for good once its bucket is exhausted, at
  its first candidate beyond the window (distances only grow with
  ``k``), or once its match reaches its length cap (``max_match`` or a
  chunk/slice boundary).  A round costs O(live positions), not O(n).
* **zlib's scan-end check** — a candidate can only beat the current
  best length ``L`` if it agrees on byte ``L`` too; one byte compare
  skips the others before any extension.
* **8 bytes per compare** — extension XORs little-endian 8-byte words
  (built once per call, zero-padded past the end); the first differing
  byte is the trailing zero bytes of the XOR.  This is GPULZ's
  multi-byte matching (arXiv:2304.07342) in vector form.
* **Continuation runs read off their tails** — in the first round,
  where every near candidate is compared, position ``i`` whose
  candidate is ``j`` continues ``i − 1`` whose candidate is ``j − 1``.
  Only the last position of each such run (its tail) is extended; every
  earlier member reads ``min(L(tail) + (tail − i), cap)``, exactly its
  own match.  On the paper corpora 40–99% of the first round's
  candidates continue their neighbour's pair and skip their extension.

This module also hosts :func:`probe_incompressible` — the cheap entropy
probe the service's ingress uses to route already-compressed or random
buffers straight to raw passthrough *before* any match search runs.
Its order-0 threshold is the fixed :data:`PROBE_BYTE_ENTROPY_BITS`
(7.9 bits/byte).
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.util.buffers import as_u8
from repro.util.validation import require_range

__all__ = [
    "hash_chain_best_matches",
    "probe_incompressible",
]

DEFAULT_MAX_CHAIN = 64

#: Probe defaults: order-0 threshold just below the 8 bits/byte of true
#: noise, order-1 threshold guarding against "random block repeated"
#: inputs whose byte histogram is flat but whose digrams are few.
PROBE_SAMPLE_BYTES = 1 << 16
PROBE_MIN_SIZE = 1024
PROBE_BYTE_ENTROPY_BITS = 7.9

#: ``prev`` of a bucket head: far enough back to fail every window check.
_NO_CANDIDATE = -(1 << 40)


def _words(arr: np.ndarray) -> np.ndarray:
    """Little-endian 8-byte word starting at every position, zero-padded."""
    n = arr.size
    padded = np.zeros(n + 8, dtype=np.uint8)
    padded[:n] = arr
    # An unaligned stride-1 view, copied once into aligned words.
    return np.ndarray((n,), dtype="<u8", buffer=padded, strides=(1,)).copy()


def _stable_argsort(key: np.ndarray) -> np.ndarray:
    """Stable argsort of non-negative ``key`` by 16-bit radix passes."""
    order = np.argsort(key.astype(np.uint16), kind="stable")
    for shift in range(16, int(key.max()).bit_length(), 16):
        digit = (key[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
    return order


def _match_lengths(words: np.ndarray, i: np.ndarray, j: np.ndarray,
                   cap: np.ndarray) -> np.ndarray:
    """Lengths of the matches of ``i`` against ``j``, capped at ``cap``.

    Every pair agrees on its first 3 bytes (the gram) and has
    ``cap ≥ 3``.  Each step compares the next 8 bytes of every open
    pair at once; a nonzero XOR ends the pair at its first differing
    byte, its lowest nonzero byte.
    """
    length = np.minimum(cap, 3)
    todo = np.flatnonzero(cap > 3)
    while todo.size:
        at = length[todo]
        x = words[i[todo] + at] ^ words[j[todo] + at]
        diff = x != 0
        low = x[diff]
        low &= ~low + np.uint64(1)  # the lowest set bit: 2**b, exact as float
        bit = (low.astype(np.float64).view(np.int64) >> 52) - 1023
        length[todo[diff]] += bit >> 3
        todo = todo[~diff]
        length[todo] += 8
        todo = todo[length[todo] < cap[todo]]
    return np.minimum(length, cap)


def _run_tail_lengths(words: np.ndarray, i: np.ndarray, j: np.ndarray,
                      cap: np.ndarray) -> np.ndarray:
    """:func:`_match_lengths` of ascending pairs, extending only run tails.

    Pair ``m`` continues pair ``m − 1`` when ``i`` and ``j`` both step
    by one.  A run of continuations shares one distance, and its
    members' grams overlap, so the bytes from each member ``i`` through
    the gram of its run's last pair (the tail) match, and the member's
    match is ``(tail − i) + L(tail)`` bytes long.  Caps shrink by at
    most one per position inside a chunk or slice, and no run crosses
    one (a position with less than 3 bytes of room has no pair), so
    ``min(L(tail) + (tail − i), cap)`` is exact even where the tail's
    match stopped at its own cap.
    """
    tail = np.flatnonzero((np.diff(i) != 1) | (np.diff(j) != 1))
    tail = np.append(tail, i.size - 1)
    end = _match_lengths(words, i[tail], j[tail], cap[tail]) + i[tail]
    return np.minimum(np.repeat(end, np.diff(tail, prepend=-1)) - i, cap)


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
    if chunk_size is not None:
        require_range(chunk_size, 1, 1 << 40, "chunk_size")
    if slice_size is not None:
        require_range(slice_size, 1, 1 << 40, "slice_size")
        if chunk_size is not None and chunk_size % slice_size:
            raise ValueError("slice_size must divide chunk_size")

    # Sort key of every position with a gram: the gram is the low 3
    # bytes of its word, and the chunk id above it keeps chains
    # chunk-local.  A stable sort keeps each bucket's positions
    # ascending, so each entry's predecessor in the sorted order is its
    # nearest candidate; a bucket head gets a candidate beyond any window.
    m = n - 2
    words = _words(arr)
    key = (words[:m] & np.uint64(0xFFFFFF)).astype(np.int64)
    if chunk_size is not None:
        key |= (np.arange(m) // chunk_size) << 24
    order = _stable_argsort(key)
    key = key[order]
    prev = np.empty(m, dtype=np.int64)
    prev[order[0]] = _NO_CANDIDATE
    prev[order[1:]] = np.where(key[1:] == key[:-1], order[:-1], _NO_CANDIDATE)

    # The live set: every position with a candidate whose length cap
    # admits a 3-byte match, with its current candidate ``j``.
    i = np.flatnonzero(prev >= 0)
    cap = np.minimum(n - i, max_match)
    for size in (chunk_size, slice_size):
        if size is not None:
            np.minimum(cap, size - i % size, out=cap)
    live = cap >= 3
    i, cap = i[live], cap[live]
    j = prev[i]

    # Observability accumulates locally and records once after the walk.
    k = 0
    saturated = False
    while i.size:
        k += 1
        dist = i - j
        near = dist <= window
        have = best_len[i]
        if k == 1:
            # Bytes 0..2 agree by the gram, so every near candidate
            # passes the scan-end check, and runs of continuations
            # read their lengths off their tails.
            t = np.flatnonzero(near)
            extend = _run_tail_lengths
        else:
            t = np.flatnonzero(near & (np.take(arr, j + have, mode="clip")
                                       == arr[i + have]))
            extend = _match_lengths
        if t.size:
            length = extend(words, i[t], j[t], cap[t])
            better = length > have[t]
            t = t[better]
            u = i[t]
            best_len[u] = have[t] = length[better]
            best_dist[u] = dist[t]
        keep = near & (have < cap)
        if k == max_chain or not keep.any():
            saturated = k < max_chain and bool(near.any())
            break
        i, j, cap = i[keep], prev[j[keep]], cap[keep]

    obs.inc("matcher.hash_rounds", k)
    if saturated:
        obs.inc("matcher.saturation_exits")
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
