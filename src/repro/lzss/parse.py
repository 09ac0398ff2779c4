"""Greedy-parse machinery: all-position matches → token starts → tokens.

A greedy LZSS parse is the orbit of ``i → i + advance[i]`` from the
stream start, where ``advance[i]`` is the accepted match length (or 1
for a literal).  The orbit is inherently sequential, but on a functional
graph whose edges only move forward it can be *materialized* with
vectorized jump doubling in O(n log n): maintain the set ``R`` of nodes
reachable in < 2^t steps and a 2^t-step jump table ``J``; then
``R ← R ∪ J[R]`` and ``J ← J[J]`` per round, until a round adds no
node.

Chunked streams (the CUDA formats) run the same doubling once for all
chunks: every chunk start is seeded and every jump is clipped at its
chunk's end, so no orbit leaves its chunk and the round count follows
from the chunk size, not the stream length.  The decoders reuse
:func:`reachable_from` to find token boundaries in their wire formats;
the lzss decoder runs it over the starts of groups of 8 tokens, seeded
at every chunk start of a run of chunks.

:class:`Tokens` is what a parse produces and what
:func:`repro.lzss.decoder.reconstruct` consumes: the one token stream
every codec's encoder emits from and every decoder resolves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.validation import require, require_range

__all__ = ["Tokens", "greedy_token_starts",
           "greedy_token_starts_reference", "optimal_token_advance",
           "reachable_from"]


@dataclass(frozen=True)
class Tokens:
    """One token stream in output order.

    ``starts`` are the positions in the uncompressed data where tokens
    begin, ``is_pair`` marks back-references, ``lengths`` the bytes each
    token produces and ``distances`` how far back a pair points.  A
    literal token has distance 0; out of a parse it has length 1, while
    a decoder's literal run (lz4s) may be longer.
    """

    starts: np.ndarray
    is_pair: np.ndarray
    lengths: np.ndarray
    distances: np.ndarray


def reachable_from(jump: np.ndarray,
                   start: int | np.ndarray = 0) -> np.ndarray:
    """Sorted union of the orbits of ``start`` under a forward jump table.

    ``jump[p] > p`` must hold for every ``p``; values ≥ ``len(jump)``
    mean "past the end".  ``start`` is one position or several in
    increasing order below ``len(jump)``.  Returns the visited
    positions (starts included) in increasing order.

    Doubling stops at the first round that reaches no new position.
    The reach set then holds every node fewer than 2^t steps along an
    orbit and is closed under the 2^t-step table, so it holds every
    orbit node; the later tables, powers of that one, add nothing.
    """
    n = jump.size
    seeds = np.asarray(start, dtype=np.int64).reshape(-1)
    if n == 0 or seeds.size == 0 or int(seeds[0]) >= n:
        return np.zeros(0, dtype=np.int64)
    require_range(int(seeds[0]), 0, n - 1, "start")
    # Extend with a self-loop sentinel so doubling saturates cleanly.
    j = np.empty(n + 1, dtype=np.int64)
    j[:n] = np.minimum(jump.astype(np.int64, copy=False), n)
    j[n] = n
    if np.any(j[:n] <= np.arange(n)):
        raise ValueError("jump table must be strictly forward")
    reach = np.zeros(n + 1, dtype=bool)
    reach[seeds] = True
    idx = np.nonzero(reach)[0]
    while True:
        reach[j[idx]] = True
        grown = np.nonzero(reach)[0]
        if grown.size == idx.size:
            return idx[idx < n]
        idx = grown
        j = j[j]


def greedy_token_starts(advance: np.ndarray,
                        chunk_size: int | None = None) -> np.ndarray:
    """Positions at which greedy-parse tokens begin.

    ``advance[i] ≥ 1`` is how far the parse moves after emitting the
    token at ``i``.  With ``chunk_size`` given, every chunk is parsed
    independently (the CUDA distribution); otherwise the whole array is
    one stream.
    """
    advance = np.asarray(advance, dtype=np.int64)
    n = advance.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    require(int(advance.min()) >= 1, "advance must be >= 1 everywhere")
    if chunk_size is None:
        chunk_size = n
    require_range(chunk_size, 1, 1 << 40, "chunk_size")
    pos = np.arange(n, dtype=np.int64)
    chunk_end = (pos // chunk_size + 1) * chunk_size
    return reachable_from(np.minimum(pos + advance, chunk_end),
                          np.arange(0, n, chunk_size))


def greedy_token_starts_reference(advance: np.ndarray,
                                  chunk_size: int | None = None) -> np.ndarray:
    """Plain-loop specification of :func:`greedy_token_starts`."""
    advance = np.asarray(advance, dtype=np.int64)
    n = advance.size
    cs = chunk_size if chunk_size is not None else max(n, 1)
    out: list[int] = []
    for chunk_start in range(0, n, cs):
        end = min(chunk_start + cs, n)
        pos = chunk_start
        while pos < end:
            out.append(pos)
            pos += int(advance[pos])
    return np.asarray(out, dtype=np.int64)


def optimal_token_advance(best_len: np.ndarray, literal_bits: int,
                          pair_bits: int, min_match: int) -> np.ndarray:
    """Bit-optimal parse: advance[i] minimizing total token bits.

    Shortest path on the parse DAG — edges ``i→i+1`` (literal) and
    ``i→i+l`` for ``min_match ≤ l ≤ best_len[i]`` (a pair of any
    length up to the longest available match).  Backward DP:

        dp[i] = min(literal_bits + dp[i+1],
                    pair_bits + min_{i+min_match ≤ j ≤ i+best_len[i]} dp[j])

    The window minimum is a NumPy ``argmin`` over at most
    ``max_match − 2`` entries, so the loop is O(n·max_match) with a
    C-speed inner step (≈0.3 s per 128 KiB at max match 18 — this is
    the optional quality-over-speed mode).

    Matches already respect chunk/slice boundaries through
    ``best_len``'s caps, and no token can span a boundary, so one
    global DP serves chunked streams too.  Returns the advance array
    to feed :func:`greedy_token_starts`.
    """
    lens = np.asarray(best_len, dtype=np.int64)
    n = lens.size
    advance = np.ones(n, dtype=np.int64)
    if n == 0:
        return advance
    dp = np.zeros(n + 1, dtype=np.int64)
    for i in range(n - 1, -1, -1):
        best = literal_bits + dp[i + 1]
        adv = 1
        max_l = int(lens[i])
        if max_l >= min_match:
            lo, hi = i + min_match, i + max_l
            j_best = lo + int(np.argmin(dp[lo:hi + 1]))
            pair = pair_bits + int(dp[j_best])
            if pair < best:
                best = pair
                adv = j_best - i
        dp[i] = best
        advance[i] = adv
    return advance
