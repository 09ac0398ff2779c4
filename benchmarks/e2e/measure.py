"""Measurement helpers for the end-to-end benchmark.

Pure functions with no dependency on the program under test, so the
unit tests in ``test_bench.py`` pin down exactly how each number is
derived:

* :func:`tail_summary` — median plus the highest percentile that still
  has at least ten samples beyond it, with the sample count;
* :func:`union_length` / :func:`self_times` — a span's self time is its
  duration minus the part of its interval covered by its child spans,
  where overlapping children (the gateway's coroutines) count once;
* :func:`paced` / :func:`from_due` — open-loop pacing: each item has a
  due time, latency is measured from that due time (so a stall charges
  every item it delays), and the generator's own lateness is recorded;
* :func:`slowdown` — how much slower than nominal the host runs right
  now, from a fixed reference kernel timed between measurements.
"""

from __future__ import annotations

import asyncio
import math
import statistics
from time import perf_counter

import numpy as np

#: Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Nearest-rank ``p``-th percentile of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def tail_summary(samples, *, worse: str = "high") -> dict:
    """Median, the highest well-supported percentile, and ``n``.

    A percentile ``p`` is reported only when at least
    :data:`MIN_BEYOND` samples lie beyond its nearest-rank position, so
    a "p99" is never one outlier in a hundred.  ``worse`` names the
    bad end of the distribution: ``"high"`` for times, ``"low"`` for
    rates, where the tail of interest is the slow one.  With too few
    samples for any ladder entry, ``p`` and ``p_value`` are ``None``.
    """
    if worse not in ("high", "low"):
        raise ValueError("worse must be 'high' or 'low'")
    values = sorted(samples)
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    doc = {"median": statistics.median(values), "p": None,
           "p_value": None, "n": n}
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= MIN_BEYOND:
            # ``rank`` counts from the bad end of the distribution.
            idx = rank - 1 if worse == "high" else n - rank
            doc["p"], doc["p_value"] = p, values[idx]
            break
    return doc


# ------------------------------------------------------------ self time

def union_length(intervals, lo: float = -math.inf,
                 hi: float = math.inf) -> float:
    """Total length of the union of ``(start, end)`` intervals, clipped
    to ``[lo, hi]``."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals
                     if min(e, hi) > max(s, lo))
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans, is_layer) -> dict[int, float]:
    """Self seconds of every span ``is_layer`` selects, by span id.

    ``spans`` carry ``span_id``, ``parent_id``, ``start`` and
    ``duration`` (:class:`repro.obs.trace.Span` does).  The parent of a
    layer span is its nearest *layer* ancestor: spans the program
    records itself sit between layers and are walked through, not
    counted.  Self time is the duration minus the union of the
    children's intervals clipped to the parent's.
    """
    by_id = {s.span_id: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        if not is_layer(s):
            continue
        parent = by_id.get(s.parent_id)
        while parent is not None and not is_layer(parent):
            parent = by_id.get(parent.parent_id)
        if parent is not None:
            children.setdefault(parent.span_id, []).append(
                (s.start, s.start + s.duration))
    return {s.span_id: s.duration - union_length(
                children.get(s.span_id, ()), s.start, s.start + s.duration)
            for s in spans if is_layer(s)}


# ------------------------------------------------------------ open loop

async def paced(items, rate: float, log: list, *, clock=perf_counter,
                sleep=asyncio.sleep, after=None):
    """Yield ``items`` on a fixed schedule of ``rate`` per second.

    Item ``i`` is due at ``t0 + i / rate``; the generator sleeps until
    then and never catches up by skipping, so when the consumer blocks
    it (backpressure) every later item is yielded late.  ``log`` gets
    one ``(due, sent)`` pair per item, in order.  ``after()``, if given,
    runs each time the consumer has taken an item, before the wait for
    the next one.
    """
    t0 = clock()
    for i, item in enumerate(items):
        due = t0 + i / rate
        wait = due - clock()
        if wait > 0:
            await sleep(wait)
        log.append((due, clock()))
        yield item
        if after is not None:
            after()


def from_due(log, done) -> tuple[list[float], list[float]]:
    """Latencies from each item's due time, and the generator's lateness.

    ``log`` is :func:`paced`'s ``(due, sent)`` list and ``done[i]`` the
    time item ``i`` completed.  Returns ``(latency, late)`` in seconds.
    """
    if len(done) != len(log):
        raise ValueError(f"{len(done)} completions for {len(log)} items")
    latency = [t - due for (due, _sent), t in zip(log, done)]
    late = [sent - due for due, sent in log]
    return latency, late


# ------------------------------------------------------------ host speed

#: Median seconds of one :func:`reference_pass`, sampled between the
#: benchmark's measurements, on the 2-vCPU host the bounds were measured
#: on (Python 3.11, NumPy 2.4): the nominal speed every end-to-end
#: timing is scaled back to.
REFERENCE_S = 0.0044
_REF_BYTES = np.random.default_rng(0).integers(0, 256, 1 << 15,
                                               dtype=np.uint8)


def reference_pass() -> float:
    """Seconds for one pass of a fixed kernel shaped like the codec's
    work: a Python loop over bytes, then NumPy lag compares and prefix
    sums.  The kernel is part of the benchmark, not of the program under
    test, so no change to the program moves it."""
    arr = _REF_BYTES
    t0 = perf_counter()
    h = 0
    out = bytearray()
    for b in arr.tobytes():
        h = (h * 31 + b) & 0xFFFF
        out.append(h & 0xFF)
    for lag in range(1, 17):
        np.cumsum(arr[lag:] == arr[:-lag])
    return perf_counter() - t0


def slowdown() -> float:
    """How many times slower than nominal the host runs right now.

    Other tenants of a shared machine slow every process on it for tens
    of seconds at a time; a timing divided by the slowdown measured next
    to it (a rate multiplied by it) reads as on the nominal host.  The
    median of three passes keeps one preempted pass from counting.
    """
    return statistics.median(reference_pass() for _ in range(3)) / REFERENCE_S
