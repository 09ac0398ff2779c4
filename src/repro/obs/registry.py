"""Process-wide metric registry: counters, gauges, log-bucket histograms.

One :class:`MetricRegistry` holds every metric a process emits.  The
design constraints come from where it sits:

* **Hot-path cheap** — the matcher and encoder call :meth:`inc` and
  :meth:`observe` from inside the compression pipeline, so one call is
  one lock acquisition and a couple of dict operations; instrumented
  code accumulates locally and records once per call, never per loop
  round.
* **Thread-safe** — the parallel engine's worker threads and the
  asyncio pipelines' executor callbacks all write concurrently; a
  plain lock covers every entry point.
* **Process-mergeable** — service pool workers run in separate
  processes with their own registries.  :meth:`delta_snapshot` emits a
  picklable diff of everything recorded since the previous delta, and
  :meth:`merge` folds such a diff (from a worker) into the parent
  registry at pool join, so per-worker counts surface in one place.

:class:`Histogram` is the log-bucket histogram that started life in
the gateway service, promoted here so every layer shares one shape.
Zero handling is now explicit: **every** sample — zero included —
counts toward ``count``/``sum`` and updates ``min``/``max``;
non-positive values land in the underflow bucket ``le_2^-24``.  (The
old docstring promised zeros were "kept out of min only when no other
sample exists", which neither the code nor any caller wanted.)
"""

from __future__ import annotations

import math
import os
import threading
from collections import defaultdict

__all__ = ["Histogram", "MetricRegistry"]


class Histogram:
    """Fixed geometric buckets, ``(2^k, 2^(k+1)]``, plus count/sum/min/max.

    Covers ``2**-24`` (~6e-8, below any wait we time) through ``2**40``
    (a terabyte, above any frame we frame).  Explicit edge semantics:
    every sample updates ``count``, ``sum``, ``min`` and ``max`` — a
    recorded zero *is* the minimum; values at or below the smallest
    edge (zero and negatives included) land in the first bucket.
    """

    _LO, _HI = -24, 40

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._buckets: dict[int, int] = defaultdict(int)

    def record(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        self._buckets[self.bucket_of(value)] += 1

    @classmethod
    def bucket_of(cls, value: float) -> int:
        """The bucket exponent ``k`` such that ``value ≤ 2^k`` holds."""
        if value <= 0:
            return cls._LO
        return min(max(math.ceil(math.log2(value)), cls._LO), cls._HI)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "buckets": {f"le_2^{exp}": n
                        for exp, n in sorted(self._buckets.items())},
        }

    def merge_delta(self, delta: dict) -> None:
        """Fold a :meth:`MetricRegistry.delta_snapshot` histogram diff in.

        ``count``/``sum``/``buckets`` are differential (they add);
        ``min``/``max`` are cumulative (idempotent combine), so merging
        the same worker's deltas repeatedly never skews the extremes.
        """
        self.count += delta["count"]
        self.total += delta["sum"]
        for edge in ("min", "max"):
            v = delta.get(edge)
            if v is None:
                continue
            cur = getattr(self, edge)
            pick = min if edge == "min" else max
            setattr(self, edge, v if cur is None else pick(cur, v))
        for exp, n in delta["buckets"].items():
            self._buckets[int(exp)] += n


class MetricRegistry:
    """Counters + gauges + histograms behind one lock and one snapshot.

    ``preregister`` names counters (and ``preregister_histograms``
    histograms) that should exist at zero from the start, so exporters
    surface the full schema even before the first event — the
    Prometheus convention that a counter you might alert on is always
    scrapeable.
    """

    def __init__(self, preregister: tuple[str, ...] = (),
                 preregister_histograms: tuple[str, ...] = ()) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = defaultdict(int)
        self._gauges: dict[str, dict[str, float]] = {}
        self._histograms: dict[str, Histogram] = {}
        # Delta baselines: what the previous delta_snapshot() reported.
        self._base_counters: dict[str, int] = {}
        self._base_hist: dict[str, tuple[int, float, dict[int, int]]] = {}
        for name in preregister:
            self._counters[name] += 0
        for name in preregister_histograms:
            self._histograms.setdefault(name, Histogram())

    # ------------------------------------------------------------ record

    def inc(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counters[name] += n

    def count(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def gauge(self, name: str, value: float) -> None:
        """Record an instantaneous reading; keeps last and high-water."""
        with self._lock:
            g = self._gauges.setdefault(name, {"last": value, "max": value})
            g["last"] = value
            g["max"] = max(g["max"], value)

    def gauge_max(self, name: str) -> float:
        with self._lock:
            return self._gauges.get(name, {}).get("max", 0.0)

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram()
            hist.record(value)

    # ---------------------------------------------------------- snapshot

    def snapshot(self) -> dict:
        """Everything, as plain dicts — JSON-dumpable as-is."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": {k: dict(v) for k, v in self._gauges.items()},
                "histograms": {k: h.snapshot()
                               for k, h in self._histograms.items()},
            }

    def delta_snapshot(self) -> dict:
        """A picklable diff of everything since the previous delta.

        The worker side of the cross-process merge: call after a pool
        job, ship the result over the executor pipe, and
        :meth:`merge` it in the parent.  Counters and histogram
        count/sum/buckets are differential; gauges and histogram
        min/max ship their current values (merging those is
        idempotent).  ``pid`` lets the parent drop a delta that was
        produced in its own process (nothing to merge — the registry
        already has it).
        """
        with self._lock:
            counters = {}
            for name, v in self._counters.items():
                d = v - self._base_counters.get(name, 0)
                if d:
                    counters[name] = d
                self._base_counters[name] = v
            hists = {}
            for name, h in self._histograms.items():
                bc, bs, bb = self._base_hist.get(name, (0, 0.0, {}))
                buckets = {exp: n - bb.get(exp, 0)
                           for exp, n in h._buckets.items()
                           if n != bb.get(exp, 0)}
                if h.count != bc or buckets:
                    hists[name] = {"count": h.count - bc,
                                   "sum": h.total - bs,
                                   "min": h.min, "max": h.max,
                                   "buckets": buckets}
                self._base_hist[name] = (h.count, h.total,
                                         dict(h._buckets))
            gauges = {k: dict(v) for k, v in self._gauges.items()}
        return {"pid": os.getpid(), "counters": counters,
                "gauges": gauges, "histograms": hists}

    def merge(self, delta: dict | None) -> None:
        """Fold a worker's :meth:`delta_snapshot` into this registry.

        A ``None`` delta, or one stamped with this process's own pid,
        is a no-op — same-process "workers" (inline executors, thread
        pools) already wrote here directly, and merging their delta
        again would double-count.
        """
        if not delta or delta.get("pid") == os.getpid():
            return
        with self._lock:
            for name, n in delta.get("counters", {}).items():
                self._counters[name] += n
            for name, g in delta.get("gauges", {}).items():
                cur = self._gauges.setdefault(
                    name, {"last": g["last"], "max": g["max"]})
                cur["last"] = g["last"]
                cur["max"] = max(cur["max"], g["max"])
            for name, d in delta.get("histograms", {}).items():
                hist = self._histograms.get(name)
                if hist is None:
                    hist = self._histograms[name] = Histogram()
                hist.merge_delta(d)
