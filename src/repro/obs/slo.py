"""SLO monitor: declarative objectives, multi-window burn-rate alerts.

An *objective* states what "healthy" means in terms of metrics the
stack already records — no new instrumentation, just judgement over
the :class:`~repro.obs.registry.MetricRegistry` snapshots the gateway
sidecar serves:

* a **latency** objective ("p99 frame stage wait under 250 ms") reads
  a log-bucket histogram.  Internally it is a ratio objective in
  disguise: *p99 ≤ T* holds exactly when at most 1% of observations
  land above *T*, so the monitor counts bucket mass above the
  threshold — which also makes it *windowable* (bucket counts diff
  cleanly between snapshots, quantiles do not).
* a **ratio** objective ("connection errors under 1% of connections",
  "no more than 0.1% of CRC-checked chunks lost to salvage") divides
  one counter family by another.

The monitor keeps a bounded deque of timestamped snapshots.  Each
evaluation computes, per objective and per window, the **burn rate**:
the bad-event fraction inside the window divided by the objective's
error budget.  Burn 1.0 means the budget is being spent exactly as
fast as allowed; 10 means ten times too fast.  An objective *alerts*
when every window with data burns above its threshold — the classic
multi-window rule (short window = still happening now, long window =
not just a blip) from the SRE workbook, scaled down to two windows.

Thresholds over log-bucket histograms inherit the buckets' power-of-2
resolution: a threshold is effectively rounded up to its bucket's
upper edge (:func:`Histogram.bucket_of`).  That is the price of
windowability and is stated in the evaluation output (``threshold``
vs ``effective_threshold``).
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass, field
from time import time as wall_time

from repro.obs.registry import Histogram

__all__ = [
    "DEFAULT_WINDOWS",
    "Objective",
    "SloMonitor",
    "default_objectives",
    "quantile_from_hist",
]

#: (short, long) evaluation windows in seconds.  Short says "is it
#: happening right now", long says "is it sustained".
DEFAULT_WINDOWS = (60.0, 600.0)


def quantile_from_hist(hist: dict, q: float) -> float | None:
    """Estimate the ``q`` quantile from a histogram *snapshot* dict.

    Returns the upper edge ``2^k`` of the first bucket whose cumulative
    count reaches ``q`` of the total — an upper bound with the buckets'
    factor-of-2 resolution.  ``None`` when the histogram is empty.
    """
    count = hist.get("count", 0)
    if not count:
        return None
    need = q * count
    cum = 0
    for name, n in sorted(hist.get("buckets", {}).items(),
                          key=lambda kv: int(kv[0].split("^")[1])):
        cum += n
        if cum >= need:
            return 2.0 ** int(name.split("^")[1])
    return hist.get("max")


def _above_threshold(hist: dict, threshold: float) -> tuple[int, int]:
    """(observations above ``threshold``, total observations).

    "Above" is judged at bucket resolution: the bucket containing the
    threshold counts as *good* (the threshold rounds up to its upper
    edge).
    """
    k_t = Histogram.bucket_of(threshold)
    total = hist.get("count", 0)
    good = sum(n for name, n in hist.get("buckets", {}).items()
               if int(name.split("^")[1]) <= k_t)
    return max(0, total - good), total


@dataclass(frozen=True)
class Objective:
    """One declarative service-level objective.

    ``kind="latency"``: ``histogram`` + ``quantile`` + ``threshold``
    (seconds) — "the ``quantile`` of ``histogram`` stays at or under
    ``threshold``"; the error budget is ``1 - quantile``.

    ``kind="ratio"``: ``bad`` counters / ``total`` counters stay at or
    under ``budget``.
    """

    name: str
    kind: str  # "latency" | "ratio"
    description: str = ""
    # latency objectives
    histogram: str = ""
    quantile: float = 0.99
    threshold: float = 0.0
    # ratio objectives
    bad: tuple[str, ...] = ()
    total: tuple[str, ...] = ()
    budget: float = 0.0
    #: every window must burn above this rate to alert
    alert_burn: float = 2.0

    def __post_init__(self) -> None:
        if self.kind not in ("latency", "ratio"):
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if self.kind == "latency" and not (0.0 < self.quantile < 1.0):
            raise ValueError("quantile must be in (0, 1)")

    @property
    def error_budget(self) -> float:
        """Allowed bad fraction (0..1)."""
        return (1.0 - self.quantile) if self.kind == "latency" \
            else self.budget

    def _bad_total(self, snapshot: dict) -> tuple[float, float]:
        if self.kind == "latency":
            hist = snapshot.get("histograms", {}).get(self.histogram, {})
            return _above_threshold(hist, self.threshold)
        counters = snapshot.get("counters", {})
        return (float(sum(counters.get(k, 0) for k in self.bad)),
                float(sum(counters.get(k, 0) for k in self.total)))


def default_objectives() -> list[Objective]:
    """The gateway's out-of-the-box SLOs (tune per deployment)."""
    return [
        Objective(
            name="frame_p99_seconds", kind="latency",
            histogram="egress.stage_wait_seconds",
            quantile=0.99, threshold=0.25,
            description="p99 egress frame stage wait stays under 250 ms"),
        Objective(
            name="error_rate", kind="ratio",
            bad=("server.connection_errors",),
            total=("server.connections",), budget=0.01,
            description="under 1% of connections end in a transport or "
                        "frame error"),
        Objective(
            name="salvage_rate", kind="ratio",
            bad=("container.salvage_chunks_lost",),
            total=("container.crc_checks",), budget=0.001,
            description="under 0.1% of CRC-checked chunks are lost to "
                        "salvage"),
    ]


@dataclass
class _Sample:
    t: float
    bad_total: dict[str, tuple[float, float]] = field(default_factory=dict)


class SloMonitor:
    """Evaluate objectives over a rolling window of registry snapshots.

    Feed it snapshots with :meth:`observe` (the gateway sidecar does
    this on every scrape, so the sampling cadence *is* the scrape
    cadence); :meth:`evaluate` judges the latest state; ``clock``
    stamps both.  Only the per-objective ``(bad, total)`` pairs of the
    newest 1024 samples are retained, so memory is
    O(windows · objectives), not O(windows · metrics).
    """

    def __init__(self, objectives: list[Objective] | None = None, *,
                 windows: tuple[float, ...] = DEFAULT_WINDOWS,
                 clock=wall_time) -> None:
        self.objectives = list(default_objectives() if objectives is None
                               else objectives)
        if not all(w > 0 for w in windows):
            raise ValueError("windows must be positive seconds")
        self.windows = tuple(sorted(windows))
        self._clock = clock
        self._samples: deque[_Sample] = deque(maxlen=1024)
        # Sidecar scrapes render in worker threads; one lock keeps the
        # sample deque consistent under concurrent observe/evaluate.
        self._lock = threading.Lock()

    # ------------------------------------------------------------ feed

    def observe(self, snapshot: dict) -> None:
        """Record one registry snapshot's worth of SLO state, stamped
        with the monitor's clock."""
        sample = _Sample(t=self._clock())
        for obj in self.objectives:
            sample.bad_total[obj.name] = obj._bad_total(snapshot)
        with self._lock:
            self._samples.append(sample)

    # ------------------------------------------------------------ judge

    def _window_base(self, now: float, window: float,
                     name: str) -> tuple[float, float, float] | None:
        """(bad, total, age) at the sample closest to ``now - window``.

        Prefers the newest sample at or older than the window edge; a
        monitor younger than the window falls back to its oldest sample
        (the window then covers the whole observed history).  ``None``
        with no samples at all.
        """
        with self._lock:
            base = None
            for s in self._samples:
                if s.t <= now - window:
                    base = s
                else:
                    break
            if base is None:
                if not self._samples:
                    return None
                base = self._samples[0]
        bad, total = base.bad_total.get(name, (0.0, 0.0))
        return bad, total, now - base.t

    def evaluate(self, snapshot: dict) -> dict:
        """Judge every objective against ``snapshot`` at the monitor's
        clock; returns a JSON-dumpable report (the ``/slo.json``
        document)."""
        now = self._clock()
        out: dict = {"ts": round(now, 3),
                     "windows_seconds": list(self.windows),
                     "objectives": []}
        worst_ok = True
        for obj in self.objectives:
            bad_now, total_now = obj._bad_total(snapshot)
            budget = obj.error_budget
            ratio = (bad_now / total_now) if total_now else 0.0
            ok = ratio <= budget or not total_now
            entry: dict = {
                "name": obj.name,
                "kind": obj.kind,
                "description": obj.description,
                "ok": bool(ok),
                "bad": bad_now,
                "total": total_now,
                "bad_fraction": round(ratio, 6),
                "error_budget": budget,
                "windows": {},
            }
            if obj.kind == "latency":
                hist = snapshot.get("histograms", {}).get(obj.histogram, {})
                entry["value"] = quantile_from_hist(hist, obj.quantile)
                entry["threshold"] = obj.threshold
                entry["effective_threshold"] = \
                    2.0 ** Histogram.bucket_of(obj.threshold)
                entry["quantile"] = obj.quantile
            burns: list[float | None] = []
            for window in self.windows:
                based = self._window_base(now, window, obj.name)
                key = f"{int(window)}s"
                if based is None:
                    entry["windows"][key] = {"burn": None, "bad": 0.0,
                                             "total": 0.0}
                    burns.append(None)
                    continue
                bad0, total0, age = based
                w_bad = max(0.0, bad_now - bad0)
                w_total = max(0.0, total_now - total0)
                frac = (w_bad / w_total) if w_total else 0.0
                burn = (frac / budget) if budget else (
                    math.inf if w_bad else 0.0)
                entry["windows"][key] = {
                    "burn": (round(burn, 3)
                             if math.isfinite(burn) else None),
                    "bad": w_bad, "total": w_total,
                    "covers_seconds": round(min(age, window), 1),
                }
                burns.append(burn)
            entry["alerting"] = bool(burns) and all(
                b is not None and b >= obj.alert_burn for b in burns)
            worst_ok = worst_ok and ok and not entry["alerting"]
            out["objectives"].append(entry)
        out["ok"] = bool(worst_ok)
        return out

    # ----------------------------------------------------------- gauges

    def record_gauges(self, metrics, snapshot: dict) -> dict:
        """:meth:`evaluate` ``snapshot``, write the report into
        ``metrics`` as ``slo.*`` gauges and return it.

        It does not :meth:`observe`: a caller that samples on the same
        snapshot observes it first.  Prometheus export prefixes and
        sanitizes, so the gauges surface as
        ``culzss_slo_<objective>_ok_last`` etc. in ``/metrics``.
        ``metrics`` is anything with a ``gauge(name, value)`` method,
        e.g. a gateway's :class:`repro.obs.MetricRegistry`.
        """
        report = self.evaluate(snapshot)
        for entry in report["objectives"]:
            base = f"slo.{entry['name']}"
            metrics.gauge(f"{base}.ok", 1.0 if entry["ok"] else 0.0)
            metrics.gauge(f"{base}.alerting",
                          1.0 if entry["alerting"] else 0.0)
            metrics.gauge(f"{base}.bad_fraction", entry["bad_fraction"])
            if entry.get("value") is not None:
                metrics.gauge(f"{base}.value", entry["value"])
            for key, win in entry["windows"].items():
                if win["burn"] is not None:
                    metrics.gauge(f"{base}.burn_{key}", win["burn"])
        metrics.gauge("slo.ok", 1.0 if report["ok"] else 0.0)
        return report
