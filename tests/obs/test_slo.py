"""SLO monitor: objectives, quantiles, burn-rate windows, gauges."""

from __future__ import annotations

import math

import pytest

from repro.obs.export import prometheus_text
from repro.obs.registry import Histogram, MetricRegistry
from repro.obs.slo import (
    DEFAULT_WINDOWS,
    Objective,
    SloMonitor,
    default_objectives,
    quantile_from_hist,
)


def hist_snapshot(values: list[float]) -> dict:
    h = Histogram()
    for v in values:
        h.record(v)
    return h.snapshot()


def snap(counters: dict | None = None,
         histograms: dict | None = None) -> dict:
    return {"counters": counters or {}, "gauges": {},
            "histograms": histograms or {}}


class FakeClock:
    def __init__(self, t: float = 1000.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t


# ---------------------------------------------------------- quantiles

def test_quantile_empty_hist_is_none():
    assert quantile_from_hist({"count": 0, "buckets": {}}, 0.99) is None
    assert quantile_from_hist({}, 0.5) is None


def test_quantile_upper_edge_semantics():
    # 99 fast observations, 1 slow: p50 lands in the fast bucket's
    # upper edge, p999 in the slow one's
    h = hist_snapshot([0.001] * 99 + [1.5])
    p50 = quantile_from_hist(h, 0.50)
    assert p50 is not None and 0.001 <= p50 <= 0.002
    p999 = quantile_from_hist(h, 0.999)
    assert p999 is not None and p999 >= 1.5


# --------------------------------------------------------- objectives

def test_objective_validation():
    with pytest.raises(ValueError):
        Objective(name="x", kind="nope")
    with pytest.raises(ValueError):
        Objective(name="x", kind="latency", quantile=1.5)


def test_latency_objective_error_budget_is_one_minus_quantile():
    obj = Objective(name="x", kind="latency", histogram="h",
                    quantile=0.99, threshold=0.25)
    assert obj.error_budget == pytest.approx(0.01)


def test_default_objectives_cover_the_advertised_three():
    names = {o.name for o in default_objectives()}
    assert names == {"frame_p99_seconds", "error_rate", "salvage_rate"}


# --------------------------------------------------------- evaluation

def test_ratio_objective_breach_and_ok():
    obj = Objective(name="err", kind="ratio",
                    bad=("server.connection_errors",),
                    total=("server.connections",), budget=0.01)
    mon = SloMonitor([obj], clock=FakeClock())
    bad = mon.evaluate(snap({"server.connections": 100,
                             "server.connection_errors": 5}))
    assert not bad["ok"]
    assert bad["objectives"][0]["bad_fraction"] == pytest.approx(0.05)
    good = mon.evaluate(snap({"server.connections": 1000,
                              "server.connection_errors": 1}))
    assert good["ok"]


def test_latency_objective_breach_reports_value_and_thresholds():
    obj = Objective(name="p99", kind="latency", histogram="lat",
                    quantile=0.9, threshold=0.1)
    mon = SloMonitor([obj], clock=FakeClock())
    # 50% of observations above threshold: far past the 10% budget
    report = mon.evaluate(
        snap(histograms={"lat": hist_snapshot([0.01] * 5 + [1.0] * 5)}))
    entry = report["objectives"][0]
    assert not entry["ok"]
    assert entry["value"] >= 1.0
    assert entry["threshold"] == 0.1
    # bucketed threshold rounds up to a power of two edge
    assert entry["effective_threshold"] >= 0.1
    assert math.log2(entry["effective_threshold"]).is_integer()


def test_empty_histogram_is_healthy():
    mon = SloMonitor([Objective(name="p99", kind="latency",
                                histogram="lat", threshold=0.1)],
                     clock=FakeClock())
    assert mon.evaluate(snap())["ok"]


# ------------------------------------------------------- burn windows

def test_burn_rate_uses_window_deltas():
    clock = FakeClock(1000.0)
    obj = Objective(name="err", kind="ratio",
                    bad=("bad",), total=("total",), budget=0.01)
    mon = SloMonitor([obj], windows=(60.0,), clock=clock)
    # old history: 1000 requests, 0 errors
    mon.observe(snap({"total": 1000, "bad": 0}))
    clock.t += 61.0
    # inside the window: 100 more requests, 10 errors -> 10% bad,
    # 10x the 1% budget
    report = mon.evaluate(snap({"total": 1100, "bad": 10}))
    win = report["objectives"][0]["windows"]["60s"]
    assert win["bad"] == 10 and win["total"] == 100
    assert win["burn"] == pytest.approx(10.0)


def test_alerting_requires_every_window_burning():
    clock = FakeClock(1000.0)
    obj = Objective(name="err", kind="ratio", bad=("bad",),
                    total=("total",), budget=0.01, alert_burn=2.0)
    mon = SloMonitor([obj], windows=(60.0, 600.0), clock=clock)
    mon.observe(snap({"total": 0, "bad": 0}))
    clock.t += 30.0
    mon.observe(snap({"total": 0, "bad": 0}))
    clock.t += 601.0
    # burst entirely inside both windows
    report = mon.evaluate(snap({"total": 100, "bad": 50}))
    entry = report["objectives"][0]
    assert entry["alerting"]
    assert not report["ok"]


def test_young_monitor_falls_back_to_oldest_sample():
    clock = FakeClock(1000.0)
    obj = Objective(name="err", kind="ratio", bad=("bad",),
                    total=("total",), budget=0.5)
    mon = SloMonitor([obj], windows=(3600.0,), clock=clock)
    mon.observe(snap({"total": 10, "bad": 0}))
    clock.t += 5.0  # far younger than the hour window
    report = mon.evaluate(snap({"total": 20, "bad": 10}))
    win = report["objectives"][0]["windows"]["3600s"]
    assert win["total"] == 10 and win["bad"] == 10
    assert win["covers_seconds"] == pytest.approx(5.0)


def test_no_samples_yields_null_burn():
    mon = SloMonitor([Objective(name="err", kind="ratio", bad=("bad",),
                                total=("total",), budget=0.01)],
                     clock=FakeClock())
    report = mon.evaluate(snap({"total": 10, "bad": 0}))
    win = report["objectives"][0]["windows"]
    assert all(w["burn"] is None for w in win.values())
    assert not report["objectives"][0]["alerting"]


def test_default_windows_sorted_and_positive():
    assert DEFAULT_WINDOWS == tuple(sorted(DEFAULT_WINDOWS))
    with pytest.raises(ValueError):
        SloMonitor(windows=(0.0,))


# ------------------------------------------------------------- gauges

def test_record_gauges_surface_as_culzss_slo_metrics():
    clock = FakeClock()
    mon = SloMonitor(clock=clock)
    metrics = MetricRegistry()
    bad = snap({"server.connections": 100, "server.connection_errors": 50})
    mon.observe(bad)
    clock.t += 61.0
    report = mon.record_gauges(metrics, snapshot=bad)
    assert not report["ok"]
    gauges = metrics.snapshot()["gauges"]
    assert gauges["slo.error_rate.ok"]["last"] == 0.0
    assert gauges["slo.ok"]["last"] == 0.0
    text = prometheus_text(metrics.snapshot())
    assert "culzss_slo_error_rate_ok_last 0.0" in text
    assert "culzss_slo_ok_last 0.0" in text
