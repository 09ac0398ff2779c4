"""The gateway's metrics: counters, gauges, histograms, snapshot shape.

Every pipeline and endpoint records into a :class:`MetricRegistry` of
its own (or the one passed as ``metrics=``); these tests pin the
behaviour and the key spellings the gateway relies on.
"""

from __future__ import annotations

import json

from repro.obs import Histogram, MetricRegistry


def test_counters_accumulate():
    m = MetricRegistry()
    m.inc("frames")
    m.inc("frames", 4)
    assert m.count("frames") == 5
    assert m.count("never_touched") == 0


def test_gauge_tracks_last_and_high_water():
    m = MetricRegistry()
    for depth in (1, 5, 3):
        m.gauge("queue", depth)
    snap = m.snapshot()["gauges"]["queue"]
    assert snap == {"last": 3, "max": 5}
    assert m.gauge_max("queue") == 5
    assert m.gauge_max("missing") == 0.0


def test_histogram_stats():
    h = Histogram()
    for v in (1.0, 2.0, 3.0, 1000.0):
        h.record(v)
    assert h.count == 4
    assert h.min == 1.0 and h.max == 1000.0
    assert h.mean == 1006.0 / 4
    snap = h.snapshot()
    assert sum(snap["buckets"].values()) == 4
    # 1000 lands alone in the (512, 1024] bucket
    assert snap["buckets"]["le_2^10"] == 1


def test_histogram_handles_zero_and_tiny():
    h = Histogram()
    h.record(0.0)
    h.record(1e-30)
    assert h.count == 2
    assert h.min == 0.0
    assert sum(h.snapshot()["buckets"].values()) == 2


def test_snapshot_is_json_dumpable():
    m = MetricRegistry()
    m.inc("a")
    m.gauge("b", 2)
    m.observe("c", 0.5)
    text = json.dumps(m.snapshot())
    assert '"counters"' in text and '"gauges"' in text
    assert '"histograms"' in text


def test_observe_builds_named_histograms():
    m = MetricRegistry()
    for v in (0.1, 0.2, 0.4):
        m.observe("wait", v)
    hist = m.snapshot()["histograms"]["wait"]
    assert hist["count"] == 3
    assert abs(hist["sum"] - 0.7) < 1e-12


def test_histogram_zero_counts_everywhere():
    """The once-ambiguous edge case, now explicit: a recorded zero
    counts toward count/sum and *is* the minimum."""
    h = Histogram()
    h.record(0.0)
    assert (h.count, h.total, h.min, h.max) == (1, 0.0, 0.0, 0.0)
    h.record(2.0)
    assert h.min == 0.0 and h.max == 2.0
    assert sum(h.snapshot()["buckets"].values()) == 2


def test_metrics_instances_stay_independent():
    a, b = MetricRegistry(), MetricRegistry()
    a.inc("frames")
    assert b.count("frames") == 0


#: Every metric name the PR-1 gateway stack reported; the obs refactor
#: must keep each one spelled identically in the snapshot.
GATEWAY_METRIC_KEYS = (
    "client.connects", "client.streams_acked",
    "egress.bytes_in", "egress.bytes_out", "egress.duplicate_frames",
    "egress.frames_in", "egress.queue_depth", "egress.reorder_depth",
    "egress.reorder_evictions", "egress.serial_fallbacks",
    "egress.stage_wait_seconds",
    "ingress.bytes_in", "ingress.bytes_out", "ingress.frame_ratio",
    "ingress.frames_out", "ingress.queue_depth", "ingress.raw_frames",
    "ingress.serial_fallbacks",
    "ingress.stage_wait_seconds",
    "server.bytes_delivered", "server.connection_errors",
    "server.connections", "server.frames_delivered",
    "server.streams_acked",
)


def test_every_preexisting_gateway_key_still_recordable():
    """Snapshot shape back-compat: the historical key spellings land in
    the historical sections with the historical sub-keys."""
    m = MetricRegistry()
    for name in GATEWAY_METRIC_KEYS:
        if name.endswith(("_seconds", "_ratio")):
            m.observe(name, 0.5)
        elif name.endswith("_depth"):
            m.gauge(name, 2)
        else:
            m.inc(name)
    snap = m.snapshot()
    assert set(snap) == {"counters", "gauges", "histograms"}
    for name in GATEWAY_METRIC_KEYS:
        if name.endswith(("_seconds", "_ratio")):
            hist = snap["histograms"][name]
            assert set(hist) == {"count", "sum", "mean", "min", "max",
                                 "buckets"}
            assert hist["count"] == 1
        elif name.endswith("_depth"):
            assert snap["gauges"][name] == {"last": 2, "max": 2}
        else:
            assert snap["counters"][name] == 1


def test_gateway_keys_survive_into_prometheus_scrape():
    from repro.obs.export import prometheus_text

    m = MetricRegistry()
    for name in GATEWAY_METRIC_KEYS:
        if not name.endswith(("_seconds", "_ratio", "_depth")):
            m.inc(name)
    text = prometheus_text(m.snapshot())
    for name in GATEWAY_METRIC_KEYS:
        if not name.endswith(("_seconds", "_ratio", "_depth")):
            assert f"culzss_{name.replace('.', '_')} 1" in text


def test_gateway_parts_default_to_private_registries():
    from repro import obs
    from repro.service import (
        EgressPipeline,
        GatewayClient,
        GatewayServer,
        IngressPipeline,
    )

    regs = [IngressPipeline(workers=0).metrics, EgressPipeline().metrics,
            GatewayServer().metrics, GatewayClient().metrics]
    assert all(isinstance(r, MetricRegistry) for r in regs)
    assert len({id(r) for r in [*regs, obs.get_registry()]}) == 5
