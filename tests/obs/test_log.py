"""Structured JSON logging: formatting, trace correlation, rate limits."""

from __future__ import annotations

import io
import json
import logging

import pytest

from repro.obs import log as obslog
from repro.obs import trace


@pytest.fixture(autouse=True)
def clean_rate_limits():
    obslog.reset_rate_limits()
    yield
    obslog.reset_rate_limits()


def test_event_emits_one_parseable_json_line():
    with obslog.capture() as cap:
        obslog.event("service", "worker_crash", stage="ingress",
                     trace_id=7, pool_rebuilt_before=False)
    assert len(cap.lines()) == 1
    doc = json.loads(cap.lines()[0])
    assert doc["event"] == "worker_crash"
    assert doc["logger"] == "repro.service"
    assert doc["level"] == "warning"
    assert doc["stage"] == "ingress"
    assert doc["trace_id"] == 7
    assert doc["pool_rebuilt_before"] is False
    assert isinstance(doc["ts"], float) and doc["ts"] > 0
    assert doc["pid"] > 0


def test_trace_id_injected_from_active_span():
    tid = trace.new_trace_id()
    with obslog.capture() as cap:
        with trace.span("frame", trace_id=tid):
            obslog.event("container", "salvage", lost=1)
    (doc,) = cap.events()
    assert doc["trace_id"] == tid
    assert doc["span_id"] != 0
    assert doc["lost"] == 1


def test_explicit_trace_id_wins_over_context():
    with obslog.capture() as cap:
        with trace.span("frame"):
            obslog.event("service", "worker_crash", trace_id=1234)
    (doc,) = cap.events()
    assert doc["trace_id"] == 1234


def test_no_span_no_explicit_id_gives_zero():
    with obslog.capture() as cap:
        obslog.event("engine", "worker_crash")
    (doc,) = cap.events()
    assert doc["trace_id"] == 0


def test_embedded_newlines_stay_one_line():
    with obslog.capture() as cap:
        obslog.event("service", "connection_error",
                     exc="line one\nline two")
    assert len(cap.lines()) == 1
    assert json.loads(cap.lines()[0])["exc"] == "line one\nline two"


def test_warn_limited_suppresses_repeats_and_counts_them():
    with obslog.capture() as cap:
        assert obslog.warn_limited("service", "serial_fallback", size=1)
        for _ in range(5):
            assert not obslog.warn_limited("service", "serial_fallback", size=1)
    assert len(cap.events()) == 1

    obslog.reset_rate_limits()
    # pre-seed a window with drops, then emit after it expires
    obslog.warn_limited("service", "serial_fallback", interval=0.0)
    with obslog.capture() as cap:
        # interval 0: the previous window is already over; the dropped
        # count (zero drops happened) is not attached
        assert obslog.warn_limited("service", "serial_fallback", interval=0.0)
    (doc,) = cap.events()
    assert "suppressed" not in doc


def test_warn_limited_reports_suppressed_count_on_next_emit():
    obslog.warn_limited("service", "retry", op="connect")  # opens window
    for _ in range(3):
        obslog.warn_limited("service", "retry", op="connect")  # dropped
    # force the window open again without waiting out the interval
    with obslog._RATE_LOCK:
        start, dropped = obslog._RATE_STATE["service.retry"]
        obslog._RATE_STATE["service.retry"] = (start - 10.0, dropped)
    with obslog.capture() as cap:
        assert obslog.warn_limited("service", "retry", op="connect")
    (doc,) = cap.events()
    assert doc["suppressed"] == 3


def test_distinct_keys_rate_limit_independently():
    with obslog.capture() as cap:
        assert obslog.warn_limited("service", "serial_fallback")
        assert obslog.warn_limited("service", "retry")
    assert len(cap.events()) == 2


def test_configure_is_idempotent_and_writes_json():
    stream = io.StringIO()
    h1 = obslog.configure(stream)
    h2 = obslog.configure(stream)
    try:
        root = logging.getLogger(obslog.ROOT)
        json_handlers = [h for h in root.handlers
                         if isinstance(getattr(h, "formatter", None),
                                       obslog.JsonFormatter)]
        assert json_handlers == [h2] and h1 is not h2
        obslog.event("service", "worker_crash", stage="egress")
        doc = json.loads(stream.getvalue().splitlines()[0])
        assert doc["event"] == "worker_crash"
    finally:
        logging.getLogger(obslog.ROOT).removeHandler(h2)
        obslog._configured_handler = None


def test_exception_info_is_structured():
    logger = obslog.get_logger("service")
    with obslog.capture() as cap:
        try:
            raise ValueError("boom")
        except ValueError:
            logger.warning("connection_error", exc_info=True)
    (doc,) = cap.events()
    assert doc["exc_type"] == "ValueError"
    assert doc["exc"] == "boom"


def test_unconfigured_process_emits_nothing(capsys):
    # NullHandler etiquette: no handler installed -> no stderr noise
    obslog.event("service", "worker_crash", stage="ingress")
    captured = capsys.readouterr()
    assert "worker_crash" not in captured.err
    assert "worker_crash" not in captured.out


def test_get_logger_namespaces_under_repro():
    assert obslog.get_logger("engine").name == "repro.engine"
    assert obslog.get_logger("repro.engine").name == "repro.engine"
    assert obslog.get_logger("repro").name == "repro"
