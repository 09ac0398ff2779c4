"""repro.obs — process-wide observability: metrics, spans, exporters.

One global :class:`MetricRegistry` per process plus a ring-buffered
span log (:mod:`repro.obs.trace`), with exporters for Prometheus text,
JSON, and chrome-trace (:mod:`repro.obs.export`).  Instrumented code
uses the module-level helpers::

    from repro import obs

    obs.inc("matcher.probe_calls")
    with obs.stage("encode.match", chunk=i):   # span + *_seconds histogram
        ...

The helpers check :func:`enabled` first, so a disabled build pays one
attribute load and a truth test per call site.  The switch defaults to
on and reads ``REPRO_OBS`` at import (``0``/``false``/``off`` disable);
:func:`enable`/:func:`disable` flip it at runtime for tests and the
overhead guard.

Cross-process flow (service pool workers): the worker finishes a job,
calls :func:`delta` and ships the result — a picklable dict of metric
diffs plus its drained span ring — back with the job result; the
parent calls :func:`merge_delta`.  Same-process executors are safe to
route through the same path: the registry merge recognises its own pid
and no-ops, and the span ring was drained so re-ingesting restores
rather than duplicates.
"""

from __future__ import annotations

import os
from time import perf_counter

from repro.obs import export, log, prof, slo, trace
from repro.obs.export import (
    chrome_trace,
    collapsed_stacks,
    format_ledger,
    format_pretty,
    json_text,
    ledger,
    merge_snapshots,
    prometheus_text,
    speedscope_doc,
    stage_breakdown,
    write_chrome_trace,
    write_collapsed,
    write_speedscope,
)
from repro.obs.registry import Histogram, MetricRegistry
from repro.obs.trace import Span, new_trace_id, span

__all__ = [
    "Histogram",
    "MetricRegistry",
    "Span",
    "chrome_trace",
    "collapsed_stacks",
    "delta",
    "disable",
    "enable",
    "enabled",
    "export",
    "format_ledger",
    "format_pretty",
    "gauge",
    "get_registry",
    "inc",
    "json_text",
    "ledger",
    "log",
    "merge_delta",
    "merge_snapshots",
    "new_trace_id",
    "observe",
    "prof",
    "prometheus_text",
    "reset",
    "slo",
    "span",
    "speedscope_doc",
    "stage",
    "stage_breakdown",
    "trace",
    "write_chrome_trace",
    "write_collapsed",
    "write_speedscope",
]

#: Counter families the whole stack reports into.  Preregistered so an
#: exporter always shows the full schema — a scrape taken before the
#: first CRC failure still carries ``container.crc_failures 0``.
COUNTER_KEYS = (
    "codec.chunks_lz4s",
    "codec.chunks_lzss",
    "codec.chunks_lzss_huffman",
    "codec.chunks_store",
    "codec.huffman_bytes",
    "codec.store_fallbacks",
    "codecs.choose_bytes",
    "container.crc_checks",
    "container.crc_failures",
    "container.pack_bytes",
    "container.salvage_chunks_lost",
    "container.salvage_chunks_recovered",
    "container.unpack_bytes",
    "decode.stream_bytes",
    "encode.match_bytes",
    "encode.pack_bytes",
    "encode.parse_bytes",
    "engine.shards",
    "matcher.hash_calls",
    "matcher.hash_rounds",
    "matcher.lag_calls",
    "matcher.lag_compares",
    "matcher.probe_calls",
    "matcher.probe_hits",
    "matcher.saturation_exits",
    "model_bytes",
    "transport.send_bytes",
)

#: Histogram families (seconds unless named otherwise), same rationale.
HISTOGRAM_KEYS = (
    "codec.huffman_seconds",
    "codec.ratio_lz4s",
    "codec.ratio_lzss",
    "codec.ratio_lzss_huffman",
    "codec.ratio_store",
    "codecs.choose_seconds",
    "container.pack_seconds",
    "container.unpack_seconds",
    "decode.stream_seconds",
    "encode.match_seconds",
    "encode.pack_seconds",
    "encode.parse_seconds",
    "engine.queue_wait_seconds",
    "engine.shard_seconds",
    "model_seconds",
    "transport.send_seconds",
)

_TRUTHY_OFF = {"0", "false", "off", "no"}
_enabled = os.environ.get("REPRO_OBS", "1").strip().lower() not in _TRUTHY_OFF

_registry = MetricRegistry(preregister=COUNTER_KEYS,
                           preregister_histograms=HISTOGRAM_KEYS)


def enabled() -> bool:
    """Whether instrumentation records anything right now."""
    return _enabled


def enable() -> None:
    global _enabled
    _enabled = True


def disable() -> None:
    global _enabled
    _enabled = False


def get_registry() -> MetricRegistry:
    """The process-global registry all module-level helpers write to."""
    return _registry


def reset() -> None:
    """Fresh global registry, empty span ring, empty profile store
    (test isolation)."""
    global _registry
    _registry = MetricRegistry(preregister=COUNTER_KEYS,
                               preregister_histograms=HISTOGRAM_KEYS)
    trace.clear()
    prof.clear()


# ------------------------------------------------- recording helpers

def inc(name: str, n: int = 1) -> None:
    if _enabled:
        _registry.inc(name, n)


def observe(name: str, value: float) -> None:
    if _enabled:
        _registry.observe(name, value)


def gauge(name: str, value: float) -> None:
    if _enabled:
        _registry.gauge(name, value)


class stage:
    """Span + duration histogram in one: ``with obs.stage("encode.match")``.

    Opens a :func:`trace.span` named ``name`` and, on exit, observes the
    elapsed seconds into the ``{name}_seconds`` histogram.  The
    ``bytes=`` keyword is the throughput-ledger dimension: when given
    and the body returns normally, exit also adds it to the
    ``{name}_bytes`` counter, which is what makes the stage appear in
    :func:`ledger` with an MB/s and a share-of-wall-time.  A body that
    raises still records its seconds (the time was spent) but no bytes
    (they were not processed).

    The ledger's rule: a stage that reports ``bytes=`` never encloses
    another such stage, so no row's time contains another row's.
    Stages that enclose others (``api.*``, ``engine.shard``) report no
    bytes.  A plain class rather than ``@contextmanager`` so the
    disabled path creates no generator.
    """

    __slots__ = ("_name", "_attrs", "_span", "_t0", "_bytes")

    def __init__(self, name: str, *, bytes: int | None = None, **attrs):
        self._name = name
        self._bytes = None if bytes is None else int(bytes)
        if self._bytes is not None:
            attrs["bytes"] = self._bytes
        self._attrs = attrs
        self._span = trace.span(name, **attrs) if _enabled else None
        self._t0 = 0.0

    def __enter__(self):
        if self._span is not None:
            self._span.__enter__()
            self._t0 = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._span is not None:
            _registry.observe(f"{self._name}_seconds",
                              perf_counter() - self._t0)
            if self._bytes is not None and exc_type is None:
                _registry.inc(f"{self._name}_bytes", self._bytes)
            self._span.__exit__(exc_type, exc, tb)
        return False


# ------------------------------------------------- cross-process flow

def delta() -> dict:
    """Picklable package of everything recorded since the last delta.

    The worker side of the pool handoff: metric diffs from the global
    registry, the drained span ring, and the drained profiler samples
    (``None`` unless a sampler ran — see :mod:`repro.obs.prof`).  Ship
    it with the job result.
    """
    return {"metrics": _registry.delta_snapshot(), "spans": trace.drain(),
            "profile": prof.drain()}


def merge_delta(payload: dict | None) -> None:
    """Fold a worker's :func:`delta` into this process.

    Metric diffs merge through the registry (which drops same-pid
    deltas — an inline executor's writes already landed here); spans
    and profile samples always re-ingest, because :func:`delta` drained
    them from whichever process recorded them.
    """
    if not payload:
        return
    _registry.merge(payload.get("metrics"))
    trace.ingest(payload.get("spans"))
    prof.ingest(payload.get("profile"))
