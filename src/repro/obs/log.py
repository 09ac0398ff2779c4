"""Structured logging: JSON lines, trace-correlated, rate-limited.

Every degraded-mode branch in the stack — a pool worker dying, a frame
falling back to the serial path, a salvage decode filling lost chunks —
emits exactly **one** structured event through this module, so an
operator tailing the log can answer "what exactly degraded, on which trace?" without reading
counters.  Built on stdlib :mod:`logging` (handlers, levels and
propagation behave the way every Python operator expects) with three
additions:

* **JSON lines** — :class:`JsonFormatter` renders one compact JSON
  object per record: ``ts``, ``level``, ``logger``, ``event``, the
  event's structured fields, and the trace context.  A line is always
  one line (embedded newlines are escaped by ``json.dumps``), so
  ``jq`` and log shippers never see a torn record.
* **Trace correlation** — the formatter injects ``trace_id`` and
  ``span_id`` from the active :mod:`repro.obs.trace` span contextvar
  unless the call site passed an explicit ``trace_id`` (the pipeline
  does, because the frame's id is in hand while the worker that owned
  the span is dead).  Log lines and chrome-trace spans join on the id.
* **Rate limiting** — :func:`warn_limited` suppresses repeats of the
  same event key inside a window, so a crash loop emits one warning
  plus a suppression count instead of a line per frame.

Call sites use :func:`event`::

    from repro.obs import log as obslog

    obslog.event("service", "worker_crash", stage="ingress", trace_id=tid)

which logs at WARNING through the ``repro.service`` logger.  Nothing is
emitted unless a handler is installed: :func:`configure` (the
``culzss serve --log-json`` path, also triggered by ``REPRO_LOG_JSON=1``
at import) attaches a stderr JSON handler to the ``repro`` root;
:func:`capture` scopes an in-memory handler for tests.
"""

from __future__ import annotations

import io
import json
import logging
import os
import threading
from time import monotonic

from repro.obs import trace

__all__ = [
    "JsonFormatter",
    "capture",
    "configure",
    "event",
    "get_logger",
    "reset_rate_limits",
    "warn_limited",
]

#: Root of the logger namespace every repro layer logs under.
ROOT = "repro"

# Library etiquette: without this, stdlib's lastResort handler would
# print bare event names to stderr in unconfigured processes.
logging.getLogger(ROOT).addHandler(logging.NullHandler())

#: LogRecord attributes that are plumbing, not event fields.
_RESERVED = frozenset(vars(logging.makeLogRecord({}))) | {"message"}


class JsonFormatter(logging.Formatter):
    """One JSON object per record, keys in stable order.

    Layout: ``ts`` (unix seconds), ``level``, ``logger``, ``event``
    (the record message), then every ``extra`` field the call site
    attached, then ``trace_id``/``span_id`` — from the ``extra`` when
    given, from the active span contextvar otherwise — and ``pid``.
    """

    def format(self, record: logging.LogRecord) -> str:
        doc: dict = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "event": record.getMessage(),
        }
        for key, value in vars(record).items():
            if key in _RESERVED or key in doc:
                continue
            doc[key] = value
        if "trace_id" not in doc or not doc["trace_id"]:
            ctx = trace.current()
            doc["trace_id"] = ctx[0] if ctx else 0
            if ctx:
                doc.setdefault("span_id", ctx[1])
        doc["pid"] = record.process
        if record.exc_info and record.exc_info[0] is not None:
            doc["exc_type"] = record.exc_info[0].__name__
            doc["exc"] = str(record.exc_info[1])
        return json.dumps(doc, default=str, separators=(", ", ": "))


def get_logger(name: str) -> logging.Logger:
    """The ``repro.<name>`` logger (idempotent; stdlib caches it)."""
    if name == ROOT or name.startswith(ROOT + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT}.{name}")


def event(layer: str, name: str, **fields) -> None:
    """Emit one structured event at WARNING through the
    ``repro.<layer>`` logger.

    ``fields`` become top-level JSON keys; pass ``trace_id=`` explicitly
    when the active span context does not carry the right trace (e.g.
    the frame's worker died — its span died with it, but the frame id
    is still in hand).
    """
    get_logger(layer).warning(name, extra=fields)


# ---------------------------------------------------------- rate limits

_RATE_LOCK = threading.Lock()
#: key -> (window_start_monotonic, suppressed_since_last_emit)
_RATE_STATE: dict[str, tuple[float, int]] = {}


def warn_limited(layer: str, name: str, *, interval: float = 5.0,
                 **fields) -> bool:
    """:func:`event`, but at most once per ``interval`` seconds per
    ``(layer, name)`` key.

    The first event of a window emits immediately (carrying a
    ``suppressed`` count of earlier drops, when any); repeats inside
    the window are counted and dropped.  Returns whether a line was
    emitted — degraded-mode *counters* must still be bumped by the
    caller either way; only the log line is rate-limited.
    """
    key = f"{layer}.{name}"
    now = monotonic()
    with _RATE_LOCK:
        start, dropped = _RATE_STATE.get(key, (-interval, 0))
        if now - start < interval:
            _RATE_STATE[key] = (start, dropped + 1)
            return False
        _RATE_STATE[key] = (now, 0)
    if dropped:
        fields["suppressed"] = dropped
    event(layer, name, **fields)
    return True


def reset_rate_limits() -> None:
    """Forget every rate-limit window (test isolation)."""
    with _RATE_LOCK:
        _RATE_STATE.clear()


# ----------------------------------------------------------- configure

_configured_handler: logging.Handler | None = None


def configure(stream=None) -> logging.Handler:
    """Attach one JSON-lines handler to the ``repro`` root logger and
    set that logger's level to INFO.

    Idempotent: a second call replaces the previous handler (so tests
    and long-lived processes never stack duplicates).  ``stream``
    defaults to stderr, keeping stdout clean for command output.
    """
    global _configured_handler
    root = logging.getLogger(ROOT)
    if _configured_handler is not None:
        root.removeHandler(_configured_handler)
    handler = logging.StreamHandler(stream)  # None -> stderr
    handler.setFormatter(JsonFormatter())
    root.addHandler(handler)
    root.setLevel(logging.INFO)
    _configured_handler = handler
    return handler


class capture:
    """Scoped in-memory JSON log capture (the test harness)::

        with obslog.capture() as cap:
            ...
        assert cap.events()[0]["event"] == "worker_crash"

    The ``repro`` root logger passes INFO and up while the block runs.
    """

    def __init__(self) -> None:
        self._buffer = io.StringIO()
        self._handler = logging.StreamHandler(self._buffer)
        self._handler.setFormatter(JsonFormatter())
        self._prev_level: int | None = None

    def __enter__(self) -> "capture":
        root = logging.getLogger(ROOT)
        self._prev_level = root.level
        root.addHandler(self._handler)
        root.setLevel(min(logging.INFO, root.level or logging.INFO))
        return self

    def __exit__(self, *exc) -> None:
        root = logging.getLogger(ROOT)
        root.removeHandler(self._handler)
        root.setLevel(self._prev_level)

    @property
    def text(self) -> str:
        return self._buffer.getvalue()

    def lines(self) -> list[str]:
        return [ln for ln in self.text.splitlines() if ln.strip()]

    def events(self) -> list[dict]:
        return [json.loads(ln) for ln in self.lines()]


_TRUTHY = {"1", "true", "on", "yes"}
if os.environ.get("REPRO_LOG_JSON", "").strip().lower() in _TRUTHY:
    configure()
