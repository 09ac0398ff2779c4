"""Exporters: Prometheus text exposition, JSON, chrome-trace.

Three consumers, three formats:

* :func:`prometheus_text` renders a registry snapshot in the
  Prometheus text exposition format (v0.0.4) — sanitized metric names
  under one prefix, counters as counters, gauges as ``_last``/``_max``
  pairs, and the log-bucket histograms as classic cumulative-``le``
  Prometheus histograms.  The gateway's ``/metrics`` sidecar serves
  exactly this.
* :func:`json_text` is the same snapshot as indented JSON — what the
  CLI prints and what ``/metrics.json`` serves.
* :func:`chrome_trace` converts a span list into the Chrome trace
  event format (``chrome://tracing`` / Perfetto "traceEvents" JSON):
  complete (``"ph": "X"``) events keyed by pid/tid, so nesting renders
  from containment and pool-worker spans appear on their own rows.

:func:`merge_snapshots` combines registry snapshots (e.g. the process
global registry plus a gateway's private one) into one export.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

__all__ = [
    "chrome_trace",
    "collapsed_stacks",
    "format_ledger",
    "format_pretty",
    "json_text",
    "ledger",
    "merge_snapshots",
    "prometheus_text",
    "speedscope_doc",
    "stage_breakdown",
    "write_chrome_trace",
    "write_collapsed",
    "write_speedscope",
]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")
_BUCKET_RE = re.compile(r"^le_2\^(-?\d+)$")


def _sanitize(name: str) -> str:
    return "culzss_" + _NAME_RE.sub("_", name)


def _escape_help(text: str) -> str:
    """v0.0.4 HELP escaping: backslash and line feed.

    Metric names are code-authored today, but HELP text embeds them
    verbatim — one stray newline would otherwise split the line and
    corrupt the whole exposition for every scraper.
    """
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    """v0.0.4 label-value escaping: backslash, double-quote, line feed."""
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def merge_snapshots(*snapshots: dict) -> dict:
    """Combine registry snapshots: counters add, gauges high-water,
    histograms merge bucket-wise."""
    out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    for snap in snapshots:
        for name, v in snap.get("counters", {}).items():
            out["counters"][name] = out["counters"].get(name, 0) + v
        for name, g in snap.get("gauges", {}).items():
            cur = out["gauges"].setdefault(name, dict(g))
            cur["last"] = g["last"]
            cur["max"] = max(cur["max"], g["max"])
        for name, h in snap.get("histograms", {}).items():
            cur = out["histograms"].get(name)
            if cur is None:
                out["histograms"][name] = {**h, "buckets": dict(h["buckets"])}
                continue
            cur["count"] += h["count"]
            cur["sum"] += h["sum"]
            for edge, pick in (("min", min), ("max", max)):
                if h[edge] is not None:
                    cur[edge] = (h[edge] if cur[edge] is None
                                 else pick(cur[edge], h[edge]))
            for b, n in h["buckets"].items():
                cur["buckets"][b] = cur["buckets"].get(b, 0) + n
            cur["mean"] = cur["sum"] / cur["count"] if cur["count"] else 0.0
    return out


def prometheus_text(snapshot: dict) -> str:
    """Render one (possibly merged) snapshot as Prometheus exposition.

    Dotted metric names sanitize to underscores under the ``culzss_``
    prefix (``ingress.frames_out`` → ``culzss_ingress_frames_out``);
    the original key is preserved in the ``# HELP`` line so a scrape is
    greppable by either spelling.
    """
    lines: list[str] = []
    for name in sorted(snapshot.get("counters", {})):
        m = _sanitize(name)
        lines += [f"# HELP {m} counter {_escape_help(name)}",
                  f"# TYPE {m} counter",
                  f"{m} {snapshot['counters'][name]}"]
    for name in sorted(snapshot.get("gauges", {})):
        g = snapshot["gauges"][name]
        m = _sanitize(name)
        lines += [f"# HELP {m} gauge {_escape_help(name)} "
                  "(last reading / high water)",
                  f"# TYPE {m}_last gauge", f"{m}_last {g['last']}",
                  f"# TYPE {m}_max gauge", f"{m}_max {g['max']}"]
    for name in sorted(snapshot.get("histograms", {})):
        h = snapshot["histograms"][name]
        m = _sanitize(name)
        lines += [f"# HELP {m} histogram {_escape_help(name)}",
                  f"# TYPE {m} histogram"]
        cum = 0
        for bucket in sorted(h.get("buckets", {}),
                             key=lambda b: int(_BUCKET_RE.match(b).group(1))):
            exp = int(_BUCKET_RE.match(bucket).group(1))
            cum += h["buckets"][bucket]
            le = _escape_label(f"{2.0 ** exp:g}")
            lines.append(f'{m}_bucket{{le="{le}"}} {cum}')
        # _sum/_count (and the +Inf bucket) are emitted even for an
        # empty histogram: scrapers need the series to exist before the
        # first observation or rate() windows start with gaps.
        lines.append(f'{m}_bucket{{le="+Inf"}} {h["count"]}')
        lines.append(f"{m}_sum {h['sum']}")
        lines.append(f"{m}_count {h['count']}")
    return "\n".join(lines) + "\n"


def json_text(snapshot: dict) -> str:
    return json.dumps(snapshot, indent=2, sort_keys=True)


def format_pretty(snapshot: dict) -> str:
    """Aligned human-readable dump (the ``culzss stats`` default)."""
    lines: list[str] = []
    counters = snapshot.get("counters", {})
    if counters:
        lines.append("counters:")
        width = max(len(k) for k in counters)
        lines += [f"  {k:<{width}}  {counters[k]}" for k in sorted(counters)]
    gauges = snapshot.get("gauges", {})
    if gauges:
        lines.append("gauges:")
        width = max(len(k) for k in gauges)
        lines += [f"  {k:<{width}}  last={gauges[k]['last']:g} "
                  f"max={gauges[k]['max']:g}" for k in sorted(gauges)]
    hists = snapshot.get("histograms", {})
    if hists:
        lines.append("histograms:")
        width = max(len(k) for k in hists)
        for k in sorted(hists):
            h = hists[k]
            lines.append(
                f"  {k:<{width}}  n={h['count']} mean={h['mean']:.6g} "
                f"min={h['min'] if h['min'] is not None else '-'} "
                f"max={h['max'] if h['max'] is not None else '-'}")
    return "\n".join(lines) or "(no metrics recorded)"


# ---------------------------------------------------------- chrome trace

def chrome_trace(spans) -> dict:
    """Span records → a ``chrome://tracing`` / Perfetto JSON document.

    Complete events (``ph: "X"``) carry microsecond timestamps straight
    from ``perf_counter``; rows group by pid (process) and the
    recording thread's name, which is what makes parent/child nesting
    visible — a child span's interval sits inside its parent's on the
    same row.  Trace/span/parent ids travel in ``args`` for tooling.
    """
    events = []
    for s in spans:
        events.append({
            "name": s.name,
            "cat": "repro",
            "ph": "X",
            "ts": s.start * 1e6,
            "dur": s.duration * 1e6,
            "pid": s.pid,
            "tid": s.thread,
            "args": {"trace_id": s.trace_id, "span_id": s.span_id,
                     "parent_id": s.parent_id, **s.attrs},
        })
    events.sort(key=lambda e: e["ts"])
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, spans) -> Path:
    """Dump :func:`chrome_trace` to ``path``; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(chrome_trace(spans), indent=1))
    return path


# ----------------------------------------------------- profiler exports

def collapsed_stacks(profiles: dict[int, dict]) -> str:
    """``prof.profiles()`` → Brendan Gregg folded text, summed across pids.

    One line per unique stack — ``root;caller;leaf count`` — ready for
    ``flamegraph.pl`` or any folded-stack consumer.  Sorted by count
    descending so the hottest path is the first line.
    """
    flat: dict[str, int] = {}
    for slot in profiles.values():
        for stack, n in slot.get("samples", {}).items():
            flat[stack] = flat.get(stack, 0) + n
    lines = [f"{stack} {n}" for stack, n in
             sorted(flat.items(), key=lambda kv: (-kv[1], kv[0]))]
    return "\n".join(lines) + ("\n" if lines else "")


def speedscope_doc(profiles: dict[int, dict], *, name: str = "culzss") -> dict:
    """``prof.profiles()`` → a speedscope file-format document.

    One *sampled* profile per pid — the parent process and each pool
    worker appear side by side in speedscope's profile picker, sharing
    one frame table.  Weights are seconds (``count / hz``), so the
    flamegraph x-axis reads as wall time.
    """
    frame_index: dict[str, int] = {}
    frames: list[dict] = []

    def _idx(label: str) -> int:
        i = frame_index.get(label)
        if i is None:
            i = frame_index[label] = len(frames)
            frames.append({"name": label})
        return i

    docs = []
    for pid in sorted(profiles):
        slot = profiles[pid]
        hz = float(slot.get("hz") or 1.0)
        samples, weights = [], []
        total = 0.0
        for stack, n in sorted(slot.get("samples", {}).items()):
            samples.append([_idx(label) for label in stack.split(";")])
            w = n / hz
            weights.append(w)
            total += w
        docs.append({
            "type": "sampled",
            "name": f"pid {pid}",
            "unit": "seconds",
            "startValue": 0,
            "endValue": total,
            "samples": samples,
            "weights": weights,
        })
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "name": name,
        "exporter": "culzss-obs",
        "activeProfileIndex": 0,
        "shared": {"frames": frames},
        "profiles": docs,
    }


def write_speedscope(path, profiles: dict[int, dict]) -> Path:
    """Dump :func:`speedscope_doc` (named ``culzss``) to ``path``;
    returns the path."""
    path = Path(path)
    path.write_text(json.dumps(speedscope_doc(profiles)))
    return path


def write_collapsed(path, profiles: dict[int, dict]) -> Path:
    """Dump :func:`collapsed_stacks` to ``path``; returns the path."""
    path = Path(path)
    path.write_text(collapsed_stacks(profiles))
    return path


# ---------------------------------------------------- throughput ledger

def ledger(snapshot: dict) -> list[dict]:
    """Per-stage throughput rows from one (possibly merged) snapshot.

    A stage joins the ledger when it reports the ``bytes=`` dimension —
    i.e. a ``{stage}_bytes`` counter exists alongside a populated
    ``{stage}_seconds`` histogram.  Those stages (``encode.match``/
    ``parse``/``pack``, ``codec.huffman``, ``codecs.choose``,
    ``decode.stream``, ``container.pack``/``unpack``, ``model``,
    ``transport.send``) are disjoint: a stage that reports ``bytes=``
    never encloses another one, and wrapper stages (``api.*``,
    ``engine.shard``) report no bytes.  So the rows' seconds sum to at
    most the wall time, and ``share`` — this stage's fraction of the
    summed ledger seconds — reads as share-of-wall-time.  Bytes count
    only for bodies that returned normally.  Rows sort by seconds
    descending: the first row is where the time went.
    """
    counters = snapshot.get("counters", {})
    hists = snapshot.get("histograms", {})
    rows = []
    for cname in counters:
        if not cname.endswith("_bytes"):
            continue
        stage = cname[: -len("_bytes")]
        h = hists.get(f"{stage}_seconds")
        if not h or not h.get("count"):
            continue
        seconds = float(h["sum"])
        nbytes = int(counters[cname])
        rows.append({
            "stage": stage,
            "bytes": nbytes,
            "seconds": seconds,
            "calls": int(h["count"]),
            "mb_s": (nbytes / seconds / 1e6) if seconds > 0 else 0.0,
        })
    total = sum(r["seconds"] for r in rows)
    for r in rows:
        r["share"] = (r["seconds"] / total) if total > 0 else 0.0
    rows.sort(key=lambda r: (-r["seconds"], r["stage"]))
    return rows


def format_ledger(rows: list[dict]) -> str:
    """Aligned table for :func:`ledger` rows (``culzss stats`` / benchgate)."""
    if not rows:
        return "(no per-stage byte accounting recorded)"
    width = max(len(r["stage"]) for r in rows)
    lines = [f"{'stage':<{width}}  {'share':>6}  {'seconds':>9}  "
             f"{'MB/s':>8}  {'bytes':>12}  {'calls':>7}"]
    for r in rows:
        lines.append(
            f"{r['stage']:<{width}}  {r['share'] * 100:5.1f}%  "
            f"{r['seconds']:9.4f}  {r['mb_s']:8.2f}  "
            f"{r['bytes']:12d}  {r['calls']:7d}")
    return "\n".join(lines)


def stage_breakdown(before: dict, after: dict) -> dict[str, dict]:
    """:func:`ledger` of what was recorded between two registry snapshots.

    The benchgate capture primitive: snapshot around one case's
    measurement and keep only what that case spent.  The ledger runs
    over the difference of the two snapshots' counters and histogram
    count/sum, so its row rule is the only one.  Returns ``{stage:
    row}`` (``seconds``, ``bytes``, ``calls``, ``mb_s``, ``share``) for
    the stages active in the window.
    """
    b_counters = before.get("counters", {})
    b_hists = before.get("histograms", {})
    counters = {name: total - b_counters.get(name, 0)
                for name, total in after.get("counters", {}).items()}
    hists = {}
    for name, h in after.get("histograms", {}).items():
        b = b_hists.get(name) or {"count": 0, "sum": 0.0}
        hists[name] = {"count": h["count"] - b["count"],
                       "sum": h["sum"] - b["sum"]}
    rows = ledger({"counters": counters, "histograms": hists})
    return {row.pop("stage"): row for row in rows}
