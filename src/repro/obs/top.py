"""``culzss top`` — live terminal dashboard over the metrics sidecar.

Polls ``/metrics.json`` and ``/slo.json`` on a gateway's sidecar port
and renders throughput, queue depths, latency quantiles, degraded-mode
counters, per-codec dispatch tallies, and SLO state.  Rates are first differences between
consecutive polls — the sidecar serves monotonic counters, so the
dashboard owns the windowing.

Two render paths share one layout function:

* **plain** (``--plain``, or any non-tty stdout): each refresh prints
  one block; pipe-friendly and what the tests drive.
* **curses**: full-screen, redrawn in place, ``q`` quits.

Everything here degrades gracefully: an unreachable sidecar renders a
"waiting for sidecar" banner and keeps polling rather than dying —
``top`` outliving a gateway restart is the point of a dashboard.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from time import monotonic, sleep, time as wall_time

from repro.obs.slo import quantile_from_hist

__all__ = ["fetch_json", "render", "run_top"]


def fetch_json(host: str, port: int, path: str,
               timeout: float = 2.0) -> dict | None:
    """One sidecar GET; ``None`` on any transport or parse failure."""
    url = f"http://{host}:{port}{path}"
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return json.loads(resp.read().decode())
    except (urllib.error.URLError, OSError, ValueError, TimeoutError):
        return None


# ------------------------------------------------------------- layout

def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if abs(n) < 1000:
            return f"{n:7.1f} {unit}"
        n /= 1000
    return f"{n:7.1f} TB"


def _rate(cur: dict, prev: dict | None, key: str, dt: float) -> float:
    if not prev or dt <= 0:
        return 0.0
    delta = (cur.get("counters", {}).get(key, 0)
             - prev.get("counters", {}).get(key, 0))
    return max(0.0, delta / dt)


def _counter(snap: dict, key: str) -> int:
    return int(snap.get("counters", {}).get(key, 0))


def _gauge(snap: dict, key: str) -> float | None:
    g = snap.get("gauges", {}).get(key)
    return None if g is None else g.get("last")


def _quantile(snap: dict, hist: str, q: float) -> float | None:
    h = snap.get("histograms", {}).get(hist)
    return None if h is None else quantile_from_hist(h, q)


def _ms(v: float | None) -> str:
    return "     -" if v is None else f"{v * 1e3:6.1f}"


def render(snap: dict | None, slo_report: dict | None, *,
           prev: dict | None = None, dt: float = 0.0,
           width: int = 78) -> str:
    """One dashboard frame as text (shared by plain and curses modes)."""
    bar = "─" * width
    lines = [f"culzss top — {wall_time():.0f}".ljust(width - 12)
             + "q to quit"]
    lines.append(bar)
    if snap is None:
        lines.append("waiting for sidecar (connection failed; retrying)")
        return "\n".join(lines)

    lines.append("throughput (since last poll)")
    for stage in ("ingress", "egress"):
        bin_ = _rate(snap, prev, f"{stage}.bytes_in", dt)
        bout = _rate(snap, prev, f"{stage}.bytes_out", dt)
        frames = _rate(snap, prev,
                       f"{stage}.frames_out" if stage == "ingress"
                       else f"{stage}.frames_in", dt)
        lines.append(f"  {stage:<8} in {_fmt_bytes(bin_)}/s   "
                     f"out {_fmt_bytes(bout)}/s   "
                     f"{frames:7.1f} frames/s")
    lines.append(f"  served   {_counter(snap, 'server.connections'):6d} "
                 f"conns   {_counter(snap, 'server.frames_delivered'):6d} "
                 f"frames   "
                 f"{_counter(snap, 'server.bytes_delivered'):10d} bytes")

    lines.append("queues / latency (stage wait, ms)")
    for stage in ("ingress", "egress"):
        depth = _gauge(snap, f"{stage}.queue_depth")
        hist = f"{stage}.stage_wait_seconds"
        lines.append(
            f"  {stage:<8} depth "
            f"{'-' if depth is None else int(depth):>3}   "
            f"p50 {_ms(_quantile(snap, hist, 0.50))}   "
            f"p99 {_ms(_quantile(snap, hist, 0.99))}")

    lines.append("degraded modes (totals)")
    crash = sum(_counter(snap, f"{s}.worker_crashes")
                for s in ("ingress", "egress"))
    serial = sum(_counter(snap, f"{s}.serial_fallbacks")
                 for s in ("ingress", "egress"))
    lines.append(f"  crashes {crash:5d}   serial-fallbacks {serial:5d}")
    lines.append(f"  conn-errors "
                 f"{_counter(snap, 'server.connection_errors'):5d}   "
                 f"salvage-lost "
                 f"{_counter(snap, 'container.salvage_chunks_lost'):5d}   "
                 f"crc-fails "
                 f"{_counter(snap, 'container.crc_failures'):5d}")

    lines.append("codecs (chunks per codec, auto dispatch)")
    codec_keys = ("store", "lzss", "lz4s", "lzss_huffman")
    if not any(_counter(snap, f"codec.chunks_{k}") for k in codec_keys):
        lines.append("  (no codec dispatch recorded)")
    else:
        for key in codec_keys:
            chunks = _counter(snap, f"codec.chunks_{key}")
            rate = _rate(snap, prev, f"codec.chunks_{key}", dt)
            p50 = _quantile(snap, f"codec.ratio_{key}", 0.50)
            ratio = "    -" if p50 is None else f"{p50:5.2f}"
            lines.append(f"  {key:<13} {chunks:8d} chunks   "
                         f"{rate:7.1f}/s   ratio p50 {ratio}")
        lines.append(f"  store-fallbacks "
                     f"{_counter(snap, 'codec.store_fallbacks'):5d}")

    lines.append("slo")
    if not slo_report:
        lines.append("  (no /slo.json from sidecar)")
    else:
        for obj in slo_report.get("objectives", []):
            state = ("ALERT" if obj.get("alerting")
                     else ("ok" if obj.get("ok") else "BREACH"))
            burns = "  ".join(
                f"{k}:{w['burn'] if w['burn'] is not None else '-'}"
                for k, w in sorted(obj.get("windows", {}).items()))
            lines.append(f"  {obj['name']:<20} {state:<7} "
                         f"bad {obj.get('bad_fraction', 0):<9} "
                         f"burn {burns}")
    return "\n".join(lines)


# ------------------------------------------------------------- driving

def run_top(host: str, port: int, *, interval: float = 2.0,
            iterations: int | None = None, plain: bool = False,
            out=print) -> int:
    """Poll-and-render loop; returns an exit code.

    ``iterations`` bounds the refresh count (tests and one-shot
    inspection); ``None`` runs until interrupted.  Curses is attempted
    only for interactive, unbounded, non-plain runs.
    """
    if plain or iterations is not None:
        return _run_plain(host, port, interval=interval,
                          iterations=iterations, out=out)
    try:
        import curses
    except ImportError:  # pragma: no cover - curses ships with CPython
        return _run_plain(host, port, interval=interval,
                          iterations=None, out=out)
    try:
        return curses.wrapper(
            lambda scr: _run_curses(scr, host, port, interval=interval))
    except KeyboardInterrupt:
        return 0


def _poll(host: str, port: int) -> tuple[dict | None, dict | None]:
    return (fetch_json(host, port, "/metrics.json"),
            fetch_json(host, port, "/slo.json"))


def _run_plain(host: str, port: int, *, interval: float,
               iterations: int | None, out) -> int:
    prev, prev_t = None, None
    n = 0
    try:
        while iterations is None or n < iterations:
            snap, slo_report = _poll(host, port)
            now = monotonic()
            dt = (now - prev_t) if prev_t is not None else 0.0
            out(render(snap, slo_report, prev=prev, dt=dt))
            out("")
            prev, prev_t = snap, now
            n += 1
            if iterations is None or n < iterations:
                sleep(interval)
    except KeyboardInterrupt:
        pass
    return 0


def _run_curses(scr, host: str, port: int, *,
                interval: float) -> int:  # pragma: no cover - needs a tty
    import curses

    curses.curs_set(0)
    scr.timeout(int(interval * 1000))
    prev, prev_t = None, None
    while True:
        snap, slo_report = _poll(host, port)
        now = monotonic()
        dt = (now - prev_t) if prev_t is not None else 0.0
        text = render(snap, slo_report, prev=prev, dt=dt,
                      width=max(20, scr.getmaxyx()[1] - 1))
        scr.erase()
        max_y = scr.getmaxyx()[0]
        for i, line in enumerate(text.splitlines()):
            if i >= max_y - 1:
                break
            try:
                scr.addnstr(i, 0, line, scr.getmaxyx()[1] - 1)
            except curses.error:
                pass
        scr.refresh()
        prev, prev_t = snap, now
        ch = scr.getch()
        if ch in (ord("q"), ord("Q")):
            return 0
