"""Sampling profiler: a threading-based stack sampler with cross-process merge.

The forensics counterpart to :mod:`repro.obs.trace` — spans say *which
stage* was slow, the profiler says *which code*.  A daemon thread wakes
``hz`` times per second, walks every other thread's frame stack via
``sys._current_frames()``, and accumulates collapsed-stack counts
(``"root;caller;leaf" -> samples``, the Brendan Gregg folded format).
Exporters in :mod:`repro.obs.export` turn those counts into speedscope
documents and ``.collapsed`` text.

Cross-process story mirrors the metric registry: pool workers run their
own sampler (started from the ``REPRO_PROFILE_HZ`` environment variable,
either by the :func:`init_worker` pool initializer or lazily on the
first :func:`drain`), and :func:`drain` emits a picklable payload that
rides home inside ``obs.delta()`` next to the metric delta snapshot.
The parent :func:`ingest`\\ s payloads keyed by pid, so one speedscope
export covers the parent *and* every worker as separate profiles.

Overhead: the sampled threads pay nothing directly — only the sampler
thread walks stacks, briefly holding the GIL.  At the default ~97 Hz a
walk costs tens of microseconds, well under 1% of wall time; the
overhead guard in ``tests/obs/test_prof.py`` enforces a 10% ceiling.
"""

from __future__ import annotations

import os
import sys
import threading
from os.path import basename
from time import perf_counter

__all__ = [
    "DEFAULT_HZ",
    "ENV_HZ",
    "SamplingProfiler",
    "clear",
    "diff_profiles",
    "drain",
    "export",
    "ingest",
    "init_worker",
    "maybe_start_from_env",
    "profiles",
    "running",
    "samples",
    "start",
    "stop",
]

# Deliberately not a round number: a 100 Hz sampler locks step with
# 10 ms timers and periodic work, systematically over- or under-sampling
# them.  97 is prime and close enough to "about 100 samples a second".
DEFAULT_HZ = 97.0

#: Set this in the environment to make worker processes profile
#: themselves from spawn (see :func:`init_worker`).
ENV_HZ = "REPRO_PROFILE_HZ"

_MAX_DEPTH = 64
# Safety valve: unique stacks are bounded in practice (call graphs are
# finite), but a pathological workload could mint unbounded keys.  Past
# this many, new stacks aggregate into one overflow bucket.
_MAX_STACKS = 50_000
_OVERFLOW_KEY = "(stack table full)"


def _frame_label(frame) -> str:
    code = frame.f_code
    return f"{code.co_name} ({basename(code.co_filename)}:{code.co_firstlineno})"


class SamplingProfiler:
    """One sampler thread accumulating collapsed-stack counts.

    Use the module-level :func:`start`/:func:`stop`/:func:`drain` in
    production code — they manage the process-global instance that
    ``obs.delta()`` ships across process boundaries.  The class is
    public for tests and for callers that want an isolated sampler.
    Each sample keeps the innermost 64 frames of a stack.
    """

    def __init__(self, hz: float = DEFAULT_HZ) -> None:
        if hz <= 0:
            raise ValueError(f"hz must be positive, got {hz!r}")
        self.hz = float(hz)
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}
        self._wall = 0.0  # seconds covered by _counts since last drain
        self._mark = 0.0  # perf_counter at start/last drain
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # ---------------------------------------------------------- lifecycle

    def start(self) -> None:
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._mark = perf_counter()
        self._thread = threading.Thread(
            target=self._run, name="repro-prof-sampler", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=2.0)
        self._thread = None
        with self._lock:
            self._wall += perf_counter() - self._mark
            self._mark = perf_counter()

    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    # ----------------------------------------------------------- sampling

    def _run(self) -> None:
        interval = 1.0 / self.hz
        own = threading.get_ident()
        # Event.wait as the pacer: wakes promptly on stop(), never
        # busy-spins, and drifts at most one interval per tick.
        while not self._stop.wait(interval):
            self._sample_once(own)

    def _sample_once(self, own_ident: int) -> None:
        frames = sys._current_frames()
        stacks = []
        for ident, frame in frames.items():
            if ident == own_ident:
                continue
            stack = []
            depth = 0
            while frame is not None and depth < _MAX_DEPTH:
                stack.append(_frame_label(frame))
                frame = frame.f_back
                depth += 1
            if stack:
                stack.reverse()  # collapsed format is root-first
                stacks.append(";".join(stack))
        del frames
        if not stacks:
            return
        with self._lock:
            for key in stacks:
                if key not in self._counts and len(self._counts) >= _MAX_STACKS:
                    key = _OVERFLOW_KEY
                self._counts[key] = self._counts.get(key, 0) + 1

    # ------------------------------------------------------------ harvest

    def counts(self) -> dict[str, int]:
        """A copy of the accumulated samples; does not reset anything."""
        with self._lock:
            return dict(self._counts)

    def drain(self) -> dict | None:
        """Samples accumulated since the last drain, as a picklable payload.

        Returns ``None`` when nothing was collected.  The payload is the
        unit that rides inside ``obs.delta()``::

            {"pid": int, "hz": float, "wall_seconds": float,
             "samples": {collapsed_stack: count}}
        """
        with self._lock:
            if not self._counts:
                return None
            counts, self._counts = self._counts, {}
            wall = self._wall
            self._wall = 0.0
            if self._thread is not None:
                now = perf_counter()
                wall += now - self._mark
                self._mark = now
        return {"pid": self.pid, "hz": self.hz,
                "wall_seconds": wall, "samples": counts}


# --------------------------------------------------------------- module API

_LOCK = threading.Lock()
_PROFILER: SamplingProfiler | None = None
# pid -> {"hz", "wall_seconds", "samples"} merged from worker drains.
_INGESTED: dict[int, dict] = {}


def _local(create_hz: float | None = None) -> SamplingProfiler | None:
    """The process-local profiler, discarding any fork-inherited one."""
    global _PROFILER
    prof = _PROFILER
    if prof is not None and prof.pid != os.getpid():
        # Forked child: the sampler thread did not survive the fork and
        # the counts belong to the parent.  Start fresh.
        _PROFILER = prof = None
    if prof is None and create_hz is not None:
        _PROFILER = prof = SamplingProfiler(create_hz)
    return prof


def start(hz: float | None = None) -> SamplingProfiler:
    """Start (or return the already-running) process-global profiler.

    ``hz=None`` takes :data:`ENV_HZ` from the environment, falling back
    to :data:`DEFAULT_HZ`.  Idempotent: a second ``start`` while running
    returns the live instance and ignores ``hz``.
    """
    with _LOCK:
        prof = _local()
        if prof is None:
            if hz is None:
                hz = _env_hz() or DEFAULT_HZ
            prof = _local(create_hz=float(hz))
        assert prof is not None
        prof.start()
        return prof


def stop() -> None:
    """Stop the process-global profiler; accumulated samples are kept."""
    with _LOCK:
        prof = _local()
    if prof is not None:
        prof.stop()


def running() -> bool:
    with _LOCK:
        prof = _local()
    return prof is not None and prof.running


def _env_hz() -> float | None:
    raw = os.environ.get(ENV_HZ, "").strip()
    if not raw:
        return None
    try:
        hz = float(raw)
    except ValueError:
        return None
    return hz if hz > 0 else None


def maybe_start_from_env() -> bool:
    """Start the profiler iff :data:`ENV_HZ` is set; returns running state.

    The lazy half of worker auto-profiling: pools created without the
    :func:`init_worker` initializer still pick the sampler up on their
    first ``obs.delta()``.
    """
    hz = _env_hz()
    if hz is None:
        return running()
    start(hz)
    return True


def init_worker() -> None:
    """``ProcessPoolExecutor(initializer=...)`` hook: profile from spawn."""
    maybe_start_from_env()


def drain() -> dict | None:
    """Drain the local profiler for shipping inside ``obs.delta()``."""
    maybe_start_from_env()
    with _LOCK:
        prof = _local()
    if prof is None:
        return None
    return prof.drain()


def ingest(payload: dict | None) -> None:
    """Fold a :func:`drain` payload (typically a worker's) into this process.

    Payloads merge per pid, so repeated deltas from one worker
    accumulate.  A same-pid payload is *restored* rather than treated as
    foreign: draining and re-ingesting locally (the inline-executor
    path, mirroring span drain/ingest) must round-trip.
    """
    if not payload or not payload.get("samples"):
        return
    pid = int(payload.get("pid", -1))
    with _LOCK:
        slot = _INGESTED.setdefault(
            pid, {"hz": payload.get("hz", DEFAULT_HZ),
                  "wall_seconds": 0.0, "samples": {}})
        slot["hz"] = payload.get("hz", slot["hz"])
        slot["wall_seconds"] += float(payload.get("wall_seconds", 0.0))
        counts = slot["samples"]
        for key, n in payload["samples"].items():
            counts[key] = counts.get(key, 0) + int(n)


def profiles() -> dict[int, dict]:
    """Everything known, keyed by pid: ingested payloads + the live local.

    The live local profiler's counts are *copied*, not drained, so
    reading for display never races the delta channel.
    """
    with _LOCK:
        out = {pid: {"hz": slot["hz"],
                     "wall_seconds": slot["wall_seconds"],
                     "samples": dict(slot["samples"])}
               for pid, slot in _INGESTED.items()}
        prof = _local()
    if prof is not None:
        counts = prof.counts()
        if counts:
            slot = out.setdefault(
                prof.pid, {"hz": prof.hz, "wall_seconds": 0.0, "samples": {}})
            merged = slot["samples"]
            for key, n in counts.items():
                merged[key] = merged.get(key, 0) + n
    return out


def samples() -> dict[str, int]:
    """Collapsed-stack counts flattened across every known pid."""
    flat: dict[str, int] = {}
    for slot in profiles().values():
        for key, n in slot["samples"].items():
            flat[key] = flat.get(key, 0) + n
    return flat


def diff_profiles(before: dict[int, dict], after: dict[int, dict]) -> dict[int, dict]:
    """Per-pid sample deltas between two :func:`profiles` snapshots.

    Used by the sidecar's ``/profile?seconds=N`` window: snapshot, wait,
    snapshot, diff — so an always-on profiler serves windowed requests
    without disturbing its accumulation.
    """
    out: dict[int, dict] = {}
    for pid, slot in after.items():
        base = before.get(pid, {}).get("samples", {})
        diff = {key: n - base.get(key, 0)
                for key, n in slot["samples"].items()
                if n - base.get(key, 0) > 0}
        if diff:
            out[pid] = {"hz": slot["hz"],
                        "wall_seconds": (slot["wall_seconds"]
                                         - before.get(pid, {}).get("wall_seconds", 0.0)),
                        "samples": diff}
    return out


def export(path, *, out=print):
    """Write everything collected so far: speedscope + folded stacks.

    Speedscope JSON at ``path``, the folded-stack text next to it with a
    ``.collapsed`` suffix.  One export covers every pid the profiler
    knows — this process plus any pool workers whose deltas merged in.
    Shared by ``benchmarks/bench_codecs.py --profile`` and the
    ``--profile`` flags on ``compress``/``decompress``/``serve``.
    Returns the main path.
    """
    from pathlib import Path

    from repro.obs.export import write_collapsed, write_speedscope

    profs = profiles()
    total = sum(sum(p["samples"].values()) for p in profs.values())
    path = Path(path)
    write_speedscope(path, profs)
    collapsed = path.with_suffix(".collapsed")
    write_collapsed(collapsed, profs)
    out(f"profile: {total} samples across {len(profs)} process(es) "
        f"-> {path} and {collapsed}")
    return path


def clear() -> None:
    """Drop every accumulated and ingested sample.

    A running profiler keeps running (only its counts reset); a stopped
    one is discarded entirely, so the next :func:`start` re-reads its hz
    from the argument or environment instead of reviving a stale rate.
    """
    global _PROFILER
    with _LOCK:
        _INGESTED.clear()
        prof = _local()
        if prof is not None and not prof.running:
            _PROFILER = None
            prof = None
    if prof is not None:
        prof.drain()
