"""Statistical benchmark runner: repeats, medians, honest trajectories.

Every ``benchmarks/bench_*.py`` script measures through this module so
the numbers it publishes mean the same thing everywhere:

* :func:`measure_rounds` — warmup rounds (discarded) followed by
  ``repeats`` timed rounds, each calling every case once, so host noise
  lands on every case alike; returns the raw samples, not an average,
  because a single number hides the variance the regression gate
  needs, and each case's stage breakdown over its own timed calls.
* :func:`summarize` — median + interquartile range.  The median
  resists the one-off GC pause that wrecks a mean; the IQR shows the
  spread of one run.
* :func:`paired_verdict` — the one timing judge, over paired B/A
  ratios; :func:`time_paired` draws the pairs in one process.
* :func:`fingerprint` — the environment the numbers were taken in:
  cpu count, python/numpy versions, git sha and whether tracked files
  differ from it, wall-clock timestamp.
  A trajectory entry without its fingerprint is a rumor.
* :func:`append_run` / :func:`load_trajectory` — append-only
  ``BENCH_<name>.json`` files: ``{"schema": 2, "runs": [...]}`` where
  each run carries its fingerprint and per-case summaries.  Runs are
  never overwritten.

The regression gate lives in :mod:`repro.bench.gate`.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
from pathlib import Path
from time import perf_counter, time as wall_time

__all__ = [
    "SCHEMA_VERSION",
    "append_run",
    "fingerprint",
    "load_trajectory",
    "measure_rounds",
    "new_run",
    "paired_verdict",
    "summarize",
    "time_paired",
]

SCHEMA_VERSION = 2

#: two-sided miss rate of :func:`paired_verdict`'s interval (90%)
INTERVAL_ALPHA = 0.10
#: pairs :func:`time_paired` draws first, and at most
MIN_PAIRS, MAX_PAIRS = 5, 20


# ------------------------------------------------------------ measuring

def measure_rounds(calls: dict, *, repeats: int = 5,
                   warmup: int = 1) -> tuple[dict, dict]:
    """Time several cases round-robin: ``warmup`` discarded rounds, then
    ``repeats`` timed rounds, each calling every case of ``calls``
    (name → no-argument callable) once.

    Back-to-back repeats let a burst of host noise inflate one case's
    every sample, and so its median against the others'; in rounds the
    burst lands on one sample of each case.  Each callable should do
    one unit of the work being measured and nothing else (build inputs
    outside it).

    Returns ``(samples, stages)``: each case's raw per-call seconds,
    and its stage breakdown over its own timed calls — ``{stage:
    {seconds, bytes, calls, share}}`` for every ledger stage (those
    reporting the ``bytes=`` dimension) of the process-global
    :mod:`repro.obs` registry.  Pass a case's breakdown into
    :func:`summarize` as ``stages=`` so it rides the trajectory entry,
    which is what ``culzss benchgate --attribute`` diffs to name the
    stage a regression lives in.
    """
    from repro import obs

    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    for _ in range(max(0, warmup)):
        for fn in calls.values():
            fn()
    samples: dict[str, list[float]] = {name: [] for name in calls}
    snaps: dict[str, tuple[list, list]] = {name: ([], []) for name in calls}
    for _ in range(repeats):
        for name, fn in calls.items():
            snaps[name][0].append(obs.get_registry().snapshot())
            t0 = perf_counter()
            fn()
            samples[name].append(perf_counter() - t0)
            snaps[name][1].append(obs.get_registry().snapshot())
    # Counters and histogram count/sum add, so the breakdown between
    # the summed snapshots is the sum of the per-call breakdowns.
    stages = {name: _stage_rows(obs.stage_breakdown(
                  obs.merge_snapshots(*before), obs.merge_snapshots(*after)))
              for name, (before, after) in snaps.items()}
    return samples, stages


def _stage_rows(raw: dict) -> dict:
    """A :func:`repro.obs.stage_breakdown`, rounded for a trajectory."""
    return {stage: {"seconds": round(v["seconds"], 6), "bytes": v["bytes"],
                    "calls": v["calls"], "share": round(v["share"], 4)}
            for stage, v in raw.items()}


def summarize(samples: list[float], **extra) -> dict:
    """Median + IQR summary of raw samples, plus caller ``extra`` keys.

    ``iqr_low``/``iqr_high`` are the 25th/75th percentiles; with fewer
    than 4 samples they degrade to min/max (the honest thing: the
    quartiles of 2 points are the points).
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    if len(ordered) >= 4:
        q = statistics.quantiles(ordered, n=4, method="inclusive")
        low, high = q[0], q[2]
    else:
        low, high = ordered[0], ordered[-1]
    doc = {
        "repeats": len(ordered),
        "median_seconds": round(statistics.median(ordered), 6),
        "iqr_low_seconds": round(low, 6),
        "iqr_high_seconds": round(high, 6),
        "min_seconds": round(ordered[0], 6),
        "max_seconds": round(ordered[-1], 6),
    }
    doc.update(extra)
    return doc


# -------------------------------------------------------------- judging

def _order_index(n: int) -> int:
    """The sign test's order-statistic index for ``n`` ratios: the
    largest ``k`` with ``2 * P(X <= k - 1) <= INTERVAL_ALPHA``, ``X ~
    Binomial(n, 1/2)``; 0 below n = 5."""
    k, tail = 0, 0
    while k < n and 2 * (tail + math.comb(n, k)) <= INTERVAL_ALPHA * 2 ** n:
        tail += math.comb(n, k)
        k += 1
    return k


def paired_verdict(ratios: list[float], bound: float) -> dict:
    """Judge paired B/A ratios: ``ok`` when their median is at most
    ``1 + bound``.

    Both sides of a pair ran back to back on one machine, so host noise
    that spans a pair cancels, and noise that hits one pair moves one
    ratio, which the median ignores.  ``[low, high]`` is the sign-test
    interval for the median, the order statistics ``r(k)`` and
    ``r(n + 1 - k)``; unbounded below five ratios.
    """
    if not ratios:
        raise ValueError("no ratios")
    ordered = sorted(ratios)
    n = len(ordered)
    k = _order_index(n)
    median = statistics.median(ordered)
    return {"n": n, "median": median,
            "low": ordered[k - 1] if k else -math.inf,
            "high": ordered[n - k] if k else math.inf,
            "ok": median <= 1.0 + bound}


def time_paired(a, b, bound: float) -> dict:
    """Judge ``b`` against ``a`` — no-argument callables that each run
    one unit of work and return the seconds they measured, on the
    caller's clock — in back-to-back pairs, ``a`` first on even pairs
    (a pair's second half can cost slightly more).  After ``MIN_PAIRS``
    it draws more while the interval straddles ``1 + bound``, up to
    ``MAX_PAIRS``.  Returns the :func:`paired_verdict` plus ``ratios``.
    """
    ratios: list[float] = []
    while True:
        if len(ratios) % 2 == 0:
            ta, tb = a(), b()
        else:
            tb, ta = b(), a()
        ratios.append(tb / ta)
        if len(ratios) < MIN_PAIRS:
            continue
        verdict = paired_verdict(ratios, bound)
        if (len(ratios) >= MAX_PAIRS
                or not verdict["low"] <= 1.0 + bound < verdict["high"]):
            return {**verdict, "ratios": ratios}


# ---------------------------------------------------------- fingerprint

def _git(repo_root: Path | None, *args: str) -> str | None:
    """``git *args``'s stdout in ``repo_root``; None without git or repo."""
    try:
        out = subprocess.run(["git", *args], cwd=repo_root,
                             capture_output=True, text=True, timeout=5)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def fingerprint(repo_root: Path | None = None) -> dict:
    """Where and when these numbers were taken."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dep today
        numpy_version = None
    sha = _git(repo_root, "rev-parse", "--short", "HEAD")
    status = _git(repo_root, "status", "--porcelain", "--untracked-files=no")
    return {
        "timestamp": round(wall_time(), 3),
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_sha": sha or None,
        "git_dirty": None if status is None else bool(status),
    }


# ----------------------------------------------------------- trajectory

def new_run(name: str, mode: str, cases: dict, *,
            params: dict | None = None,
            repo_root: Path | None = None) -> dict:
    """Assemble one trajectory entry: fingerprint + workload + cases.

    ``mode`` names the workload tier (``"quick"`` / ``"full"``); the
    gate only compares runs of the same mode.  ``cases`` maps case name
    to a :func:`summarize` dict.
    """
    return {
        "bench": name,
        "mode": mode,
        "meta": fingerprint(repo_root),
        "params": dict(params or {}),
        "cases": dict(cases),
    }


def load_trajectory(path) -> dict:
    """Read a ``BENCH_*.json`` trajectory; empty shell when missing.

    Pre-schema-2 files (the old single-run overwrite format) are
    treated as having no comparable runs rather than erroring, so the
    first run after an upgrade simply starts the trajectory.
    """
    path = Path(path)
    if not path.exists():
        return {"schema": SCHEMA_VERSION, "runs": []}
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return {"schema": SCHEMA_VERSION, "runs": []}
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA_VERSION:
        return {"schema": SCHEMA_VERSION, "runs": []}
    doc.setdefault("runs", [])
    return doc


def append_run(path, run: dict, *, keep: int = 50) -> dict:
    """Append ``run`` to the trajectory at ``path`` (append-only).

    ``keep`` bounds the file: only the newest ``keep`` runs are
    retained, oldest dropped first — a trajectory, not a landfill.
    Returns the written document.
    """
    path = Path(path)
    doc = load_trajectory(path)
    doc["runs"].append(run)
    doc["runs"] = doc["runs"][-keep:]
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return doc
