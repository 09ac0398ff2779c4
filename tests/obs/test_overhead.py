"""The overhead guard: instrumentation must stay effectively free.

Encodes the same buffer with observability enabled and disabled in
interleaved pairs, so both halves of a pair see the same machine, and
judges the per-pair ratios with the repo's one timing judge
(:func:`repro.bench.stats.time_paired`): their median must stay within
the ceiling, and pairs are drawn while the judge's interval straddles
it.  One untimed encode runs first, instrumented: the process's first
encode pays one-time costs that would otherwise all land on the first
pair.  Each encode is timed in process CPU time, not wall time: the
encode runs on one thread, so the ratio counts the instrumentation's
own work and not the time the process spent descheduled while another
process shared the CPUs.  The instrumented stack records per *call*,
never per loop round, so the true overhead is a handful of dict
operations per chunk batch — the 10% ceiling is generous headroom for
timer noise, not a budget.
"""

from __future__ import annotations

import os
from time import process_time

import pytest

from repro import obs
from repro.bench.stats import time_paired
from repro.core import CompressionParams, gpu_compress
from repro.datasets import generate

SIZE_BYTES = int(float(os.environ.get("REPRO_OBS_GUARD_MB", "1")) * (1 << 20))
OVERHEAD_BOUND = 0.10


def _encode_once() -> tuple[bytes, float]:
    data = generate("cfiles", SIZE_BYTES, seed=11)
    t0 = process_time()
    blob = gpu_compress(data, CompressionParams(version=2)).data
    return blob, process_time() - t0


@pytest.mark.slow
def test_enabled_overhead_under_ceiling_and_output_identical():
    blobs: dict[bool, bytes] = {}

    def encode(enabled: bool) -> float:
        (obs.enable if enabled else obs.disable)()
        blob, seconds = _encode_once()
        assert blobs.setdefault(enabled, blob) == blob
        return seconds

    _encode_once()  # untimed warm-up: one-time costs belong to no pair
    try:
        v = time_paired(lambda: encode(False), lambda: encode(True),
                        OVERHEAD_BOUND)
    finally:
        obs.enable()

    assert blobs[True] == blobs[False], \
        "instrumentation changed the output bytes"
    assert v["ok"], (
        f"obs-enabled encode took {v['median']:.2%} of the disabled one "
        f"(median of {v['n']} pairs, 90% interval [{v['low']:.3f}, "
        f"{v['high']:.3f}]: {', '.join(f'{r:.3f}' for r in v['ratios'])}; "
        f"ceiling {1 + OVERHEAD_BOUND:.0%})")


def test_disabled_leaves_registry_and_ring_untouched():
    obs.disable()
    try:
        data = generate("cfiles", 64 * 1024, seed=12)
        gpu_compress(data, CompressionParams(version=2))
    finally:
        obs.enable()
    snap = obs.get_registry().snapshot()
    assert all(v == 0 for v in snap["counters"].values())
    assert all(h["count"] == 0 for h in snap["histograms"].values())
    from repro.obs import trace

    assert trace.spans() == []
