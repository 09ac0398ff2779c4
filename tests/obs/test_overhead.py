"""The overhead guard: instrumentation must stay effectively free.

Encodes the same buffer with observability enabled and disabled,
best-of-three each way, interleaved so the runs see the same machine.
Each encode is timed in process CPU time, not wall time: the encode
runs on one thread, so the ratio counts the instrumentation's own work
and not the time the process spent descheduled while another process
shared the CPUs.  The instrumented stack records per *call*, never per
loop round, so the true overhead is a handful of dict operations per
chunk batch — the 10% ceiling is generous headroom for timer noise,
not a budget.
"""

from __future__ import annotations

import os
from time import process_time

import pytest

from repro import obs
from repro.core import CompressionParams, gpu_compress
from repro.datasets import generate

SIZE_BYTES = int(float(os.environ.get("REPRO_OBS_GUARD_MB", "1")) * (1 << 20))
OVERHEAD_CEILING = 1.10
REPS = 3


def _encode_once() -> tuple[bytes, float]:
    data = generate("cfiles", SIZE_BYTES, seed=11)
    t0 = process_time()
    blob = gpu_compress(data, CompressionParams(version=2)).data
    return blob, process_time() - t0


@pytest.mark.slow
def test_enabled_overhead_under_ceiling_and_output_identical():
    times: dict[bool, list[float]] = {True: [], False: []}
    blobs: dict[bool, bytes] = {}
    try:
        for _ in range(REPS):
            for enabled in (True, False):
                (obs.enable if enabled else obs.disable)()
                blob, dt = _encode_once()
                times[enabled].append(dt)
                assert blobs.setdefault(enabled, blob) == blob
    finally:
        obs.enable()

    assert blobs[True] == blobs[False], \
        "instrumentation changed the output bytes"
    on, off = min(times[True]), min(times[False])
    assert on <= off * OVERHEAD_CEILING, (
        f"obs-enabled encode took {on:.3f}s vs {off:.3f}s disabled "
        f"({on / off:.2%} — ceiling {OVERHEAD_CEILING:.0%})")


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
