"""The sampling profiler: collection, cross-process merge, exports, overhead.

The contract under test is the forensics loop end to end: a sampler
collects collapsed stacks from running threads, its drain payload is
picklable and rides home inside ``obs.delta()``, the parent ingests it
keyed by pid, and one speedscope/collapsed export covers the parent
*and* its pool workers.  The overhead guard mirrors the obs one: an
encode under the default-rate profiler must stay within 10% of the
unprofiled CPU time, as the median of interleaved pairs judged by
:func:`repro.bench.stats.time_paired`.
"""

from __future__ import annotations

import asyncio
import json
import os
import pickle
from time import perf_counter, process_time

import pytest

from repro import obs
from repro.obs import prof
from repro.obs.export import collapsed_stacks, speedscope_doc


def _burn(seconds: float) -> int:
    """Busy-spin so the sampler has something to catch."""
    end = perf_counter() + seconds
    x = 0
    while perf_counter() < end:
        x += sum(range(64))
    return x


# ----------------------------------------------------------- collection

def test_sampler_collects_named_stacks():
    p = prof.SamplingProfiler(hz=500)
    p.start()
    try:
        _burn(0.25)
    finally:
        p.stop()
    counts = p.counts()
    assert counts, "no samples after 0.25s of busy work at 500 Hz"
    assert any("_burn" in stack for stack in counts), sorted(counts)[:3]
    # collapsed keys are root-first: the leaf burning CPU is at the end
    burn_keys = [k for k in counts if "_burn" in k]
    assert any("test_prof.py" in k.split(";")[-1] or "_burn" in k.split(";")[-1]
               for k in burn_keys)


def test_sampler_rejects_bad_hz_and_start_is_idempotent():
    with pytest.raises(ValueError):
        prof.SamplingProfiler(hz=0)
    p = prof.SamplingProfiler(hz=50)
    p.start()
    thread_a = p._thread
    p.start()  # second start: same thread, no respawn
    assert p._thread is thread_a
    p.stop()
    assert not p.running


def test_drain_resets_and_reports_wall_seconds():
    p = prof.SamplingProfiler(hz=500)
    p.start()
    _burn(0.15)
    p.stop()
    payload = p.drain()
    assert payload is not None
    assert payload["pid"] == os.getpid()
    assert payload["hz"] == 500
    assert payload["wall_seconds"] == pytest.approx(0.15, abs=0.1)
    assert sum(payload["samples"].values()) >= 1
    assert p.drain() is None  # drained clean


# ----------------------------------------------- module API + transport

def test_module_start_stop_and_env_hz(monkeypatch):
    monkeypatch.setenv(prof.ENV_HZ, "250")
    assert prof.maybe_start_from_env()
    try:
        assert prof.running()
        assert prof._local().hz == 250
    finally:
        prof.stop()
    assert not prof.running()


def test_maybe_start_without_env_is_noop(monkeypatch):
    monkeypatch.delenv(prof.ENV_HZ, raising=False)
    assert not prof.maybe_start_from_env()
    assert not prof.running()


def test_drain_ingest_pickle_roundtrip():
    prof.start(hz=500)
    _burn(0.15)
    prof.stop()
    payload = prof.drain()
    assert payload is not None
    wire = pickle.loads(pickle.dumps(payload))  # the pool pipe, honestly
    prof.ingest(wire)
    profiles = prof.profiles()
    assert os.getpid() in profiles
    assert profiles[os.getpid()]["samples"] == payload["samples"]
    # flattened view agrees
    assert prof.samples() == payload["samples"]


def test_ingest_merges_per_pid():
    prof.ingest({"pid": 111, "hz": 97.0, "wall_seconds": 1.0,
                 "samples": {"a;b": 3}})
    prof.ingest({"pid": 111, "hz": 97.0, "wall_seconds": 0.5,
                 "samples": {"a;b": 2, "a;c": 1}})
    prof.ingest({"pid": 222, "hz": 50.0, "wall_seconds": 2.0,
                 "samples": {"x": 7}})
    profiles = prof.profiles()
    assert profiles[111]["samples"] == {"a;b": 5, "a;c": 1}
    assert profiles[111]["wall_seconds"] == pytest.approx(1.5)
    assert profiles[222]["samples"] == {"x": 7}


def test_delta_carries_profile_and_merge_restores():
    prof.start(hz=500)
    _burn(0.15)
    prof.stop()
    payload = obs.delta()
    assert payload["profile"], "obs.delta() did not pick up the samples"
    assert not prof.profiles(), "drain left samples behind"
    obs.merge_delta(payload)
    assert os.getpid() in prof.profiles()


def test_diff_profiles_windows_a_running_accumulation():
    before = {10: {"hz": 97.0, "wall_seconds": 1.0,
                   "samples": {"a": 5, "b": 2}}}
    after = {10: {"hz": 97.0, "wall_seconds": 3.0,
                  "samples": {"a": 9, "b": 2, "c": 4}},
             20: {"hz": 97.0, "wall_seconds": 1.0, "samples": {"z": 1}}}
    window = prof.diff_profiles(before, after)
    assert window[10]["samples"] == {"a": 4, "c": 4}
    assert window[10]["wall_seconds"] == pytest.approx(2.0)
    assert window[20]["samples"] == {"z": 1}


def test_clear_drops_everything():
    prof.ingest({"pid": 1, "hz": 97.0, "wall_seconds": 1.0,
                 "samples": {"a": 1}})
    prof.clear()
    assert prof.profiles() == {}


# -------------------------------------------------------------- exports

def _two_pid_profiles() -> dict[int, dict]:
    return {
        100: {"hz": 100.0, "wall_seconds": 1.0,
              "samples": {"main;work": 80, "main;idle": 20}},
        200: {"hz": 50.0, "wall_seconds": 2.0,
              "samples": {"main;work": 30}},
    }


def test_speedscope_doc_one_profile_per_pid():
    doc = speedscope_doc(_two_pid_profiles(), name="t")
    assert doc["$schema"] == "https://www.speedscope.app/file-format-schema.json"
    assert [p["name"] for p in doc["profiles"]] == ["pid 100", "pid 200"]
    frames = [f["name"] for f in doc["shared"]["frames"]]
    assert set(frames) == {"main", "work", "idle"}
    p100 = doc["profiles"][0]
    assert p100["type"] == "sampled"
    assert p100["unit"] == "seconds"
    # weights are count/hz seconds; endValue sums them
    assert p100["endValue"] == pytest.approx(1.0)  # (80+20)/100
    assert doc["profiles"][1]["endValue"] == pytest.approx(0.6)  # 30/50


def test_collapsed_stacks_sums_across_pids():
    text = collapsed_stacks(_two_pid_profiles())
    lines = dict(line.rsplit(" ", 1) for line in text.strip().splitlines())
    assert lines == {"main;work": "110", "main;idle": "20"}


def test_export_writes_both_files(tmp_path):
    prof.ingest({"pid": 5, "hz": 97.0, "wall_seconds": 1.0,
                 "samples": {"a;b": 3}})
    printed: list[str] = []
    out = tmp_path / "run.speedscope.json"
    prof.export(out, out=printed.append)
    doc = json.loads(out.read_text())
    assert doc["profiles"]
    collapsed = tmp_path / "run.speedscope.collapsed"
    assert collapsed.read_text() == "a;b 3\n"
    assert printed and "3 samples across 1 process(es)" in printed[0]


# --------------------------------------------- worker merge (e2e, slow)

@pytest.mark.slow
def test_pool_worker_profiles_merge_with_parent(monkeypatch):
    """The acceptance path: REPRO_PROFILE_HZ set, a real process pool
    runs frames, and one speedscope export covers parent + worker."""
    from repro.service.pipeline import IngressPipeline

    monkeypatch.setenv(prof.ENV_HZ, "997")
    prof.start()
    buffers = [(b"profile me across the pool %d " % i * 6000)
               for i in range(2)]  # ~180 KiB each: real encode time

    async def scenario() -> None:
        async def send(frame) -> None:
            pass

        with IngressPipeline(workers=1, queue_depth=4) as pipeline:
            await pipeline.run(1, buffers, send)

    try:
        asyncio.run(scenario())
    finally:
        prof.stop()
    profiles = prof.profiles()
    foreign = [pid for pid in profiles if pid != os.getpid()]
    assert foreign, "no worker profile merged into the parent"
    assert os.getpid() in profiles, "parent's own samples missing"
    doc = speedscope_doc(profiles)
    assert len(doc["profiles"]) >= 2
    worker_stacks = "\n".join(profiles[foreign[0]]["samples"])
    assert "encode" in worker_stacks or "match" in worker_stacks


# ------------------------------------------------------ overhead (slow)

OVERHEAD_BOUND = 0.10


@pytest.mark.slow
def test_default_rate_profiler_overhead_under_ceiling():
    """Interleaved profiled/bare pairs in process CPU time, judged by
    :func:`repro.bench.stats.time_paired`: the sampler thread runs in
    this process, so its work counts, while time spent descheduled
    behind another process does not."""
    from repro.bench.stats import time_paired
    from repro.core import CompressionParams, gpu_compress
    from repro.datasets import generate

    data = generate("cfiles", 1 << 20, seed=13)

    def encode(profiled: bool) -> float:
        if profiled:
            prof.start(hz=prof.DEFAULT_HZ)
        t0 = process_time()
        gpu_compress(data, CompressionParams(version=2))
        seconds = process_time() - t0
        if profiled:
            prof.stop()
        return seconds

    try:
        # Untimed warm-up under the profiler: one-time costs of the
        # encode and of the sampler's first walks belong to no pair.
        encode(True)
        v = time_paired(lambda: encode(False), lambda: encode(True),
                        OVERHEAD_BOUND)
    finally:
        prof.stop()
    assert v["ok"], (
        f"profiled encode took {v['median']:.2%} of the bare one "
        f"(median of {v['n']} pairs, 90% interval [{v['low']:.3f}, "
        f"{v['high']:.3f}]: {', '.join(f'{r:.3f}' for r in v['ratios'])}; "
        f"ceiling {1 + OVERHEAD_BOUND:.0%})")
