"""Tests of the end-to-end benchmark itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from measure import (  # noqa: E402
    from_due,
    paced,
    self_times,
    tail_summary,
    union_length,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------- percentiles

def test_tail_is_highest_percentile_with_ten_beyond():
    doc = tail_summary(range(1, 101))
    assert doc["n"] == 100
    assert doc["median"] == 50.5
    # p95 would leave 5 samples beyond it, p90 leaves exactly 10.
    assert (doc["p"], doc["p_value"]) == (90.0, 90)
    doc = tail_summary(range(1000))
    assert (doc["p"], doc["p_value"]) == (99.0, 989)


def test_tail_absent_below_twenty_samples_and_low_side_for_rates():
    assert tail_summary(range(19))["p"] is None
    assert tail_summary(range(19))["n"] == 19
    doc = tail_summary(range(1, 101), worse="low")
    # The slow tail of a rate is its low end: 10 samples lie below 11.
    assert (doc["p"], doc["p_value"]) == (90.0, 11)


# ------------------------------------------------------------- self time

def _span(sid, parent, start, end, layer=True):
    return SimpleNamespace(span_id=sid, parent_id=parent, start=start,
                           duration=end - start,
                           attrs={"layer": {}} if layer else {})


def test_union_merges_overlaps_and_clips():
    assert union_length([(1, 3), (2, 5), (7, 8)]) == 5
    assert union_length([(1, 3), (2, 5)], 2.5, 4) == 1.5
    assert union_length([]) == 0


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [_span(1, 0, 0.0, 10.0),
             _span(2, 1, 1.0, 3.0),
             _span(3, 1, 2.0, 5.0),     # overlaps span 2: counted once
             _span(4, 1, 9.0, 12.0)]    # runs past its parent: clipped
    own = self_times(spans, lambda s: "layer" in s.attrs)
    assert own[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[2] == pytest.approx(2.0)
    assert own[4] == pytest.approx(3.0)


def test_self_time_walks_through_program_spans():
    spans = [_span(1, 0, 0.0, 10.0),
             _span(2, 1, 1.0, 9.0, layer=False),   # the program's own span
             _span(3, 2, 2.0, 4.0)]
    own = self_times(spans, lambda s: "layer" in s.attrs)
    assert own == {1: pytest.approx(8.0), 3: pytest.approx(2.0)}


# ------------------------------------------------------------- open loop

class _FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    async def sleep(self, seconds: float) -> None:
        self.now += seconds


def test_open_loop_latency_counts_from_due_time():
    clock = _FakeClock()
    log: list = []
    sampled: list = []

    async def consume():
        done = []
        async for item in paced(range(4), 10.0, log, clock=clock,
                                sleep=clock.sleep,
                                after=lambda: sampled.append(clock.now)):
            if item == 1:
                clock.now += 0.35       # the system stalls on item 1
            clock.now += 0.01           # ... and takes 10 ms per item
            done.append(clock.now)
        return done

    done = asyncio.run(consume())
    due = [d for d, _sent in log]
    assert due == pytest.approx([100.0, 100.1, 100.2, 100.3])
    # The host-speed hook runs once per item, after the consumer took it.
    assert sampled == done
    latency, late = from_due(log, done)
    # Items 2 and 3 were due during the stall: the generator ran late
    # and their latency includes the wait, not just their own 10 ms.
    assert late == pytest.approx([0.0, 0.0, 0.26, 0.17])
    assert latency == pytest.approx([0.01, 0.36, 0.27, 0.18])
    with pytest.raises(ValueError):
        from_due(log, done[:2])


# --------------------------------------------------------- seed discipline

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_derive_only_from_the_seed(workload):
    a = workloads.make_inputs(workload, 7, workloads.SMOKE)
    b = workloads.make_inputs(workload, 7, workloads.SMOKE)
    c = workloads.make_inputs(workload, 8, workloads.SMOKE)
    assert workloads.digest(a) == workloads.digest(b)
    assert workloads.digest(a) != workloads.digest(c)
    assert [it.label for it in a] == [it.label for it in c]


# --------------------------------------------------------------- compare

def test_verdicts():
    from repro.bench.stats import summarize

    def judge(base, head, better):
        return run.verdict(summarize(base), summarize(head), 0.1, better)

    base = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert judge(base, [x * 1.02 for x in base], "higher") == "within bound"
    assert judge(base, [x * 0.8 for x in base], "higher") == "worse"
    assert judge(base, [x * 0.8 for x in base], "lower") == "better"
    noisy = [5.0, 10.0, 15.0, 8.0, 12.0]
    assert judge(base, noisy, "lower") == "unresolved"
    # Too noisy to resolve by medians, but every head run beats every
    # base run.
    assert judge(noisy, [1.0, 1.5, 2.0, 1.2, 1.8], "lower") == "better"


def _results(tmp_path, name, values, correct=True):
    files = []
    for i, v in enumerate(values):
        doc = {"workload": "compress", "trace": False, "correct": correct,
               "metrics": {
                   m["name"]: {"value": v if m["name"] == "throughput_mb_s"
                               else 1.0, "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}}
        path = tmp_path / f"{name}{i}.json"
        path.write_text(json.dumps(doc))
        files.append(str(path))
    return files


def test_compare_exits_one_on_worse(tmp_path, capsys):
    base = _results(tmp_path, "a", [1.0, 1.01, 0.99, 1.0, 1.0])
    same = _results(tmp_path, "b", [1.0, 0.99, 1.01, 1.0, 1.0])
    slow = _results(tmp_path, "c", [0.5, 0.51, 0.49, 0.5, 0.5])
    assert run.main(["compare", "--base", *base, "--head", *same]) == 0
    assert run.main(["compare", "--base", *base, "--head", *slow]) == 1
    out = capsys.readouterr().out
    assert "worse" in out and "within bound" in out


def test_compare_fails_a_set_with_a_failed_run(tmp_path, capsys):
    base = _results(tmp_path, "a", [1.0, 1.01, 0.99, 1.0, 1.0])
    head = _results(tmp_path, "b", [1.0, 0.99, 1.01, 1.0])
    # A failed run's placeholder timing would drag the median "better".
    broken = _results(tmp_path, "x", [50.0], correct=False)
    assert run.main(["compare", "--base", *base,
                     "--head", *head, *broken]) == 1
    out = capsys.readouterr().out
    assert f"failed run, left out: {broken[0]}" in out
    assert "better" not in out


# ------------------------------------------------------------ end to end

def _sections(stdout: str) -> dict[tuple[str, bool], dict[str, str]]:
    """``(workload, traced) -> {metric: unit}`` from the printed report."""
    sections: dict = {}
    current = None
    for line in stdout.splitlines():
        if line.startswith("== "):
            words = line.split()
            current = sections.setdefault((words[1], words[3] == "traced"),
                                          {})
        elif current is not None and line.startswith("  ") \
                and "(diagnostic)" not in line and ":" not in line:
            name, _value, unit = line.split()[:3]
            current[name] = unit
    return sections


def test_smoke_prints_every_metric_with_its_unit(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "3", "--smoke",
         "--trace", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    sections = _sections(proc.stdout)
    for traced, key in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        for workload in workloads.WORKLOADS:
            assert sections[(workload, traced)] == want, (workload, key)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0
    for workload in workloads.WORKLOADS:
        doc = json.loads((tmp_path / f"{workload}-seed3.json").read_text())
        assert doc["seed"] == 3 and len(doc["inputs"]["sha256"]) == 64
        assert doc["affinity_cpus"] >= 1 and "python" in doc["fingerprint"]
        trace = json.loads(
            (tmp_path / f"{workload}-seed3.trace.json").read_text())
        assert trace["traceEvents"]


def test_wrong_decoder_output_fails_the_run(tmp_path, monkeypatch, capsys):
    from repro import core

    real = core.gpu_decompress

    def corrupting(blob, *args, **kwargs):
        res = real(blob, *args, **kwargs)
        res.data = bytes([res.data[0] ^ 1]) + res.data[1:]
        return res

    monkeypatch.setattr(core, "gpu_decompress", corrupting)
    status = run.main(["--workload", "decompress", "--seed", "1", "--smoke",
                       "--out", str(tmp_path)])
    assert status != 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not last["correct"] and last["failed"] > 0
    doc = json.loads((tmp_path / "decompress-seed1.json").read_text())
    assert doc["failed_share"] > 0


def _session_members(sid: int) -> list[int]:
    members = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                if os.getsid(int(entry.name)) == sid:
                    members.append(int(entry.name))
            except ProcessLookupError:
                pass
    return members


@pytest.mark.skipif(not Path("/proc/self").exists(), reason="needs /proc")
def test_gateway_run_leaves_no_process_behind(tmp_path):
    """The server, the client's pool and the resource tracker its slabs
    start have all ended by the time the run exits."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", "gateway",
         "--seed", "1", "--smoke", "--out", str(tmp_path)],
        cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
    proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert _session_members(proc.pid) == []


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "compress", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
