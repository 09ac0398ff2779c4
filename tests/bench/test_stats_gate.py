"""`repro.bench.stats` timing and trajectories + the `culzss benchgate` gate."""

from __future__ import annotations

import json
import os
import subprocess
import time

import pytest

from repro.bench import gate, stats


# ------------------------------------------------------------- stats

def test_measure_rounds_runs_every_case_once_per_round():
    from repro import obs

    calls = []

    def case(name):
        def fn():
            calls.append(name)
            if name == "a":
                with obs.stage("encode.match", bytes=100):
                    pass
        return fn

    samples, stages = stats.measure_rounds(
        {"a": case("a"), "b": case("b")}, repeats=3, warmup=1)
    assert calls == ["a", "b"] * 4
    assert {name: len(s) for name, s in samples.items()} == {"a": 3, "b": 3}
    # each case's breakdown covers its own timed calls, not the warmup
    assert stages["a"]["encode.match"]["calls"] == 3
    assert stages["a"]["encode.match"]["bytes"] == 300
    assert stages["a"]["encode.match"]["share"] == pytest.approx(1.0)
    assert stages["b"] == {}
    with pytest.raises(ValueError):
        stats.measure_rounds({"a": case("a")}, repeats=0)


def test_summarize_median_and_iqr():
    s = stats.summarize([0.4, 0.1, 0.2, 0.3], mb_s=12.5)
    assert s["repeats"] == 4
    assert s["median_seconds"] == pytest.approx(0.25)
    assert s["iqr_low_seconds"] <= s["median_seconds"] <= s["iqr_high_seconds"]
    assert s["min_seconds"] == 0.1 and s["max_seconds"] == 0.4
    assert s["mb_s"] == 12.5


def test_summarize_few_samples_degrades_to_min_max():
    s = stats.summarize([0.2, 0.1])
    assert s["iqr_low_seconds"] == 0.1
    assert s["iqr_high_seconds"] == 0.2
    with pytest.raises(ValueError):
        stats.summarize([])


def test_fingerprint_is_honest():
    fp = stats.fingerprint()
    assert fp["cpu_count"] == (os.cpu_count() or 1)
    assert abs(fp["timestamp"] - time.time()) < 60
    assert fp["python"].count(".") == 2
    # The sha git reports from the same directory, or None where there
    # is no checkout (an exported tree) or no git.
    try:
        git = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=5)
    except OSError:
        git = None
    sha = git.stdout.strip() if git is not None and git.returncode == 0 else ""
    assert fp["git_sha"] == (sha or None)


def test_fingerprint_names_dirty_trees(tmp_path):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], cwd=tmp_path, check=True,
                       capture_output=True, timeout=10)

    try:
        git("init", "-q")
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("git unavailable")
    (tmp_path / "kept.txt").write_text("one\n")
    git("add", "kept.txt")
    git("commit", "-q", "-m", "one")
    fp = stats.fingerprint(tmp_path)
    assert fp["git_sha"] and fp["git_dirty"] is False
    (tmp_path / "untracked.txt").write_text("new\n")
    assert stats.fingerprint(tmp_path)["git_dirty"] is False
    (tmp_path / "kept.txt").write_text("two\n")
    dirty = stats.fingerprint(tmp_path)
    assert dirty["git_dirty"] is True and dirty["git_sha"] == fp["git_sha"]
    git("commit", "-q", "-am", "two")
    clean = stats.fingerprint(tmp_path)
    assert clean["git_dirty"] is False and clean["git_sha"] != fp["git_sha"]


def test_trajectory_append_only_and_bounded(tmp_path):
    path = tmp_path / "BENCH_x.json"
    for i in range(5):
        run = stats.new_run("x", "quick", {"case": stats.summarize([0.1])},
                            params={"i": i})
        stats.append_run(path, run, keep=3)
    doc = stats.load_trajectory(path)
    assert doc["schema"] == stats.SCHEMA_VERSION
    assert [r["params"]["i"] for r in doc["runs"]] == [2, 3, 4]
    assert {r["mode"] for r in doc["runs"]} == {"quick"}


def test_load_trajectory_tolerates_legacy_and_garbage(tmp_path):
    legacy = tmp_path / "old.json"
    legacy.write_text(json.dumps({"meta": {"cpu_count": 1}, "engine": []}))
    assert stats.load_trajectory(legacy)["runs"] == []
    garbage = tmp_path / "bad.json"
    garbage.write_text("{not json")
    assert stats.load_trajectory(garbage)["runs"] == []
    assert stats.load_trajectory(tmp_path / "missing.json")["runs"] == []


# ------------------------------------------------------------- judge

def _order_index_oracle(n: int, alpha: float = 0.10) -> int:
    """Count sign patterns one by one: the largest k for which the
    patterns with fewer than k positive signs, doubled, are at most
    ``alpha`` of all 2^n patterns."""
    below = [0] * (n + 2)  # below[k]: patterns with fewer than k positives
    for pattern in range(2 ** n):
        positives = bin(pattern).count("1")
        for k in range(positives + 1, n + 2):
            below[k] += 1
    best = 0
    for k in range(1, n + 1):
        if 2 * below[k] <= alpha * 2 ** n:
            best = k
    return best


def test_sign_test_index_matches_plain_loop_oracle():
    assert stats._order_index(5) == 1
    assert stats._order_index(10) == 2
    assert stats._order_index(4) == 0
    for n in range(1, 15):
        assert stats._order_index(n) == _order_index_oracle(n), n


def test_paired_verdict_median_interval_and_bound():
    v = stats.paired_verdict([1.0, 1.1, 0.9, 1.3, 1.2], 0.25)
    assert v == {"n": 5, "median": pytest.approx(1.1), "low": 0.9,
                 "high": 1.3, "ok": True}
    assert not stats.paired_verdict([1.0, 1.1, 0.9, 1.3, 1.2], 0.05)["ok"]
    ten = [0.5 + 0.1 * i for i in range(10)]  # 0.5 .. 1.4
    v = stats.paired_verdict(ten[::-1], 0.0)
    assert (v["low"], v["high"]) == (pytest.approx(0.6), pytest.approx(1.3))
    assert v["median"] == pytest.approx(0.95) and v["ok"]
    few = stats.paired_verdict([2.0, 2.0], 0.25)
    assert (few["low"], few["high"]) == (float("-inf"), float("inf"))
    assert not few["ok"]
    with pytest.raises(ValueError):
        stats.paired_verdict([], 0.25)


def test_time_paired_alternates_and_draws_while_straddling():
    calls: list[str] = []

    def side(name, seconds):
        def fn():
            calls.append(name)
            return next(seconds)
        return fn

    # A clear 2x: the interval clears the bound after the first pairs.
    clear = stats.time_paired(side("a", iter(lambda: 1.0, None)),
                              side("b", iter(lambda: 2.0, None)), 0.10)
    assert clear["n"] == stats.MIN_PAIRS and not clear["ok"]
    assert clear["ratios"] == [2.0] * stats.MIN_PAIRS
    assert calls[:4] == ["a", "b", "b", "a"]
    # Ratios alternating 0.9 / 1.3 straddle 1.10 forever: up to the cap.
    spread = iter([0.9, 1.3] * stats.MAX_PAIRS)
    capped = stats.time_paired(lambda: 1.0, lambda: next(spread), 0.10)
    assert capped["n"] == stats.MAX_PAIRS
    assert capped["low"] <= 1.10 < capped["high"]


# ---------------------------------------------- gate on hand-built runs

def write_runs(path, medians: list[dict], *, mode: str = "quick",
               params: dict | None = None,
               stages: dict | None = None) -> None:
    """One trajectory run per dict of ``{case: median seconds}``;
    ``stages`` (``{case: {stage: seconds}}``) gives cases a breakdown."""
    for run in medians:
        cases = {}
        for name, median in run.items():
            cases[name] = stats.summarize([median])
            rows = (stages or {}).get(name)
            if rows:
                total = sum(rows.values())
                cases[name]["stages"] = {
                    stage: {"seconds": sec, "bytes": 1000, "calls": 1,
                            "share": sec / total}
                    for stage, sec in rows.items()}
        stats.append_run(path, stats.new_run(
            gate.CODEC_BENCH, mode, cases,
            params=params if params is not None else {"size_bytes": 1}))


def judge(tmp_path, base: list[dict], head: list[dict], **kw):
    base_path, head_path = tmp_path / "base.json", tmp_path / "head.json"
    write_runs(base_path, base, **kw.pop("base_kw", {}))
    write_runs(head_path, head, **kw.pop("head_kw", {}))
    lines: list[str] = []
    rc = gate.run_gate(base_path, head_path, out=lines.append, **kw)
    return rc, "\n".join(lines)


NOISE = [1.00, 1.08, 0.93, 1.12, 0.97, 1.04, 0.91]


def test_gate_passes_on_unchanged_tree(tmp_path):
    base = [{"enc": 0.10, "dec": 0.02} for _ in NOISE]
    head = [{"enc": 0.10 * f, "dec": 0.02 / f} for f in NOISE]
    rc, text = judge(tmp_path, base, head)
    assert rc == 0, text
    assert "gate: PASS" in text
    assert "over 7 alternated run pairs" in text
    assert "n=7" in text and text.count("  ok") == 2


def test_gate_fails_on_paired_regression(tmp_path):
    base = [{"enc": 0.10} for _ in NOISE]
    head = [{"enc": 0.20 * f} for f in NOISE]
    rc, text = judge(
        tmp_path, base, head, attribute=True,
        base_kw={"stages": {"enc": {"encode.match": 0.05,
                                    "encode.pack": 0.05}}},
        head_kw={"stages": {"enc": {"encode.match": 0.16,
                                    "encode.pack": 0.04}}})
    assert rc == 1
    assert "REGRESSION" in text and "gate: FAIL (enc)" in text
    assert "x2.000" in text
    # attribution sums each side's stage seconds over its runs
    assert "suspect stage(s): encode.match" in text
    assert "50.0% ->  80.0%" in text


def test_gate_passes_noisy_pairs_whose_median_holds(tmp_path):
    # two of five pairs read 1.6 (host bursts), the median holds: the
    # judge reads the median of paired ratios, not its worst pairs
    base = [{"enc": 0.10} for _ in range(5)]
    head = [{"enc": 0.10 * f} for f in (1.6, 0.98, 1.05, 1.6, 1.01)]
    rc, text = judge(tmp_path, base, head)
    assert rc == 0, text
    assert "x1.050  [0.980, 1.600]  n=5  ok" in text


def test_gate_improvement_and_unmatched_pass(tmp_path):
    base = [{"enc": 0.2, "gone": 0.1} for _ in range(5)]
    head = [{"enc": 0.1, "new": 0.1} for _ in range(5)]
    rc, text = judge(tmp_path, base, head)
    assert rc == 0, text
    assert "x0.500" in text
    unmatched = [line.split()[0] for line in text.splitlines()
                 if "(unmatched case; skipped)" in line]
    assert unmatched == ["gone", "new"]


def test_gate_pairs_the_newest_runs_in_order(tmp_path):
    # base has two extra, older runs that regressed; only the newest
    # five of each side pair up
    base = [{"enc": 0.01}] * 2 + [{"enc": 0.10 * f} for f in NOISE[:5]]
    head = [{"enc": 0.10 * f} for f in NOISE[:5]]
    rc, text = judge(tmp_path, base, head)
    assert rc == 0, text
    assert "x1.000  [1.000, 1.000]  n=5" in text


def test_gate_without_baseline_exits_two(tmp_path):
    head = tmp_path / "head.json"
    write_runs(head, [{"enc": 0.1}] * 5)
    lines: list[str] = []
    assert gate.run_gate(tmp_path / "missing.json", head,
                         out=lines.append) == 2
    assert "found 0 in BASE and 5 in HEAD" in lines[0]
    (tmp_path / "four").mkdir()
    rc, text = judge(tmp_path / "four", [{"enc": 0.1}] * 4,
                     [{"enc": 0.1}] * 4)
    assert rc == 2 and "at least 5" in text and "bench_codecs.py" in text


def test_gate_rejects_mode_mismatch(tmp_path):
    runs = [{"enc": 0.1}] * 5
    rc, text = judge(tmp_path, runs, runs, head_kw={"mode": "full"})
    assert rc == 2
    assert "differ in mode: BASE 'quick', HEAD 'full'" in text
    (tmp_path / "params").mkdir()
    rc, text = judge(tmp_path / "params", runs, runs,
                     head_kw={"params": {"size_bytes": 2}})
    assert rc == 2 and "differ in params" in text


# --------------------------------------------------------- attribution

def stage_row(share: float, seconds: float) -> dict:
    return {"seconds": seconds, "bytes": 1000, "calls": 1, "share": share}


def test_attribute_case_names_the_share_gainer():
    base = {"stages": {"encode.match": stage_row(0.50, 0.10),
                       "encode.pack": stage_row(0.50, 0.10)}}
    fresh = {"stages": {"encode.match": stage_row(0.80, 0.40),
                        "encode.pack": stage_row(0.20, 0.10)}}
    attr = gate.attribute_case(base, fresh)
    assert attr["suspects"] == ["encode.match"]
    top = attr["rows"][0]
    assert top["stage"] == "encode.match"
    assert top["share_delta"] == pytest.approx(0.30)
    assert top["seconds_ratio"] == pytest.approx(4.0)


def test_attribute_case_uniform_slowdown_names_top_gainer_only():
    # both stages doubled: no share moved past the floor, so the single
    # top gainer is named rather than nothing (never a silent verdict)
    base = {"stages": {"a": stage_row(0.6, 0.6), "b": stage_row(0.4, 0.4)}}
    fresh = {"stages": {"a": stage_row(0.61, 1.22),
                        "b": stage_row(0.39, 0.78)}}
    attr = gate.attribute_case(base, fresh)
    assert attr["suspects"] == ["a"]


def test_attribute_case_without_stage_data_is_none():
    assert gate.attribute_case({}, {"stages": {"a": stage_row(1, 1)}}) is None
    assert gate.attribute_case({"stages": {"a": stage_row(1, 1)}}, {}) is None


def test_report_names_the_side_without_a_stage_breakdown(tmp_path):
    base = [{"enc": 0.10, "dec": 0.10} for _ in range(5)]
    head = [{"enc": 0.20, "dec": 0.20} for _ in range(5)]
    rc, text = judge(
        tmp_path, base, head, attribute=True,
        base_kw={"stages": {"enc": {"encode.match": 0.1}}},
        head_kw={"stages": {"dec": {"decode.stream": 0.2}}})
    assert rc == 1
    lines = text.splitlines()

    def attribution(name: str) -> str:
        at = next(i for i, line in enumerate(lines)
                  if line.split()[:1] == [name])
        return lines[at + 1]

    # the head runs have no breakdown: no re-recorded base can fix that
    assert "no stage breakdown in the head runs" in attribution("enc")
    assert "bench_codecs.py" not in attribution("enc")
    assert "no stage breakdown in the base runs" in attribution("dec")
    assert "`benchmarks/bench_codecs.py --output FILE`" in attribution("dec")


def test_gate_attribution_against_pre_stage_baseline_hints_refresh(tmp_path):
    """Base runs recorded before stage capture existed: attribution
    degrades to an actionable hint, never a crash."""
    rc, text = judge(
        tmp_path, [{"enc": 0.1}] * 5, [{"enc": 0.3}] * 5, attribute=True,
        head_kw={"stages": {"enc": {"encode.match": 0.3}}})
    assert rc == 1
    assert "no stage breakdown in the base runs" in text
    assert "re-record it with `benchmarks/bench_codecs.py" in text


# --------------------------------------- gate on real, alternated runs

SIZE, REPEATS = 16_000, 3


@pytest.fixture(scope="module")
def slowed_trajectories(tmp_path_factory):
    """BASE and HEAD from alternating in-process ``codec_cases`` calls,
    the head's with a 50 ms sleep before every matcher call."""
    from repro.lzss import encoder
    from repro.testing import faults

    root = tmp_path_factory.mktemp("gate")
    base, head = root / "base.json", root / "head.json"

    def record(path):
        stats.append_run(path, stats.new_run(
            gate.CODEC_BENCH, "quick",
            gate.codec_cases(SIZE, repeats=REPEATS, warmup=0),
            params={"size_bytes": SIZE, "repeats": REPEATS}))

    for i in range(stats.MIN_PAIRS):
        for side in ((base, head) if i % 2 == 0 else (head, base)):
            if side is head:
                with faults.slow_call(encoder, "best_matches", 0.05):
                    record(head)
            else:
                record(base)
    return base, head


def test_gate_fails_on_injected_encode_slowdown(slowed_trajectories):
    lines: list[str] = []
    assert gate.run_gate(*slowed_trajectories, out=lines.append) == 1
    text = "\n".join(lines)
    row = next(line for line in lines if "codec.lzss.encode" in line)
    assert "REGRESSION" in row and "n=5" in row, text
    assert "codec.lzss.encode" in lines[-1]


def test_codec_cases_record_stage_breakdowns():
    cases = gate.codec_cases(SIZE, repeats=2, warmup=0)
    assert len(cases) == 11
    assert "encode.match" in cases["codec.lzss.encode"]["stages"]
    assert "decode.stream" in cases["codec.lzss.decode"]["stages"]
    assert "container.unpack" in cases["container_unpack"]["stages"]
    for name, summary in cases.items():
        assert len(summary["samples"]) == 2, name
        assert summary["min_seconds"] == pytest.approx(
            min(summary["samples"]), abs=1e-6)
        if name == "codec.store.encode":  # a memcpy: no stage
            continue
        shares = sum(v["share"] for v in summary["stages"].values())
        assert shares == pytest.approx(1.0, abs=0.02), name


def test_gate_attribution_names_the_slowed_stage(slowed_trajectories):
    """The acceptance criterion: induce a regression in one known stage
    and ``--attribute`` must name exactly that stage."""
    lines: list[str] = []
    assert gate.run_gate(*slowed_trajectories, attribute=True,
                         out=lines.append) == 1
    text = "\n".join(lines)
    # judge the lzss encode block specifically: a sub-ms case elsewhere
    # can regress on timer noise under load, with its own attribution
    block = text.split("codec.lzss.encode", 1)[1]
    suspect = next(line for line in block.splitlines()
                   if "suspect stage(s):" in line)
    assert "encode.match" in suspect, text
    # the grown stage is flagged inline in the share table too
    assert any("encode.match" in line and "<-- suspect" in line
               for line in block.splitlines()), text


def test_bench_codecs_profile_writes_speedscope(tmp_path, monkeypatch,
                                                capsys):
    import importlib.util
    from pathlib import Path

    script = (Path(__file__).resolve().parents[2] / "benchmarks"
              / "bench_codecs.py")
    spec = importlib.util.spec_from_file_location("bench_codecs", script)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    monkeypatch.setattr(bench, "RESULTS_DIR", tmp_path)
    profile = tmp_path / "bench.speedscope.json"
    rc = bench.main(["--size-bytes", str(SIZE), "--repeats", "2",
                     "--output", str(tmp_path / "b.json"),
                     "--profile", str(profile)])
    out = capsys.readouterr().out
    assert rc in (0, 1)  # the lz4s headline may read noise at 2 rounds
    assert "lz4s/lzss encode time, median of 2 rounds" in out
    doc = json.loads(profile.read_text())
    assert doc["$schema"].endswith("file-format-schema.json")
    assert doc["profiles"] and doc["profiles"][0]["samples"]
    assert profile.with_suffix(".collapsed").exists()
    assert "profile:" in out
    runs = stats.load_trajectory(tmp_path / "b.json")["runs"]
    assert len(runs) == 1 and len(runs[0]["cases"]) == 11


def test_cli_benchgate_wires_through(tmp_path, capsys):
    """The CLI path: BASE HEAD positional, exit code from the judge."""
    from repro.cli import main

    base, head = tmp_path / "base.json", tmp_path / "head.json"
    write_runs(base, [{"codec.lzss.encode": 0.1}] * 5)
    write_runs(head, [{"codec.lzss.encode": 0.1}] * 5)
    assert main(["benchgate", str(base), str(head)]) == 0
    assert "gate: PASS" in capsys.readouterr().out
    write_runs(head, [{"codec.lzss.encode": 0.2}] * 5)
    assert main(["benchgate", str(base), str(head), "--attribute"]) == 1
    out = capsys.readouterr().out
    assert "gate: FAIL (codec.lzss.encode)" in out
    assert "no stage breakdown in the base runs" in out
