"""`repro.bench.stats` timing and trajectories + the `culzss benchgate` gate."""

from __future__ import annotations

import json
import os
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
    assert fp["git_sha"]  # tests run inside the repo


def test_trajectory_append_only_and_bounded(tmp_path):
    path = tmp_path / "BENCH_x.json"
    for i in range(5):
        run = stats.new_run("x", "quick", {"case": stats.summarize([0.1])},
                            params={"i": i})
        stats.append_run(path, run, keep=3)
    doc = stats.load_trajectory(path)
    assert doc["schema"] == stats.SCHEMA_VERSION
    assert [r["params"]["i"] for r in doc["runs"]] == [2, 3, 4]
    latest = stats.latest_run(doc, mode="quick", bench="x")
    assert latest["params"]["i"] == 4
    assert stats.latest_run(doc, mode="full") is None


def test_load_trajectory_tolerates_legacy_and_garbage(tmp_path):
    legacy = tmp_path / "old.json"
    legacy.write_text(json.dumps({"meta": {"cpu_count": 1}, "engine": []}))
    assert stats.load_trajectory(legacy)["runs"] == []
    garbage = tmp_path / "bad.json"
    garbage.write_text("{not json")
    assert stats.load_trajectory(garbage)["runs"] == []
    assert stats.load_trajectory(tmp_path / "missing.json")["runs"] == []


# ----------------------------------------------------------- compare

def case(median: float, lo: float, hi: float) -> dict:
    return {"repeats": 5, "median_seconds": median,
            "iqr_low_seconds": lo, "iqr_high_seconds": hi,
            "min_seconds": lo, "max_seconds": hi}


def test_compare_flags_disjoint_regression():
    base = {"cases": {"enc": case(0.100, 0.098, 0.102)}}
    fresh = {"cases": {"enc": case(0.200, 0.195, 0.205)}}
    report = gate.compare_runs(base, fresh, threshold_pct=25.0)
    assert not report["ok"]
    assert report["regressions"] == ["enc"]
    assert report["cases"][0]["change_pct"] == pytest.approx(100.0)


def test_compare_iqr_overlap_is_the_escape_hatch():
    # median +60% but spreads overlap: noisy host, not a regression
    base = {"cases": {"enc": case(0.100, 0.090, 0.180)}}
    fresh = {"cases": {"enc": case(0.160, 0.150, 0.300)}}
    report = gate.compare_runs(base, fresh, threshold_pct=25.0)
    assert report["ok"]
    assert report["cases"][0]["status"] == "noisy"


def test_compare_improvement_and_unmatched_pass():
    base = {"cases": {"enc": case(0.2, 0.19, 0.21),
                      "gone": case(0.1, 0.09, 0.11)}}
    fresh = {"cases": {"enc": case(0.1, 0.09, 0.11),
                       "new": case(0.1, 0.09, 0.11)}}
    report = gate.compare_runs(base, fresh)
    assert report["ok"]
    statuses = {c["name"]: c["status"] for c in report["cases"]}
    assert statuses == {"enc": "ok", "gone": "unmatched",
                       "new": "unmatched"}


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


def test_report_names_the_side_without_a_stage_breakdown():
    staged = {"stages": {"encode.match": stage_row(1.0, 0.1)}}
    base = {"cases": {"enc": {**case(0.100, 0.098, 0.102), **staged},
                      "dec": case(0.100, 0.098, 0.102)}}
    fresh = {"cases": {"enc": {**case(0.200, 0.195, 0.205), "stages": {}},
                       "dec": {**case(0.200, 0.195, 0.205), **staged}}}
    report = gate.compare_runs(base, fresh)
    gate.attribute_regressions(base, fresh, report)
    lines = gate.format_report(report).splitlines()

    def attribution(name: str) -> str:
        at = next(i for i, line in enumerate(lines)
                  if line.split()[:1] == [name])
        return lines[at + 1]

    # the fresh run has no breakdown: no baseline refresh can fix that
    assert "no stage breakdown in the fresh run" in attribution("enc")
    assert "--update" not in attribution("enc")
    assert "no stage breakdown in the baseline run" in attribution("dec")
    assert "`culzss benchgate --update`" in attribution("dec")


# ---------------------------------------------------- gate end-to-end

SIZE, REPEATS = 16_000, 4


def test_gate_passes_on_unchanged_tree(tmp_path):
    path = tmp_path / "BENCH_codecs.json"
    assert gate.run_gate(path, mode="quick", update=True,
                         size_bytes=SIZE, repeats=REPEATS,
                         out=lambda *a: None) == 0
    # generous threshold: this asserts the wiring (same tree gates
    # green), not the sensitivity, which sub-ms cases would flake
    assert gate.run_gate(path, mode="quick", size_bytes=SIZE,
                         repeats=REPEATS, threshold_pct=150.0,
                         out=lambda *a: None) == 0


def test_gate_fails_on_injected_encode_slowdown(tmp_path):
    from repro.lzss import encoder
    from repro.testing import faults

    path = tmp_path / "BENCH_codecs.json"
    assert gate.run_gate(path, mode="quick", update=True,
                         size_bytes=SIZE, repeats=REPEATS,
                         out=lambda *a: None) == 0
    lines: list[str] = []
    with faults.slow_call(encoder, "best_matches", 0.2):
        assert gate.run_gate(path, mode="quick", size_bytes=SIZE,
                             repeats=REPEATS, out=lines.append) == 1
    text = "\n".join(lines)
    assert "REGRESSION" in text and "codec.lzss.encode" in text


def test_codec_cases_record_stage_breakdowns():
    cases = gate.codec_cases(SIZE, repeats=2, warmup=0)
    assert len(cases) == 11
    assert "encode.match" in cases["codec.lzss.encode"]["stages"]
    assert "decode.stream" in cases["codec.lzss.decode"]["stages"]
    assert "container.unpack" in cases["container_unpack"]["stages"]
    for name, summary in cases.items():
        if name == "codec.store.encode":  # a memcpy: no stage
            continue
        shares = sum(v["share"] for v in summary["stages"].values())
        assert shares == pytest.approx(1.0, abs=0.02), name


def test_gate_attribution_names_the_slowed_stage(tmp_path):
    """The acceptance criterion: induce a regression in one known stage
    and ``--attribute`` must name exactly that stage."""
    from repro.lzss import encoder
    from repro.testing import faults

    path = tmp_path / "BENCH_codecs.json"
    assert gate.run_gate(path, mode="quick", update=True,
                         size_bytes=SIZE, repeats=REPEATS,
                         out=lambda *a: None) == 0
    lines: list[str] = []
    with faults.slow_call(encoder, "best_matches", 0.05):
        rc = gate.run_gate(path, mode="quick", size_bytes=SIZE,
                           repeats=REPEATS, attribute=True,
                           out=lines.append)
    assert rc == 1
    text = "\n".join(lines)
    assert "REGRESSION" in text and "codec.lzss.encode" in text
    # judge the lzss encode block specifically: a sub-ms case elsewhere
    # can regress on timer noise under load, with its own attribution
    block = text.split("codec.lzss.encode", 1)[1]
    suspect = next(line for line in block.splitlines()
                   if "suspect stage(s):" in line)
    assert "encode.match" in suspect, text
    # the grown stage is flagged inline in the share table too
    assert any("encode.match" in line and "<-- suspect" in line
               for line in block.splitlines()), text


def test_gate_attribution_against_pre_stage_baseline_hints_refresh(tmp_path):
    """Baselines recorded before stage capture existed: attribution
    degrades to an actionable hint, never a crash."""
    path = tmp_path / "BENCH_codecs.json"
    assert gate.run_gate(path, mode="quick", update=True,
                         size_bytes=SIZE, repeats=REPEATS,
                         out=lambda *a: None) == 0
    # strip the recorded breakdowns, as an old committed baseline would be
    doc = json.loads(path.read_text())
    for run in doc["runs"]:
        for case in run["cases"].values():
            case.pop("stages", None)
    path.write_text(json.dumps(doc))
    from repro.lzss import encoder
    from repro.testing import faults

    lines: list[str] = []
    with faults.slow_call(encoder, "best_matches", 0.05):
        rc = gate.run_gate(path, mode="quick", size_bytes=SIZE,
                           repeats=REPEATS, attribute=True,
                           out=lines.append)
    assert rc == 1
    assert "refresh it with `culzss benchgate --update`" in "\n".join(lines)


def test_gate_profile_writes_speedscope(tmp_path):
    path = tmp_path / "BENCH_codecs.json"
    profile = tmp_path / "gate.speedscope.json"
    lines: list[str] = []
    assert gate.run_gate(path, mode="quick", update=True,
                         size_bytes=SIZE, repeats=REPEATS,
                         profile=profile, out=lines.append) == 0
    doc = json.loads(profile.read_text())
    assert doc["$schema"].endswith("file-format-schema.json")
    assert doc["profiles"] and doc["profiles"][0]["samples"]
    assert profile.with_suffix(".collapsed").exists()
    assert any("profile:" in line for line in lines)


def test_gate_without_baseline_exits_two(tmp_path):
    lines: list[str] = []
    rc = gate.run_gate(tmp_path / "missing.json", mode="quick",
                       size_bytes=SIZE, repeats=REPEATS, out=lines.append)
    assert rc == 2
    assert "--update" in "\n".join(lines)


def test_gate_rejects_unknown_mode(tmp_path):
    with pytest.raises(ValueError):
        gate.run_gate(tmp_path / "x.json", mode="nightly")


@pytest.mark.slow
def test_cli_benchgate_wires_through(tmp_path, capsys):
    """The CLI path at the real quick workload: update then judge."""
    from repro.cli import main

    baseline = tmp_path / "BENCH_codecs.json"
    assert main(["benchgate", "--quick", "--update",
                 "--baseline", str(baseline)]) == 0
    # generous threshold, same rationale as the library-level test: this
    # asserts the wiring, and the sub-ms quick cases flake under load
    rc = main(["benchgate", "--quick", "--baseline", str(baseline),
               "--threshold", "150"])
    assert rc == 0
    assert "gate: PASS" in capsys.readouterr().out
