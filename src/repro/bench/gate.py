"""``culzss benchgate`` — the benchmark regression gate.

Measures every registered codec, the ``auto`` dispatcher and the
container reader with the statistical harness
(:mod:`repro.bench.stats`), compares the fresh medians against the
newest comparable run in the committed ``BENCH_codecs.json``
trajectory, and fails (exit 1) on a regression.

A *regression* needs two things at once:

1. the fresh median exceeds the baseline median by more than
   ``threshold_pct`` percent, **and**
2. the two runs' interquartile ranges do not overlap.

The second clause is the escape hatch for noisy hosts: when the IQRs
overlap, the medians are within each other's observed spread at this
sample size and the difference is indistinguishable from noise — a
gate that fires there trains people to ignore it.

The measured functions are looked up when :func:`codec_cases` runs,
and the codecs reach the matcher through its module
(``encoder.best_matches``), so the gate measures whatever is installed
at call time — which is also what makes the gate testable: slow the
module attribute down (:func:`repro.testing.faults.slow_call`) and the
gate must fail.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.bench.stats import (
    append_run,
    latest_run,
    load_trajectory,
    measure_rounds,
    new_run,
    summarize,
)

__all__ = ["CODEC_BENCH", "attribute_case", "attribute_regressions",
           "codec_cases", "compare_runs", "run_gate"]

#: the gate shares its bench name — and therefore its baseline runs —
#: with ``benchmarks/bench_codecs.py``, so the committed
#: ``BENCH_codecs.json`` doubles as the gate baseline
CODEC_BENCH = "codecs"
CHUNK_SIZE = 4096

#: per-mode workload: (buffer bytes, repeats, warmup).  Five repeats
#: minimum: below four samples the IQR degrades to min/max and the
#: overlap escape hatch loses its noise model.
MODES = {
    "quick": (128 << 10, 5, 1),
    "full": (1 << 20, 5, 1),
}


# ----------------------------------------------------------- measuring

def codec_cases(size_bytes: int, *, repeats: int, warmup: int = 1,
                dataset: str = "cfiles") -> dict:
    """Measure every registered codec (plus ``auto``) on one corpus.

    Case names are ``codec.<name>.encode`` / ``codec.<name>.decode``;
    encode cases additionally carry the achieved compression ratio so
    the trajectory records the speed *and* ratio trade-off the
    dispatcher navigates.  ``container_unpack`` reads the v2 container
    of the plain V2 encode, the kind ``gpu_decompress`` reads.  Every
    case runs once per round (:func:`repro.bench.stats.measure_rounds`).
    Shared with ``benchmarks/bench_codecs.py`` so the committed
    ``BENCH_codecs.json`` and the gate's fresh runs measure identical
    work.
    """
    from repro import container
    from repro.codecs import codec_names
    from repro.codecs.dispatch import encode_chunked_auto
    from repro.datasets import generate
    from repro.lzss import decoder, encoder
    from repro.lzss.formats import CUDA_V2

    data = np.frombuffer(generate(dataset, size_bytes, seed=7),
                         dtype=np.uint8)
    calls: dict = {}
    ratios: dict[str, float] = {}
    for name in [*codec_names(), "auto"]:
        result = encode_chunked_auto(data, CUDA_V2, CHUNK_SIZE, codec=name)
        decode = partial(decoder.decode_chunked_with_stats, result.payload,
                         CUDA_V2, result.chunk_sizes, CHUNK_SIZE,
                         result.input_size, chunk_codecs=result.chunk_codecs)
        if decode()[0] != data.tobytes():  # pragma: no cover - invariant
            raise AssertionError(f"codec {name} failed its round trip")
        calls[f"codec.{name}.encode"] = partial(
            encode_chunked_auto, data, CUDA_V2, CHUNK_SIZE, codec=name)
        calls[f"codec.{name}.decode"] = decode
        ratios[f"codec.{name}.encode"] = round(
            len(result.payload) / size_bytes, 4)
    blob = container.pack_container(
        encoder.encode_chunked(data, CUDA_V2, CHUNK_SIZE))
    calls["container_unpack"] = partial(container.unpack_container, blob)

    samples, stages = measure_rounds(calls, repeats=repeats, warmup=warmup)
    cases = {case: summarize(
                 secs, mb_s=round(size_bytes / max(min(secs), 1e-9) / 1e6, 3),
                 stages=stages[case])
             for case, secs in samples.items()}
    for case, ratio in ratios.items():
        cases[case]["ratio"] = ratio
    return cases


# ----------------------------------------------------------- comparing

def _iqr_overlap(a: dict, b: dict) -> bool:
    return (a["iqr_low_seconds"] <= b["iqr_high_seconds"]
            and b["iqr_low_seconds"] <= a["iqr_high_seconds"])


def compare_runs(baseline: dict, fresh: dict, *,
                 threshold_pct: float = 25.0) -> dict:
    """Judge ``fresh`` against ``baseline``; returns the gate report.

    Cases present on only one side are reported but never fail the
    gate (renames should not brick CI); a regression needs both the
    median excursion and disjoint IQRs, per the module docstring.
    """
    report: dict = {"threshold_pct": threshold_pct, "cases": [],
                    "regressions": [], "ok": True}
    base_cases = baseline.get("cases", {})
    fresh_cases = fresh.get("cases", {})
    for name in sorted(set(base_cases) | set(fresh_cases)):
        if name not in base_cases or name not in fresh_cases:
            report["cases"].append({"name": name, "status": "unmatched"})
            continue
        b, f = base_cases[name], fresh_cases[name]
        base_med, fresh_med = b["median_seconds"], f["median_seconds"]
        change_pct = (100.0 * (fresh_med - base_med) / base_med
                      if base_med else 0.0)
        overlap = _iqr_overlap(b, f)
        regressed = change_pct > threshold_pct and not overlap
        entry = {
            "name": name,
            "status": "regression" if regressed else (
                "noisy" if change_pct > threshold_pct else "ok"),
            "baseline_median_seconds": base_med,
            "fresh_median_seconds": fresh_med,
            "change_pct": round(change_pct, 1),
            "iqr_overlap": overlap,
        }
        report["cases"].append(entry)
        if regressed:
            report["regressions"].append(name)
    report["ok"] = not report["regressions"]
    return report


def attribute_case(base: dict, fresh: dict, *,
                   share_floor: float = 0.05) -> dict | None:
    """Name the stage(s) a regressed case's extra time lives in.

    Diffs the per-stage time *shares* recorded in the two summaries'
    ``stages`` breakdowns.  Shares rather than raw seconds: a uniformly
    slower host inflates every stage and moves no share, while a real
    code regression concentrates in the stage that changed.  A stage is
    a *suspect* when its share grew by at least ``share_floor`` (5
    points by default); if none clears the floor the top share-gainer
    is named alone.  Returns ``None`` when either side lacks stage data
    (pre-attribution baselines).
    """
    b, f = base.get("stages"), fresh.get("stages")
    if not b or not f:
        return None
    rows = []
    for stage in sorted(set(b) | set(f)):
        bs = b.get(stage, {})
        fs = f.get(stage, {})
        b_share = float(bs.get("share", 0.0))
        f_share = float(fs.get("share", 0.0))
        b_secs = float(bs.get("seconds", 0.0))
        f_secs = float(fs.get("seconds", 0.0))
        rows.append({
            "stage": stage,
            "baseline_share": round(b_share, 4),
            "fresh_share": round(f_share, 4),
            "share_delta": round(f_share - b_share, 4),
            "baseline_seconds": round(b_secs, 6),
            "fresh_seconds": round(f_secs, 6),
            "seconds_ratio": (round(f_secs / b_secs, 2)
                              if b_secs > 0 else None),
        })
    rows.sort(key=lambda r: (-r["share_delta"], r["stage"]))
    suspects = [r["stage"] for r in rows if r["share_delta"] >= share_floor]
    if not suspects and rows:
        suspects = [rows[0]["stage"]]
    return {"rows": rows, "suspects": suspects}


def attribute_regressions(baseline: dict, fresh: dict,
                          report: dict) -> None:
    """Attach stage attribution to every regressed case in ``report``.

    Mutates the report in place: each regression entry gains either an
    ``attribution`` dict (see :func:`attribute_case`) or
    ``attribution: None`` plus ``no_stages``, the side(s) —
    ``"baseline"``, ``"fresh"`` — whose case has no stage breakdown.
    """
    base_cases = baseline.get("cases", {})
    fresh_cases = fresh.get("cases", {})
    for entry in report["cases"]:
        if entry.get("status") != "regression":
            continue
        sides = {"baseline": base_cases.get(entry["name"], {}),
                 "fresh": fresh_cases.get(entry["name"], {})}
        entry["attribution"] = attribute_case(sides["baseline"],
                                              sides["fresh"])
        if entry["attribution"] is None:
            entry["no_stages"] = [side for side, case in sides.items()
                                  if not case.get("stages")]


#: Why a side of an attribution can lack its stage breakdown.
_NO_STAGES_HINT = {
    "baseline": "refresh it with `culzss benchgate --update`",
    "fresh": "observability is off (REPRO_OBS=0) or the case runs no "
             "ledger stage",
}


def format_report(report: dict, baseline_meta: dict | None = None) -> str:
    lines = ["benchgate: fresh run vs committed baseline "
             f"(threshold {report['threshold_pct']:.0f}% median, "
             "IQR-overlap escape hatch)"]
    if baseline_meta:
        lines.append(
            f"  baseline: git {baseline_meta.get('git_sha') or '?'}  "
            f"cpus={baseline_meta.get('cpu_count')}  "
            f"python={baseline_meta.get('python')}")
    for c in report["cases"]:
        if c["status"] == "unmatched":
            lines.append(f"  {c['name']:<18} (unmatched case; skipped)")
            continue
        mark = {"ok": "ok", "noisy": "ok (IQR overlap)",
                "regression": "REGRESSION"}[c["status"]]
        lines.append(
            f"  {c['name']:<18} {c['baseline_median_seconds']*1e3:9.3f} ms"
            f" -> {c['fresh_median_seconds']*1e3:9.3f} ms  "
            f"({c['change_pct']:+6.1f}%)  {mark}")
        if "attribution" not in c:
            continue
        attribution = c["attribution"]
        if attribution is None:
            lines.extend(
                f"    attribution: no stage breakdown in the {side} run "
                f"— {_NO_STAGES_HINT[side]}" for side in c["no_stages"])
            continue
        suspects = set(attribution["suspects"])
        lines.append("    stage time shares (baseline -> fresh):")
        for r in attribution["rows"]:
            ratio = (f"time x{r['seconds_ratio']:.2f}"
                     if r["seconds_ratio"] is not None else "new stage")
            flag = "  <-- suspect" if r["stage"] in suspects else ""
            lines.append(
                f"      {r['stage']:<24} {r['baseline_share']*100:5.1f}% ->"
                f" {r['fresh_share']*100:5.1f}%  ({ratio}){flag}")
        lines.append(
            "    suspect stage(s): " + ", ".join(attribution["suspects"]))
    lines.append("gate: " + ("PASS" if report["ok"] else
                             f"FAIL ({', '.join(report['regressions'])})"))
    return "\n".join(lines)


# ------------------------------------------------------------- driving

def run_gate(baseline_path, *, mode: str = "quick", update: bool = False,
             threshold_pct: float = 25.0, size_bytes: int | None = None,
             repeats: int | None = None, attribute: bool = False,
             profile=None, out=print) -> int:
    """The ``culzss benchgate`` entry point; returns the exit code.

    ``update`` appends the fresh run to the trajectory instead of
    judging it (how baselines are [re]generated).  Without a comparable
    baseline the gate exits 2 with a hint — a missing baseline is a
    setup problem, not a performance regression.

    ``attribute`` turns on regression forensics: each regressed case's
    report names the stage(s) whose share of the measured time grew
    against the baseline's recorded breakdown (see
    :func:`attribute_case`).  ``profile`` — a path — runs the sampling
    profiler over the whole measurement and writes a speedscope
    document there (plus a ``.collapsed`` sibling).
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {sorted(MODES)}")
    mode_size, mode_repeats, warmup = MODES[mode]
    size_bytes = size_bytes or mode_size
    repeats = repeats or mode_repeats

    if profile:
        from repro.obs import prof

        prof.start()
    try:
        cases = codec_cases(size_bytes, repeats=repeats, warmup=warmup)
    finally:
        if profile:
            prof.stop()
            prof.export(profile, out=out)
    fresh = new_run(CODEC_BENCH, mode, cases,
                    params={"size_bytes": size_bytes, "repeats": repeats,
                            "chunk_size": CHUNK_SIZE})
    if update:
        append_run(baseline_path, fresh)
        out(f"benchgate: appended {mode} baseline "
            f"({len(cases)} cases) to {baseline_path}")
        return 0

    doc = load_trajectory(baseline_path)
    baseline = latest_run(doc, mode=mode, bench=CODEC_BENCH)
    if baseline is None:
        out(f"benchgate: no {mode!r} baseline in {baseline_path}; "
            "run `culzss benchgate --update` on a known-good tree first")
        return 2
    report = compare_runs(baseline, fresh, threshold_pct=threshold_pct)
    if attribute:
        attribute_regressions(baseline, fresh, report)
    out(format_report(report, baseline.get("meta")))
    return 0 if report["ok"] else 1
