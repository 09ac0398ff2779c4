"""``culzss benchgate BASE HEAD`` — the benchmark regression gate.

A pure judge: it measures nothing itself.  BASE and HEAD are two
trajectories written by ``benchmarks/bench_codecs.py``, run by the
parent's and the head's trees in alternating processes.  The gate pairs
the newest n runs of each file in order, n the smaller run count, and
for every case reads one ratio per pair, the head run's median over the
base run's; a case FAILs (exit 1) when the median of its ratios exceeds
``1 + BOUND`` (:func:`repro.bench.stats.paired_verdict`).

:func:`codec_cases` is the measurement both trees run.  The codecs
reach the matcher through its module (``encoder.best_matches``), so a
run measures whatever is installed at call time: slow the module
attribute down (:func:`repro.testing.faults.slow_call`) for the head's
runs and the gate must fail.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.bench.stats import (
    MIN_PAIRS,
    load_trajectory,
    measure_rounds,
    paired_verdict,
    summarize,
)

__all__ = ["BOUND", "CODEC_BENCH", "attribute_case", "codec_cases",
           "run_gate"]

#: the bench name of ``benchmarks/bench_codecs.py``'s runs
CODEC_BENCH = "codecs"
CHUNK_SIZE = 4096
#: a case fails when its median head/base ratio exceeds ``1 + BOUND``
BOUND = 0.25
#: a stage whose time share grew by this much is a suspect
SHARE_FLOOR = 0.05

#: per-mode workload: (buffer bytes, repeats, warmup)
MODES = {
    "quick": (128 << 10, 5, 1),
    "full": (1 << 20, 5, 1),
}


# ----------------------------------------------------------- measuring

def codec_cases(size_bytes: int, *, repeats: int, warmup: int = 1) -> dict:
    """Measure every registered codec (plus ``auto``) on the cfiles
    corpus.

    Case names are ``codec.<name>.encode`` / ``codec.<name>.decode``;
    encode cases additionally carry the achieved compression ratio so
    the trajectory records the speed *and* ratio trade-off the
    dispatcher navigates.  ``container_unpack`` reads the v2 container
    of the plain V2 encode, the kind ``gpu_decompress`` reads.  Every
    case runs once per round (:func:`repro.bench.stats.measure_rounds`),
    and its ``samples`` keep the per-round seconds in round order, so
    two cases pair round by round.  ``benchmarks/bench_codecs.py``
    records these cases; the gate judges two trees' records.
    """
    from repro import container
    from repro.codecs import codec_names
    from repro.codecs.dispatch import encode_chunked_auto
    from repro.datasets import generate
    from repro.lzss import decoder, encoder
    from repro.lzss.formats import CUDA_V2

    data = np.frombuffer(generate("cfiles", size_bytes, seed=7),
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
    cases = {case: {**summarize(
                 secs, mb_s=round(size_bytes / max(min(secs), 1e-9) / 1e6, 3),
                 stages=stages[case]),
                 "samples": [round(sec, 6) for sec in secs]}
             for case, secs in samples.items()}
    for case, ratio in ratios.items():
        cases[case]["ratio"] = ratio
    return cases


# ----------------------------------------------------------- comparing

def attribute_case(base: dict, fresh: dict) -> dict | None:
    """Name the stage(s) a regressed case's extra time lives in.

    Diffs the per-stage time *shares* recorded in the two summaries'
    ``stages`` breakdowns.  Shares rather than raw seconds: a uniformly
    slower host inflates every stage and moves no share, while a real
    code regression concentrates in the stage that changed.  A stage is
    a *suspect* when its share grew by at least ``SHARE_FLOOR`` (5
    points); if none clears the floor the top share-gainer is named
    alone.  Returns ``None`` when either side lacks stage data
    (runs recorded before stage breakdowns existed).
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
    suspects = [r["stage"] for r in rows if r["share_delta"] >= SHARE_FLOOR]
    if not suspects and rows:
        suspects = [rows[0]["stage"]]
    return {"rows": rows, "suspects": suspects}


def _summed_stages(runs: list[dict], case: str) -> dict:
    """One side's stage breakdown of ``case``: each stage's seconds
    summed over the side's runs, and its share of their sum."""
    seconds: dict[str, float] = {}
    for run in runs:
        for stage, v in run["cases"][case].get("stages", {}).items():
            seconds[stage] = seconds.get(stage, 0.0) + v["seconds"]
    total = sum(seconds.values())
    return {"stages": {stage: {"seconds": sec,
                               "share": sec / total if total > 0 else 0.0}
                       for stage, sec in seconds.items()}}


#: Why a side of an attribution can lack its stage breakdown.
_NO_STAGES_HINT = {
    "base": "re-record it with `benchmarks/bench_codecs.py --output FILE` "
            "from a tree whose runs carry stage breakdowns",
    "head": "observability is off (REPRO_OBS=0) or the case runs no "
            "ledger stage",
}


def _pair_runs(base_path, head_path) -> tuple[list, list]:
    """The newest n runs of each side, paired in order; raises
    ``ValueError`` naming why they cannot be paired."""
    base, head = ([run for run in load_trajectory(path)["runs"]
                   if run.get("bench") == CODEC_BENCH]
                  for path in (base_path, head_path))
    n = min(len(base), len(head))
    if n < MIN_PAIRS:
        raise ValueError(
            f"needs at least {MIN_PAIRS} {CODEC_BENCH!r} runs a side, found "
            f"{len(base)} in BASE and {len(head)} in HEAD; record them "
            "with `benchmarks/bench_codecs.py --output FILE`, alternating "
            "the two trees")
    base, head = base[len(base) - n:], head[len(head) - n:]
    for b, h in zip(base, head):
        if b.get("mode") != h.get("mode"):
            raise ValueError(f"paired runs differ in mode: BASE "
                             f"{b.get('mode')!r}, HEAD {h.get('mode')!r}")
        if b.get("params") != h.get("params"):
            raise ValueError(f"paired runs differ in params: BASE "
                             f"{b.get('params')}, HEAD {h.get('params')}")
    return base, head


def compare_paired(base: list[dict], head: list[dict], *,
                   attribute: bool = False) -> dict:
    """Judge each case over the paired runs; returns the gate report.

    A case missing from any run of either side is ``unmatched`` and
    never fails (renames should not brick CI).  With ``attribute``, a
    failed case gains its :func:`attribute_case`, or ``None`` plus
    ``no_stages``, the side(s) without a stage breakdown.
    """
    report: dict = {"n": len(base), "cases": [], "regressions": []}
    names = set().union(*(run["cases"] for run in base + head))
    for name in sorted(names):
        if not all(name in run["cases"] for run in base + head):
            report["cases"].append({"name": name, "status": "unmatched"})
            continue
        verdict = paired_verdict(
            [h["cases"][name]["median_seconds"]
             / b["cases"][name]["median_seconds"]
             for b, h in zip(base, head)], BOUND)
        entry = {"name": name, **verdict,
                 "status": "ok" if verdict["ok"] else "regression"}
        report["cases"].append(entry)
        if verdict["ok"]:
            continue
        report["regressions"].append(name)
        if attribute:
            sides = {"base": _summed_stages(base, name),
                     "head": _summed_stages(head, name)}
            entry["attribution"] = attribute_case(*sides.values())
            if entry["attribution"] is None:
                entry["no_stages"] = [side for side, case in sides.items()
                                      if not case["stages"]]
    return report


def format_report(report: dict, base_meta: dict, head_meta: dict) -> str:
    lines = [f"benchgate: head vs base over {report['n']} alternated run "
             f"pairs (a case fails when its median head/base ratio "
             f"exceeds {1 + BOUND:.2f}; 90% sign-test interval)",
             f"  base git {base_meta.get('git_sha') or '?'}, head git "
             f"{head_meta.get('git_sha') or '?'}  cpus="
             f"{head_meta.get('cpu_count')}  python={head_meta.get('python')}"]
    width = max((len(c["name"]) for c in report["cases"]), default=0)
    for c in report["cases"]:
        if c["status"] == "unmatched":
            lines.append(f"  {c['name']:<{width}}  (unmatched case; skipped)")
            continue
        mark = "ok" if c["ok"] else "REGRESSION"
        lines.append(
            f"  {c['name']:<{width}}  x{c['median']:.3f}  "
            f"[{c['low']:.3f}, {c['high']:.3f}]  n={c['n']}  {mark}")
        if "attribution" not in c:
            continue
        attribution = c["attribution"]
        if attribution is None:
            lines.extend(
                f"    attribution: no stage breakdown in the {side} runs "
                f"— {_NO_STAGES_HINT[side]}" for side in c["no_stages"])
            continue
        suspects = set(attribution["suspects"])
        lines.append("    stage time shares (base -> head):")
        for r in attribution["rows"]:
            ratio = (f"time x{r['seconds_ratio']:.2f}"
                     if r["seconds_ratio"] is not None else "new stage")
            flag = "  <-- suspect" if r["stage"] in suspects else ""
            lines.append(
                f"      {r['stage']:<24} {r['baseline_share']*100:5.1f}% ->"
                f" {r['fresh_share']*100:5.1f}%  ({ratio}){flag}")
        lines.append(
            "    suspect stage(s): " + ", ".join(attribution["suspects"]))
    lines.append("gate: " + (f"FAIL ({', '.join(report['regressions'])})"
                             if report["regressions"] else "PASS"))
    return "\n".join(lines)


# ------------------------------------------------------------- driving

def run_gate(base_path, head_path, *, attribute: bool = False,
             out=print) -> int:
    """The ``culzss benchgate`` entry point; returns the exit code: 0
    pass, 1 regression, 2 setup problem (too few runs, or paired runs of
    different modes or params), which is not a performance regression.
    """
    try:
        base, head = _pair_runs(base_path, head_path)
    except ValueError as exc:
        out(f"benchgate: {exc}")
        return 2
    report = compare_paired(base, head, attribute=attribute)
    out(format_report(report, base[-1].get("meta", {}),
                      head[-1].get("meta", {})))
    return 1 if report["regressions"] else 0
