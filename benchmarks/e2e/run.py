#!/usr/bin/env python3
"""End-to-end benchmark of the CULZSS reproduction.

Run one workload (what a regression check does), all four, or compare
two sets of results::

    python benchmarks/e2e/run.py --workload compress --seed 1 --seconds 20 --trace 0
    python benchmarks/e2e/run.py --seed 1 [--trace]       # every workload
    python benchmarks/e2e/run.py --seed 1 --smoke          # tiny sizes, < 60 s
    python benchmarks/e2e/run.py compare --base A/*.json --head B/*.json

Inputs derive only from ``--seed``.  An untraced run prints the
``end_to_end`` metrics of ``BENCHMARK.json``; ``--trace`` prints the
``per_layer`` metrics and writes a chrome trace.  Every run checks each
output byte for byte, writes a results JSON under ``--out`` and ends
its standard output with one JSON line: ``{"correct", "attempted",
"failed", "metrics"}``.  Any failed operation makes the exit code 1.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import workloads as wl
from measure import slowdown, tail_summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _metric_units(spec: dict, trace: bool) -> dict[str, str]:
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def peak_rss_mb() -> float:
    """Peak resident set of this process and every child it waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


# ----------------------------------------------------------------- run

def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, out_dir: Path) -> dict:
    """Run one workload in this process; returns the results document."""
    from repro.bench.stats import fingerprint
    from repro.obs.export import write_chrome_trace

    scale = wl.SMOKE if smoke else wl.FULL
    items = wl.make_inputs(workload, seed, scale)
    cold, raw_cold, cold_ok = [], [], []
    if not trace:
        for _ in range(scale.cold_starts):
            before = slowdown()
            s, ok = (asyncio.run(wl.gateway_cold_start(items[0]))
                     if workload == "gateway"
                     else wl.library_cold_start(workload, items[0]))
            cold.append(s / ((before + slowdown()) / 2))
            raw_cold.append(s)
            cold_ok.append(ok)
    if workload == "gateway":
        res = asyncio.run(wl.run_gateway(items, seconds, scale, trace))
    else:
        res = wl.run_library(workload, items, seconds, trace)

    attempted = res["attempted"] + len(cold_ok)
    failed = res["failed"] + cold_ok.count(False)
    doc = {
        "workload": workload, "seed": seed, "trace": trace,
        "smoke": smoke, "seconds": seconds,
        "inputs": {"sha256": wl.digest(items),
                   "bytes": sum(len(it.data) for it in items),
                   "items": len(items)},
        "fingerprint": fingerprint(ROOT),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted if attempted else 1.0,
    }
    units = _metric_units(load_spec(), trace)
    if trace:
        path = out_dir / f"{workload}-seed{seed}.trace.json"
        write_chrome_trace(path, res["spans"])
        doc["chrome_trace"] = str(path.relative_to(ROOT)
                                  if path.is_relative_to(ROOT) else path)
        summaries = {k: {"median": v} for k, v in res["per_layer"].items()}
    else:
        summaries = dict(res["end_to_end"])
        summaries["setup_s"] = tail_summary(cold)
        summaries["peak_rss_mb"] = {"median": peak_rss_mb(), "n": 1}
        res["detail"]["raw_setup_s"] = tail_summary(raw_cold)
    doc["detail"] = res.get("detail", {})
    doc["metrics"] = {}
    for name, unit in units.items():
        summary = dict(summaries[name])
        doc["metrics"][name] = {"value": summary.pop("median"), "unit": unit,
                                **summary}
    return doc


def _fmt_summary(m: dict) -> str:
    parts = []
    if m.get("n") is not None:
        parts.append(f"n={m['n']}")
    if m.get("p") is not None:
        parts.append(f"p{m['p']:g}={m['p_value']:.4g}")
    return f"  ({', '.join(parts)})" if parts else ""


def print_report(doc: dict) -> None:
    mode = "traced" if doc["trace"] else "untraced"
    print(f"== {doc['workload']} seed={doc['seed']} {mode} "
          f"attempted={doc['attempted']} failed={doc['failed']} "
          f"failed_share={doc['failed_share']:.4g}")
    for name, m in doc["metrics"].items():
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']:8s}"
              f"{_fmt_summary(m)}")
    for name, m in doc["detail"].items():
        print(f"  {name:34s} {m['median']:>14.6g} (diagnostic)"
              f"{_fmt_summary(m)}")
    if doc.get("chrome_trace"):
        print(f"  chrome trace: {doc['chrome_trace']}")


def result_line(doc: dict) -> str:
    return json.dumps({
        "correct": doc["correct"], "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in doc["metrics"].items()}})


def run_all(args) -> int:
    """Every workload, each in its own process; traced after untraced
    when ``--trace`` is given."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in wl.WORKLOADS:
        for trace in ((0, 1) if args.trace else (0,)):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--out", str(args.out)] + (["--smoke"] if args.smoke
                                              else [])
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                status = 1
            if not lines:
                combined["correct"] = False
                continue
            res = json.loads(lines[-1])
            combined["correct"] &= res["correct"]
            combined["attempted"] += res["attempted"]
            combined["failed"] += res["failed"]
            for k, v in res["metrics"].items():
                combined["metrics"][f"{workload}.{k}"] = v
    print(json.dumps(combined))
    return status


# ------------------------------------------------------------- compare

def verdict(base: dict, head: dict, bound: float, better: str) -> str:
    """Judge ``head`` against ``base`` for one (metric, workload) pair.

    Both are :func:`repro.bench.stats.summarize` summaries of the runs'
    values.  ``unresolved`` when either side's IQR exceeds ``bound`` as
    a share of its median, unless every head run beats every base run;
    otherwise ``worse`` or ``better`` when the medians differ by more
    than the bound in that direction, and ``within bound`` if not.
    """
    def spread(s: dict) -> float:
        return ((s["iqr_high_seconds"] - s["iqr_low_seconds"])
                / abs(s["median_seconds"]))

    ma, mh = base["median_seconds"], head["median_seconds"]
    if max(spread(base), spread(head)) > bound:
        beats = (head["max_seconds"] < base["min_seconds"]
                 if better == "lower"
                 else head["min_seconds"] > base["max_seconds"])
        return "better" if beats else "unresolved"
    change = (mh - ma) / abs(ma) * (1.0 if better == "lower" else -1.0)
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "within bound"


def compare(base_files, head_files) -> int:
    """Print one verdict row per (metric, workload); 1 on any ``worse``.

    A run that failed an operation is left out of the medians (its
    timings may be truncated or placeholders) and also makes the exit
    code 1: a set with a failed run cannot pass.
    """
    from repro.bench.stats import summarize

    spec = load_spec()
    failed = []

    def load(files) -> dict:
        runs: dict[str, list] = {}
        for f in files:
            doc = json.loads(Path(f).read_text())
            if doc["trace"]:
                continue
            if not doc["correct"]:
                failed.append(f)
                continue
            runs.setdefault(doc["workload"], []).append(doc)
        return runs

    base, head = load(base_files), load(head_files)
    for f in failed:
        print(f"failed run, left out: {f}")
    worse = bool(failed)
    print(f"{'metric':16s} {'workload':11s} {'base median':>12s} "
          f"{'IQR':>19s} {'head median':>12s} {'IQR':>19s} "
          f"{'bound':>6s}  verdict")
    for m in spec["end_to_end"]:
        for workload in wl.WORKLOADS:
            if workload not in base or workload not in head:
                continue
            sa, sb = (summarize([d["metrics"][m["name"]]["value"]
                                 for d in runs[workload]])
                      for runs in (base, head))
            v = verdict(sa, sb, m["bound"], m["better"])
            worse |= v == "worse"
            print(f"{m['name']:16s} {workload:11s} "
                  f"{sa['median_seconds']:12.5g} "
                  f"[{sa['iqr_low_seconds']:8.5g},{sa['iqr_high_seconds']:8.5g}] "
                  f"{sb['median_seconds']:12.5g} "
                  f"[{sb['iqr_low_seconds']:8.5g},{sb['iqr_high_seconds']:8.5g}] "
                  f"{m['bound']:6.3f}  {v}")
    return 1 if worse else 0


# ---------------------------------------------------------------- main

def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("run.py: src/repro not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    # The fingerprint's git lookup must not climb out of the checkout.
    os.environ.setdefault("GIT_CEILING_DIRECTORIES", str(ROOT.parent))
    if argv[:1] == ["compare"]:
        ap = argparse.ArgumentParser(prog="run.py compare")
        ap.add_argument("--base", nargs="+", required=True,
                        help="results JSONs of the reference commit")
        ap.add_argument("--head", nargs="+", required=True,
                        help="results JSONs of the commit under test")
        args = ap.parse_args(argv[1:])
        return compare(args.base, args.head)

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS,
                    help="run one workload (default: all, one process each)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measured seconds per run (default: BENCHMARK.json "
                         "run_seconds, 1 with --smoke)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1),
                    help="per-layer run: wrap each layer, print per_layer")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and one cold start, for tests")
    ap.add_argument("--out", type=Path, default=HERE / "results",
                    help="directory for results JSONs and chrome traces")
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(
            load_spec()["run_seconds"])
    args.out.mkdir(parents=True, exist_ok=True)
    if args.workload is None:
        return run_all(args)

    try:
        doc = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace), args.smoke, args.out)
    finally:
        wl.stop_resource_tracker()
    name = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    (args.out / f"{name}.json").write_text(json.dumps(doc, indent=1) + "\n")
    print_report(doc)
    print(result_line(doc), flush=True)
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
