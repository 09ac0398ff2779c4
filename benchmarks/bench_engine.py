"""Benchmark the multicore engine.

Standalone (no pytest) so the CI quick lane and local profiling runs
share one entry point::

    PYTHONPATH=src python benchmarks/bench_engine.py            # full
    PYTHONPATH=src python benchmarks/bench_engine.py --quick    # CI lane

Measures `ParallelEngine.encode` over `encode_chunked`, and
`decode_chunked_with_stats` fanning its runs out over the engine, per
worker count, per dataset, at the requested buffer size.  Every
parallel run is first checked byte-identical against the serial path,
untimed; then one :func:`repro.bench.stats.measure_rounds` call times
its encode, its decode and the same shards encoded one after another on
one thread round-robin (warmup + repeats, median + IQR), so each case
carries its own stage breakdown, as the codec cases do.

An encode call's cost per byte depends on the buffer's size (a smaller
buffer's work arrays stay in cache), so `speedup_vs_1` — one call on the
whole buffer against `w` shards on `w` threads — counts the smaller
calls' cache behaviour as parallel speedup.  `speedup_vs_serial_shards`
compares the engine with those same shards encoded serially and merged:
the parallel part alone.  Decode needs no such baseline: its work items
are the decoder's own runs at any width.

Results append to the ``BENCH_engine.json`` trajectory at the repo
root (schema 2: ``{"schema": 2, "runs": [...]}``, newest run last,
each with its git sha / cpu count / timestamp) and overwrite the
human-readable ``benchmarks/results/bench_engine.txt``.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from functools import partial
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.bench.stats import (  # noqa: E402
    append_run,
    measure_rounds,
    new_run,
    summarize,
)
from repro.datasets import generate  # noqa: E402
from repro.engine import (  # noqa: E402
    ParallelEngine,
    merge_encode_results,
    shard_chunk_runs,
)
from repro.lzss.decoder import decode_chunked_with_stats  # noqa: E402
from repro.lzss.encoder import encode_chunked  # noqa: E402
from repro.lzss.formats import CUDA_V2  # noqa: E402

RESULTS_DIR = Path(__file__).parent / "results"

CHUNK_SIZE = 4096


# -------------------------------------------------------------- engine

def bench_engine(datasets: list[str], size_bytes: int,
                 workers_list: list[int],
                 repeats: int) -> tuple[dict[str, dict], bool]:
    """Encode/decode medians per worker count, identity-checked.

    Returns (cases, all_identical); a parallel run whose bytes diverge
    from the serial path invalidates the whole sweep.
    """
    cases: dict[str, dict] = {}
    all_identical = True
    for dataset in datasets:
        data = np.frombuffer(generate(dataset, size_bytes, seed=7),
                             dtype=np.uint8)
        baseline = encode_chunked(data, CUDA_V2, CHUNK_SIZE)
        base_med = None
        for workers in workers_list:
            bounds = shard_chunk_runs(data.size, CHUNK_SIZE, workers)

            def serial_shards():
                return merge_encode_results(
                    [encode_chunked(data[lo:hi], CUDA_V2, CHUNK_SIZE)
                     for lo, hi in bounds], CUDA_V2, CHUNK_SIZE, data.size)

            with ParallelEngine(workers=workers,
                                min_parallel_bytes=0) as engine:
                encode = partial(engine.encode, encode_chunked, data,
                                 CUDA_V2, CHUNK_SIZE)
                result = encode()
                decode = partial(decode_chunked_with_stats, result.payload,
                                 CUDA_V2, result.chunk_sizes, CHUNK_SIZE,
                                 result.input_size, engine=engine)
                identical = (result.payload == baseline.payload
                             and np.array_equal(result.chunk_sizes,
                                                baseline.chunk_sizes)
                             and serial_shards().payload == baseline.payload
                             and decode()[0] == data.tobytes())
                samples, stages = measure_rounds(
                    {"encode": encode, "decode": decode,
                     "serial_shards": serial_shards},
                    repeats=repeats, warmup=1)
            all_identical = all_identical and identical
            enc, dec = samples["encode"], samples["decode"]
            enc_med, dec_med = (statistics.median(enc),
                                statistics.median(dec))
            if base_med is None:
                base_med = enc_med
            key = f"{dataset}.w{workers}"
            cases[f"{key}.encode"] = summarize(
                enc,
                mb_s=round(size_bytes / enc_med / 1e6, 3),
                speedup_vs_1=round(base_med / enc_med, 3),
                speedup_vs_serial_shards=round(
                    statistics.median(samples["serial_shards"]) / enc_med, 3),
                identical=bool(identical), stages=stages["encode"])
            cases[f"{key}.decode"] = summarize(
                dec, mb_s=round(size_bytes / dec_med / 1e6, 3),
                stages=stages["decode"])
    return cases, all_identical


# -------------------------------------------------------------- report

def render(run: dict, all_identical: bool) -> str:
    meta, params = run["meta"], run["params"]
    lines = [
        "bench_engine: multicore codec",
        f"  mode={run['mode']}  cpu_count={meta['cpu_count']}  "
        f"repeats={params['repeats']}  python={meta['python']}  "
        f"git={meta.get('git_sha') or '?'}",
    ]
    if meta["cpu_count"] < max(params["workers"]):
        lines.append(
            f"  NOTE: only {meta['cpu_count']} core(s) available — "
            "worker sweeps cannot show parallel speedup on this host; "
            "treat the speedups as a merge-overhead check.")
    lines.append("")
    lines.append("  engine medians (CUDA_V2 tokens, 4 KiB chunks, "
                 "IQR in brackets):")
    for name, c in sorted(run["cases"].items()):
        tag = name.replace(".encode", " enc").replace(".decode", " dec")
        extra = (f"  speedup x{c['speedup_vs_1']:.2f}"
                 f"  vs serial shards x{c['speedup_vs_serial_shards']:.2f}"
                 f"  identical={c['identical']}"
                 if "speedup_vs_1" in c else "")
        lines.append(
            f"    {tag:<20} {c['median_seconds']*1e3:9.2f} ms "
            f"[{c['iqr_low_seconds']*1e3:.2f}..{c['iqr_high_seconds']*1e3:.2f}]"
            f"  {c['mb_s']:8.3f} MB/s{extra}")
    if not all_identical:
        lines.append("")
        lines.append("  FAIL: parallel output diverged from the serial path")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sizes for the CI lane")
    parser.add_argument("--size-mb", type=float, default=None,
                        help="engine buffer size in MiB "
                             "(default 8, quick 0.25)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed repeats per case (default 5, quick 3)")
    parser.add_argument("--workers", default=None,
                        help="comma-separated worker counts "
                             "(default 1,2,4; quick 1,2)")
    parser.add_argument("--datasets", default=None,
                        help="comma-separated datasets "
                             "(default cfiles,demap; quick cfiles)")
    parser.add_argument("--output", default=None,
                        help="trajectory path (default BENCH_engine.json)")
    parser.add_argument("--trace", nargs="?", const="BENCH_engine.trace.json",
                        default=None, metavar="FILE",
                        help="capture repro.obs spans during the engine "
                             "sweep and write a chrome-trace JSON "
                             "(default FILE: BENCH_engine.trace.json)")
    args = parser.parse_args(argv)

    mode = "quick" if args.quick else "full"
    size_mb = args.size_mb or (0.25 if args.quick else 8.0)
    repeats = args.repeats or (3 if args.quick else 5)
    workers = [int(w) for w in
               (args.workers or ("1,2" if args.quick else "1,2,4")).split(",")]
    datasets = (args.datasets
                or ("cfiles" if args.quick else "cfiles,demap")).split(",")
    size_bytes = int(size_mb * (1 << 20))

    if args.trace:
        from repro import obs
        from repro.obs import trace as obs_trace

        obs_trace.clear()
        with obs_trace.span("bench.engine_sweep",
                            trace_id=obs.new_trace_id(),
                            quick=args.quick):
            cases, all_identical = bench_engine(datasets, size_bytes,
                                                workers, repeats)
        trace_path = obs.write_chrome_trace(args.trace, obs_trace.spans())
        print(f"wrote {trace_path} ({len(obs_trace.spans())} spans)")
    else:
        cases, all_identical = bench_engine(datasets, size_bytes,
                                            workers, repeats)

    out_path = (Path(args.output) if args.output
                else REPO_ROOT / "BENCH_engine.json")
    run = new_run("engine", mode, cases,
                  params={"size_bytes": size_bytes, "repeats": repeats,
                          "workers": workers, "datasets": datasets,
                          "chunk_size": CHUNK_SIZE},
                  repo_root=REPO_ROOT)
    append_run(out_path, run)
    text = render(run, all_identical)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "bench_engine.txt").write_text(text + "\n")
    print(text)
    print(f"\nappended run to {out_path}")
    if not all_identical:
        print("FAIL: parallel output diverged from the serial path",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
