"""Benchmark the pluggable codecs and the content-aware dispatcher.

Standalone (no pytest) so the CI quick lane and local profiling runs
share one entry point::

    PYTHONPATH=src python benchmarks/bench_codecs.py            # full
    PYTHONPATH=src python benchmarks/bench_codecs.py --quick    # CI lane

Measures every registered codec (store, lzss, lz4s, lzss-huffman) plus
the ``auto`` dispatcher and the container reader through
:func:`repro.bench.gate.codec_cases`.  Every case runs once per round,
so a burst of host noise moves one sample of each case rather than one
case's median.  Every encode case carries its compression ratio next to
its throughput; the rendered report adds the two headline comparisons
this subsystem exists for:

* ``lz4s`` encode time vs ``lzss`` (the speed-tuned codec must actually
  be faster): the median of the per-round lz4s/lzss time ratios must
  stay below 1 (:func:`repro.bench.stats.paired_verdict`);
* ``auto`` ratio vs ``lzss`` (the dispatcher must never lose more
  than noise to the single-codec baseline).

Results append to the ``BENCH_codecs.json`` trajectory at the repo
root, or to ``--output`` (schema 2, newest run last, through
:mod:`repro.bench.stats`), and overwrite the human-readable
``benchmarks/results/bench_codecs.txt``.  ``--profile FILE`` samples
the measurement and writes a speedscope JSON plus a ``.collapsed``
sibling.  CI's bench-codecs job runs the parent's and the head's copies
of this script in alternation, ten runs each into ``base.json`` and
``head.json``, and ``culzss benchgate base.json head.json`` judges
them.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.gate import CHUNK_SIZE, MODES, codec_cases  # noqa: E402
from repro.bench.stats import (  # noqa: E402
    append_run, new_run, paired_verdict)

RESULTS_DIR = Path(__file__).parent / "results"


def render(run: dict) -> str:
    meta, params = run["meta"], run["params"]
    lines = [
        "bench_codecs: per-chunk codecs + auto dispatcher",
        f"  mode={run['mode']}  size={params['size_bytes']} B  "
        f"repeats={params['repeats']}  chunk={params['chunk_size']} B  "
        f"python={meta['python']}  git={meta.get('git_sha') or '?'}",
        "",
        "  medians (cfiles corpus, IQR in brackets):",
    ]
    names = sorted({n.split(".")[1] for n in run["cases"]
                    if n.startswith("codec.")})
    for name in names:
        enc = run["cases"][f"codec.{name}.encode"]
        dec = run["cases"][f"codec.{name}.decode"]
        lines.append(
            f"    {name:<13} enc {enc['median_seconds']*1e3:9.2f} ms "
            f"[{enc['iqr_low_seconds']*1e3:.2f}.."
            f"{enc['iqr_high_seconds']*1e3:.2f}] {enc['mb_s']:8.3f} MB/s  "
            f"ratio {enc['ratio']:.4f}   dec {dec['median_seconds']*1e3:8.2f}"
            f" ms {dec['mb_s']:8.3f} MB/s")
    lz4s = run["cases"]["codec.lz4s.encode"]
    lzss = run["cases"]["codec.lzss.encode"]
    auto = run["cases"]["codec.auto.encode"]
    # One lz4s/lzss ratio per round: both ran in the same round.
    faster = paired_verdict([a / b for a, b in zip(lz4s["samples"],
                                                   lzss["samples"])], 0.0)
    lines.append("")
    lines.append(f"  lz4s/lzss encode time, median of {faster['n']} rounds: "
                 f"x{faster['median']:.2f} [{faster['low']:.2f}, "
                 f"{faster['high']:.2f}] "
                 f"({'OK' if faster['ok'] else 'FAIL: not faster'})")
    ratio_ok = auto["ratio"] <= lzss["ratio"] * 1.01
    lines.append(f"  auto ratio {auto['ratio']:.4f} vs lzss "
                 f"{lzss['ratio']:.4f} "
                 f"({'OK' if ratio_ok else 'FAIL: >1% worse'})")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sizes for the CI lane")
    parser.add_argument("--size-bytes", type=int, default=None,
                        help="corpus size in bytes (default: the gate's "
                             "mode workload, so runs stay comparable)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed repeats per case (default: gate mode)")
    parser.add_argument("--output", default=None,
                        help="trajectory path (default BENCH_codecs.json)")
    parser.add_argument("--profile", default=None, metavar="FILE",
                        help="sample the measurement and write a speedscope "
                             "JSON to FILE (plus a .collapsed sibling)")
    args = parser.parse_args(argv)

    mode = "quick" if args.quick else "full"
    mode_size, mode_repeats, warmup = MODES[mode]
    size_bytes = args.size_bytes or mode_size
    repeats = args.repeats or mode_repeats

    if args.profile:
        from repro.obs import prof

        prof.start()
    try:
        cases = codec_cases(size_bytes, repeats=repeats, warmup=warmup)
    finally:
        if args.profile:
            prof.stop()
            prof.export(args.profile)
    out_path = (Path(args.output) if args.output
                else REPO_ROOT / "BENCH_codecs.json")
    run = new_run("codecs", mode, cases,
                  params={"size_bytes": size_bytes, "repeats": repeats,
                          "chunk_size": CHUNK_SIZE},
                  repo_root=REPO_ROOT)
    append_run(out_path, run)
    text = render(run)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "bench_codecs.txt").write_text(text + "\n")
    print(text)
    print(f"\nappended run to {out_path}")
    return 0 if "FAIL" not in text else 1


if __name__ == "__main__":
    sys.exit(main())
