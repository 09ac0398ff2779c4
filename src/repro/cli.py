"""``culzss`` — the standalone file compressor (the paper's I/O version).

§III: "The other version is the I/O version which is a standalone
compression program.  It follows the same flow except reading from and
writing to the given files."

Usage::

    culzss compress   INPUT OUTPUT [--version {1,2}] [--system SYSTEM]
                      [--workers N] [--codec C]
    culzss decompress INPUT OUTPUT [--salvage [--fill-byte B]]
    culzss info       INPUT
    culzss bench      [--size-mb N] [--datasets a,b,...]
    culzss report     [--size-mb N] [--output FILE]
    culzss serve      [--host H] [--port P] [--output-dir DIR]
                      [--metrics-port P] ...
    culzss send       [INPUT ...] [--dataset KIND --count N] ...
    culzss stats      [INPUT] [--format {pretty,json,prom}] ...
    culzss trace      INPUT [--output FILE] [--workers N] ...
    culzss benchgate  BASE HEAD [--attribute]
    culzss top        --port P [--plain] [--interval S]

``serve``/``send`` run the streaming gateway pair (`repro.service`):
``serve`` is the egress gateway (decompress + deliver), ``send`` the
ingress gateway (compress + ship); both print a metrics snapshot on
exit (``send`` with ``--metrics``): the gateway registry merged with
the process-global one, the union the metrics sidecar serves.

``stats``/``trace`` surface the :mod:`repro.obs` observability layer:
``stats`` runs a compress/decompress round trip and prints the metric
registry (matcher probes, encoder stage timings, container CRC events,
engine shard stats) as a table, JSON, or Prometheus text; ``trace``
compresses a file with span capture on and writes a chrome-trace JSON
loadable in ``chrome://tracing`` / Perfetto.  ``serve
--metrics-port P`` additionally exposes a live ``/metrics`` scrape.

``benchgate`` pairs the runs of two ``benchmarks/bench_codecs.py``
trajectories, the parent's and the head's, and fails (exit 1) when a
case's median head/base ratio exceeds 1.25; ``--attribute`` names the
stage(s) whose time share grew.
``top`` is a live dashboard (curses, or ``--plain``) over a ``serve
--metrics-port`` sidecar, showing throughput, queue depths, latency
quantiles, degraded-mode counters, per-codec dispatch, and SLO state.

``compress``/``decompress``/``serve`` all take ``--profile FILE``: a
sampling profiler (``repro.obs.prof``) runs for the duration — in pool
workers too — and writes a speedscope JSON plus folded stacks on exit.

``--system`` selects any of the five evaluated systems (culzss-v1,
culzss-v2, serial, pthread, bzip2); CULZSS/serial outputs are
self-describing containers, so ``decompress`` needs no flags.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

__all__ = ["build_parser", "main"]


@contextmanager
def _profiled(path: str | None, hz: float | None):
    """Run the wrapped command under the sampling profiler.

    No-op when ``path`` is falsy.  Sets ``REPRO_PROFILE_HZ`` for the
    duration so any pool workers the command spawns sample themselves
    too; their drains ride home inside the obs deltas and the final
    export covers every pid in one speedscope document (plus a
    ``.collapsed`` folded-stack sibling).
    """
    if not path:
        yield
        return
    import os

    from repro.obs import prof

    prior = os.environ.get(prof.ENV_HZ)
    os.environ[prof.ENV_HZ] = str(hz if hz else prof.DEFAULT_HZ)
    prof.start(hz)
    try:
        yield
    finally:
        prof.stop()
        if prior is None:
            os.environ.pop(prof.ENV_HZ, None)
        else:
            os.environ[prof.ENV_HZ] = prior
        prof.export(path)


def _add_profile_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--profile", default=None, metavar="FILE",
                   help="sample this command's stacks and write a "
                        "speedscope JSON to FILE (plus a .collapsed "
                        "folded-stack sibling); pool workers are "
                        "sampled too")
    p.add_argument("--profile-hz", type=float, default=None,
                   help="sampling frequency (default ~97 Hz, or "
                        "REPRO_PROFILE_HZ)")


def _cmd_compress(args: argparse.Namespace) -> int:
    data = Path(args.input).read_bytes()
    system = args.system or f"culzss-v{args.version}"
    if system not in ("culzss-v1", "culzss-v2") and args.codec != "lzss":
        print(f"--codec applies to the culzss systems, not {system!r}",
              file=sys.stderr)
        return 2
    if system in ("culzss-v1", "culzss-v2"):
        from repro.core import CompressionParams, gpu_compress

        version = 1 if system.endswith("1") else 2
        buf = gpu_compress(data, CompressionParams(version=version),
                           workers=args.workers, codec=args.codec)
        blob = buf.data
        timing = ("" if args.codec != "lzss" else
                  f", modeled GTX-480 time {buf.modeled_seconds:.4f}s")
        print(f"{system}[{args.codec}]: {len(data)} -> {len(blob)} bytes "
              f"(ratio {buf.ratio:.4f}{timing})")
    elif system == "serial":
        from repro.cpu import SerialLzss

        blob = SerialLzss().compress_container(data)
        print(f"serial: {len(data)} -> {len(blob)} bytes")
    elif system == "pthread":
        from repro.container import pack_container
        from repro.cpu import PthreadLzss

        with PthreadLzss(n_threads=args.workers or None) as pthread:
            blob = pack_container(pthread.compress(data))
        print(f"pthread: {len(data)} -> {len(blob)} bytes")
    elif system == "bzip2":
        from repro.bzip2 import compress

        blob = compress(data).blob
        print(f"bzip2: {len(data)} -> {len(blob)} bytes")
    else:
        print(f"unknown system {system!r}", file=sys.stderr)
        return 2
    Path(args.output).write_bytes(blob)
    return 0


def _cmd_decompress(args: argparse.Namespace) -> int:
    from repro.errors import ReproError

    blob = Path(args.input).read_bytes()
    rc = 0
    try:
        if blob[:4] == b"RBZ2":
            from repro.bzip2 import decompress

            out = decompress(blob)
        elif blob[:4] == b"CLZS":
            from repro.container import unpack_container

            # Route on header and chunk table only: the one CRC pass is
            # gpu_decompress's, or the strict unpack below.
            info = unpack_container(blob, strict=False)
            if info.is_chunked:
                from repro.core import gpu_decompress

                res = gpu_decompress(
                    blob, errors="salvage" if args.salvage else "strict",
                    fill_byte=args.fill_byte)
                out = res.data
                if res.salvage is not None:
                    print(f"salvage: {res.salvage.describe()}")
                    if not res.salvage.complete:
                        rc = 1
            else:
                from repro.lzss import decode

                info = unpack_container(blob, strict=not args.salvage)
                out = decode(info.payload, info.format, info.original_size)
        else:
            print("unrecognized container magic", file=sys.stderr)
            return 2
    except ReproError as exc:
        print(f"decompress failed: {exc}", file=sys.stderr)
        if not args.salvage:
            print("hint: --salvage recovers intact chunks from a "
                  "damaged container", file=sys.stderr)
        return 2
    Path(args.output).write_bytes(out)
    print(f"{len(blob)} -> {len(out)} bytes")
    return rc


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.errors import ReproError

    blob = Path(args.input).read_bytes()
    if blob[:4] == b"RBZ2":
        print("format: bzip2-style container")
        return 0
    if blob[:4] != b"CLZS":
        print("unrecognized container magic", file=sys.stderr)
        return 2
    from repro.container import unpack_container

    try:
        info = unpack_container(blob)
    except ReproError as exc:
        print(f"info failed: {exc}", file=sys.stderr)
        return 2
    print(f"format: {info.format.name}")
    print(f"container version: {info.version}")
    print(f"original size: {info.original_size}")
    print(f"payload size: {len(info.payload)}")
    if info.is_chunked:
        print(f"chunks: {len(info.chunk_sizes)} x {info.chunk_size} bytes")
        print(f"chunk table overhead: {info.container_overhead} bytes")
        print("per-chunk CRCs: "
              + ("yes" if info.chunk_crcs is not None else "no"))
    if info.chunk_codecs is not None:
        from repro.codecs import get_codec

        print("per-chunk codecs:")
        for c, cid in enumerate(info.chunk_codecs):
            raw = min(info.chunk_size,
                      info.original_size - c * info.chunk_size)
            ratio = (f"{int(info.chunk_sizes[c]) / raw:.4f}" if raw > 0
                     else "-")
            name = get_codec(int(cid)).name
            print(f"  chunk {c}: codec {int(cid)} ({name}), "
                  f"{int(info.chunk_sizes[c])} bytes (ratio {ratio})")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import os

    if args.size_mb:
        os.environ["REPRO_BENCH_MB"] = str(args.size_mb)
    from repro.bench import run_all
    from repro.model.report import experiments_markdown

    md = experiments_markdown(run_all())
    if args.output:
        Path(args.output).write_text(md + "\n")
        print(f"wrote {args.output}")
    else:
        print(md)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import os

    if args.size_mb:
        os.environ["REPRO_BENCH_MB"] = str(args.size_mb)
    from repro.bench import (
        format_figure4,
        format_table,
        run_all,
        table1_rows,
        table2_rows,
        table3_rows,
    )

    datasets = args.datasets.split(",") if args.datasets else None
    runs = run_all(datasets=datasets)
    print(format_table(table1_rows(runs),
                       "TABLE I: compression times (128 MB, modeled)"))
    print()
    print(format_table(table2_rows(runs), "TABLE II: compression ratios",
                       percent=True))
    print()
    print(format_table(table3_rows(runs), "TABLE III: decompression times"))
    print()
    print(format_figure4(runs))
    return 0


def _print_metrics(metrics) -> None:
    """Print the gateway registry merged with the process-global one —
    the union the metrics sidecar serves."""
    import json

    from repro import obs

    snap = obs.merge_snapshots(obs.get_registry().snapshot(),
                               metrics.snapshot())
    print("metrics snapshot:")
    print(json.dumps(snap, indent=2, sort_keys=True))


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.obs import MetricRegistry
    from repro.service import GatewayServer

    if args.log_json:
        from repro.obs import log as obslog

        obslog.configure()
    metrics = MetricRegistry()
    out_dir = Path(args.output_dir) if args.output_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    async def deliver(stream_id: int, seq: int, data: bytes) -> None:
        if out_dir:
            # delivery is strictly in sequence order, so appending
            # reassembles each stream into one file
            mode = "wb" if seq == 0 else "ab"
            with open(out_dir / f"stream-{stream_id}.bin", mode) as fh:
                fh.write(data)

    async def run() -> None:
        accept = (args.accept_codecs.split(",") if args.accept_codecs
                  else None)
        server = GatewayServer(args.host, args.port, workers=args.workers,
                               queue_depth=args.queue_depth,
                               timeout=args.timeout, metrics=metrics,
                               metrics_port=args.metrics_port,
                               accept_codecs=accept,
                               deliver=deliver)
        await server.start()
        print(f"listening on {server.host}:{server.port}", flush=True)
        if server.metrics_port is not None:
            print(f"metrics on http://{server.host}:{server.metrics_port}"
                  f"/metrics", flush=True)
        try:
            if args.max_conns:
                await server.wait_connections(args.max_conns)
            else:
                await asyncio.Event().wait()  # until interrupted
        finally:
            await server.close()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("interrupted; draining")
    _print_metrics(metrics)
    return 0


def _cmd_send(args: argparse.Namespace) -> int:
    import asyncio

    from repro.obs import MetricRegistry
    from repro.service import GatewayClient

    if args.inputs:
        buffers = [Path(p).read_bytes() for p in args.inputs]
    else:
        from repro.datasets import generate

        buffers = [generate(args.dataset, args.buffer_size, seed=1000 + i)
                   for i in range(args.count)]
    metrics = MetricRegistry()

    async def run():
        client = GatewayClient(args.host, args.port, version=args.version,
                               workers=args.workers,
                               queue_depth=args.queue_depth,
                               timeout=args.timeout, retries=args.retries,
                               metrics=metrics, codec=args.codec)
        async with client:
            if client.codec != args.codec:
                print(f"gateway declined codec {args.codec!r}; "
                      f"using {client.codec!r}")
            return await client.send_stream(buffers, stream_id=args.stream_id)

    from repro.service import FrameError

    try:
        ack = asyncio.run(run())
    except (ConnectionError, OSError, TimeoutError, asyncio.TimeoutError,
            FrameError) as exc:
        print(f"send failed: {exc!r}", file=sys.stderr)
        return 2
    sent = sum(len(b) for b in buffers)
    wire = metrics.count("ingress.bytes_out")
    print(f"sent {len(buffers)} buffers ({sent} bytes) -> {wire} bytes "
          f"on the wire (ratio {wire / sent:.4f})" if sent else
          f"sent {len(buffers)} empty buffers")
    print(f"egress delivered {ack.frames} frames / {ack.bytes} bytes, "
          f"CRC verified")
    if args.metrics:
        _print_metrics(metrics)
    return 0


def _cmd_benchgate(args: argparse.Namespace) -> int:
    from repro.bench.gate import run_gate

    return run_gate(Path(args.base), Path(args.head),
                    attribute=args.attribute)


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.top import run_top

    return run_top(args.host, args.port, interval=args.interval,
                   iterations=args.iterations, plain=args.plain)


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro import obs

    if not obs.enabled():
        print("observability is disabled (REPRO_OBS=0); nothing to record",
              file=sys.stderr)
        return 2
    if args.input:
        data = Path(args.input).read_bytes()
    else:
        from repro.datasets import generate

        data = generate(args.dataset, args.size)
    from repro.core import CompressionParams, gpu_compress, gpu_decompress

    buf = gpu_compress(data, CompressionParams(version=args.version),
                       workers=args.workers)
    res = gpu_decompress(buf.data, workers=args.workers)
    if res.data != data:  # pragma: no cover - codec invariant
        print("round trip mismatch", file=sys.stderr)
        return 2
    snap = obs.get_registry().snapshot()
    if args.format == "json":
        print(obs.json_text(snap))
    elif args.format == "prom":
        print(obs.prometheus_text(snap), end="")
    else:
        print(obs.format_pretty(snap))
        print()
        print("per-stage throughput ledger:")
        print(obs.format_ledger(obs.ledger(snap)))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.obs import trace
    from repro.service.pipeline import decode_payload, encode_payload

    if not obs.enabled():
        print("observability is disabled (REPRO_OBS=0); nothing to trace",
              file=sys.stderr)
        return 2
    data = Path(args.input).read_bytes()
    from repro.engine.parallel import MIN_PARALLEL_BYTES

    if args.workers > 1 and len(data) < MIN_PARALLEL_BYTES:
        print(f"note: {len(data)}-byte input is below the "
              f"{MIN_PARALLEL_BYTES}-byte parallel threshold; the trace "
              f"will show the serial path (no engine.shard spans)",
              file=sys.stderr)
    tid = trace.new_trace_id()
    flags, payload = encode_payload(data, args.version,
                                    workers=args.workers, trace_id=tid)
    if not args.no_decode:
        decode_payload(flags, payload, workers=args.workers, trace_id=tid)
    spans = trace.spans()
    out = Path(args.output or args.input + ".trace.json")
    obs.write_chrome_trace(out, spans)
    by_name: dict[str, int] = {}
    for s in spans:
        by_name[s.name] = by_name.get(s.name, 0) + 1
    print(f"wrote {out}: {len(spans)} spans over trace {tid:#x}")
    for name in sorted(by_name):
        print(f"  {by_name[name]:6d}  {name}")
    return 0


def _byte(text: str) -> int:
    """argparse type for one byte value, 0..255."""
    if not (text.isdecimal() and int(text) <= 255):
        raise argparse.ArgumentTypeError(f"{text!r} is not a byte (0..255)")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="culzss",
        description="CULZSS reproduction: LZSS compression on simulated CUDA")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress a file")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--version", type=int, choices=(1, 2), default=2,
                   help="CULZSS version (the API's version parameter)")
    p.add_argument("--system", choices=("culzss-v1", "culzss-v2", "serial",
                                        "pthread", "bzip2"),
                   help="which evaluated system to use")
    p.add_argument("--workers", type=int, default=None,
                   help="shard the encode across N cores "
                        "(byte-identical output; default: serial)")
    p.add_argument("--codec", default="lzss",
                   choices=("auto", "store", "lzss", "lz4s", "lzss-huffman"),
                   help="per-chunk codec for the culzss systems; 'auto' "
                        "probes each chunk and writes a v3 container")
    _add_profile_args(p)
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("decompress", help="decompress a container file")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--salvage", action="store_true",
                   help="recover what a damaged container still holds: "
                        "bad chunks become fill bytes and are reported "
                        "(exit 1 on partial loss)")
    p.add_argument("--fill-byte", type=_byte, default=0,
                   help="fill value for unrecoverable chunks (0..255)")
    _add_profile_args(p)
    p.set_defaults(func=_cmd_decompress)

    p = sub.add_parser("info", help="describe a container file")
    p.add_argument("input")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("report", help="emit the EXPERIMENTS.md comparison")
    p.add_argument("--size-mb", type=float, default=None)
    p.add_argument("--output", default=None, help="write to a file")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("bench", help="regenerate the paper's tables")
    p.add_argument("--size-mb", type=float, default=None,
                   help="benchmark input size in MiB (default 1)")
    p.add_argument("--datasets", default=None,
                   help="comma-separated dataset subset")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("serve", help="run the egress gateway server")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (0 picks a free one and prints it)")
    p.add_argument("--workers", type=int, default=0,
                   help="decompression fan-out processes (0: one frame at "
                        "a time on one thread)")
    p.add_argument("--queue-depth", type=int, default=8,
                   help="bounded frames in flight per pipeline stage")
    p.add_argument("--timeout", type=float, default=30.0,
                   help="per-frame read/write timeout in seconds")
    p.add_argument("--output-dir", default=None,
                   help="reassemble delivered streams into DIR/stream-N.bin")
    p.add_argument("--max-conns", type=int, default=0,
                   help="exit after N connections (0: serve until ^C)")
    p.add_argument("--metrics-port", type=int, default=None,
                   help="serve Prometheus /metrics (plus /metrics.json and "
                        "/slo.json) on this sidecar port (0 picks a free "
                        "one)")
    p.add_argument("--log-json", action="store_true",
                   help="emit structured JSON log lines (one per degraded "
                        "event, trace-id correlated) on stderr")
    p.add_argument("--accept-codecs", default=None,
                   help="comma-separated codec names answered in the NEG "
                        "handshake (default: everything registered)")
    _add_profile_args(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("send", help="send buffers through an ingress gateway")
    p.add_argument("inputs", nargs="*",
                   help="files to send (default: generated dataset traffic)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--version", type=int, choices=(1, 2), default=2,
                   help="CULZSS version (the API's version parameter)")
    p.add_argument("--workers", type=int, default=2,
                   help="compression fan-out processes")
    p.add_argument("--queue-depth", type=int, default=8,
                   help="bounded frames in flight (backpressure bound)")
    p.add_argument("--timeout", type=float, default=30.0)
    p.add_argument("--retries", type=int, default=3,
                   help="transient-failure retries (exponential backoff)")
    p.add_argument("--stream-id", type=int, default=0)
    p.add_argument("--dataset", default="cfiles",
                   help="dataset kind for generated traffic")
    p.add_argument("--count", type=int, default=4,
                   help="generated buffers to send")
    p.add_argument("--buffer-size", type=int, default=65536,
                   help="generated buffer size in bytes")
    p.add_argument("--metrics", action="store_true",
                   help="dump the client metrics snapshot on exit")
    p.add_argument("--codec", default="lzss",
                   choices=("auto", "store", "lzss", "lz4s", "lzss-huffman"),
                   help="container codec, negotiated with the egress "
                        "gateway at connect (falls back to lzss)")
    p.set_defaults(func=_cmd_send)

    p = sub.add_parser("benchgate",
                       help="paired benchmark regression gate")
    p.add_argument("base", help="the parent's bench_codecs.py trajectory")
    p.add_argument("head", help="the head's trajectory, its runs "
                                "alternated with base's")
    p.add_argument("--attribute", action="store_true",
                   help="on regression, diff the per-stage time shares "
                        "of the two sides' recorded breakdowns and name "
                        "the suspect stage(s)")
    p.set_defaults(func=_cmd_benchgate)

    p = sub.add_parser("top",
                       help="live dashboard over a gateway metrics sidecar")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True,
                   help="the gateway's --metrics-port")
    p.add_argument("--interval", type=float, default=2.0,
                   help="seconds between refreshes")
    p.add_argument("--iterations", type=int, default=None,
                   help="exit after N refreshes (default: run until ^C)")
    p.add_argument("--plain", action="store_true",
                   help="print refresh blocks instead of the curses UI")
    p.set_defaults(func=_cmd_top)

    p = sub.add_parser("stats",
                       help="run a round trip and print the obs registry")
    p.add_argument("input", nargs="?", default=None,
                   help="file to round-trip (default: generated dataset)")
    p.add_argument("--format", choices=("pretty", "json", "prom"),
                   default="pretty", help="output format")
    p.add_argument("--version", type=int, choices=(1, 2), default=2,
                   help="CULZSS version (the API's version parameter)")
    p.add_argument("--workers", type=int, default=None,
                   help="shard the codec across N cores")
    p.add_argument("--dataset", default="cfiles",
                   help="dataset kind when no input file is given")
    p.add_argument("--size", type=int, default=1 << 20,
                   help="generated buffer size in bytes (default 1 MiB)")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("trace",
                       help="compress a file and write a chrome-trace JSON")
    p.add_argument("input", help="file to compress under span capture")
    p.add_argument("--output", default=None,
                   help="trace file path (default: INPUT.trace.json)")
    p.add_argument("--version", type=int, choices=(1, 2), default=2,
                   help="CULZSS version (the API's version parameter)")
    p.add_argument("--workers", type=int, default=2,
                   help="engine shard width (>1 shows engine.shard spans "
                        "for inputs past the parallel threshold)")
    p.add_argument("--no-decode", action="store_true",
                   help="trace the compress half only")
    p.set_defaults(func=_cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Only the subcommands given _add_profile_args have the attributes.
    with _profiled(getattr(args, "profile", None),
                   getattr(args, "profile_hz", None)):
        return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
