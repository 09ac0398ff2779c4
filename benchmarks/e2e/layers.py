"""Per-layer tracing for the traced benchmark run.

The benchmark times each layer from the outside: :class:`Tracer`
replaces each layer's public function (a module or class attribute)
with a wrapper that records a :func:`repro.obs.trace.span` around the
call, and puts the original back on :meth:`Tracer.uninstall`.  Callers
that look the attribute up at call time go through the wrapper; pool
workers forked while it is installed inherit it, and their spans come
home in the obs delta the stock gateway job already returns.

Every layer span carries a mutable ``layer`` attribute dict; a wrapper
may note a property of the call's result there (output length, chosen
codec, chunk count), which is how route shares and the trial's useful
work are counted without touching the program.

:func:`layer_metrics` turns the spans of a traced run into the
``per_layer`` metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics

from measure import percentile, self_times, union_length

#: Codecs registered by :mod:`repro.codecs`: (module, class, name).
CODECS = (("repro.codecs.store", "StoreCodec", "store"),
          ("repro.codecs.lzss", "LzssCodec", "lzss"),
          ("repro.codecs.lz4s", "Lz4sCodec", "lz4s"),
          ("repro.codecs.lzss_huffman", "LzssHuffmanCodec", "lzss-huffman"))
ROUTES = ("store", "lzss", "lz4s", "trial")


def _out_len(result) -> dict:
    return {"out": len(result)}


def _chunks(info) -> dict:
    return {"chunks": int(len(info.chunk_sizes))}


#: (module, attribute path, span name, note on the result).  The API
#: entry points are the roots of the library workloads' span trees,
#: ``GatewayClient.send_stream`` the root of the gateway's.
LAYERS = [
    ("repro.core", "gpu_compress", "api.compress", None),
    ("repro.core", "gpu_decompress", "api.decompress", None),
    ("repro.lzss.encoder", "best_matches", "lzss.match", None),
    ("repro.lzss.encoder", "greedy_token_starts", "lzss.parse", None),
    ("repro.lzss.encoder", "pack_tokens", "lzss.pack", None),
    # lzss-huffman runs the same match and parse on every trial chunk.
    ("repro.codecs.lzss_huffman", "best_matches", "lzss.match", None),
    ("repro.codecs.lzss_huffman", "greedy_token_starts", "lzss.parse", None),
    ("repro.core.api", "decode_chunked_with_stats", "lzss.decode", None),
    ("repro.core.api", "sample_match_statistics", "model", None),
    ("repro.core.v1", "V1Compressor.profile", "model", None),
    ("repro.core.v2", "V2Compressor.profile", "model", None),
    ("repro.core.decompress", "GpuDecompressor.profile", "model", None),
    ("repro.core.api", "pack_container", "container.pack", None),
    ("repro.core.api", "unpack_container", "container.unpack", _chunks),
    ("repro.codecs.dispatch", "choose_chunk_codec", "codecs.choose",
     lambda route: {"out": route}),
    *[(mod, f"{cls}.{method}", f"codecs.{name}.{method}",
       _out_len if method == "encode_chunk" else None)
      for mod, cls, name in CODECS
      for method in ("encode_chunk", "encode_run", "decode_chunk")],
    ("repro.lzss.matcher", "probe_incompressible", "service.probe", None),
    ("repro.service.gateway", "write_frame", "service.frame_write", None),
    ("repro.service.protocol", "decode_frame", "service.frame_read", None),
    ("repro.service.pipeline", "decode_payload", "service.egress.decode",
     None),
    ("repro.service.gateway", "GatewayClient.send_stream", "service.stream",
     None),
]


def is_layer(span) -> bool:
    return "layer" in span.attrs


def _wrap(fn, name, note):
    from repro.obs import trace

    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def awrapper(*args, **kwargs):
            info = {}
            with trace.span(name, layer=info):
                result = await fn(*args, **kwargs)
                if note is not None:
                    info.update(note(result))
                return result
        return awrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        info = {}
        with trace.span(name, layer=info):
            result = fn(*args, **kwargs)
            if note is not None:
                info.update(note(result))
            return result
    return wrapper


class Tracer:
    """Installs and removes the layer wrappers of :data:`LAYERS`.

    Only attributes a module or class defines itself are wrapped (an
    inherited method is reached through the subclass's own override or
    not at all), so uninstalling is a plain ``setattr`` of the saved
    original.
    """

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        from repro import obs
        from repro.obs import trace

        if self._saved:
            return
        obs.enable()
        trace.set_capacity(1 << 18)
        for module, path, name, note in LAYERS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner).get(attr)
            if original is None:
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(original, name, note))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# -------------------------------------------------------------- metrics

#: Program counters the per-layer metrics read.
COUNTERS = ("matcher.lag_compares", "container.crc_checks")


def program_counters() -> dict:
    """Current values of :data:`COUNTERS` in this process's registry."""
    from repro import obs

    reg = obs.get_registry()
    return {k: reg.count(k) for k in COUNTERS}


#: Layer name -> span names whose self time it sums.
SELF_LAYERS = {
    "lzss.match": ("lzss.match",),
    "lzss.parse": ("lzss.parse",),
    "lzss.pack": ("lzss.pack",),
    "lzss.decode": ("lzss.decode",),
    "model": ("model",),
    "container.pack": ("container.pack",),
    "container.unpack": ("container.unpack",),
    "codecs.choose": ("codecs.choose",),
    "codecs.decode": tuple(f"codecs.{n}.decode_chunk" for *_, n in CODECS),
    **{f"codecs.{n}.encode": (f"codecs.{n}.encode_chunk",
                              f"codecs.{n}.encode_run")
       for *_, n in CODECS},
}


def _median_ms(durations) -> float:
    return 1e3 * statistics.median(durations) if durations else 0.0


def layer_metrics(spans, *, wall: float, in_bytes: int, driver_pid: int,
                  counters: dict, service: dict | None = None) -> dict:
    """The ``per_layer`` metric values of one traced run.

    ``spans`` holds every span recorded while tracing (program spans
    included: they link layer spans to their layer parents) from every
    process; ``wall`` the traced seconds; ``in_bytes`` the input bytes
    processed in them; ``driver_pid`` the process whose uncovered time
    is ``unattributed_share``.  ``counters`` are program counter deltas
    over the traced run (``matcher.lag_compares``,
    ``container.crc_checks``, the gateway's ``ingress.*``), and
    ``service`` the gateway-only figures measured outside spans.
    Layers a workload never enters report 0.
    """
    mb = in_bytes / 1e6
    own = self_times(spans, is_layer)
    layer = [s for s in spans if is_layer(s)]
    by_name: dict[str, list] = {}
    for s in layer:
        by_name.setdefault(s.name, []).append(s)

    def self_s(names) -> float:
        return sum(own[s.span_id] for n in names for s in by_name.get(n, ()))

    m = {}
    for key, names in SELF_LAYERS.items():
        m[f"{key}.s_per_mb"] = self_s(names) / mb if mb else 0.0
    for key in ("lzss.match", "lzss.decode", "model"):
        m[f"{key}.share"] = self_s(SELF_LAYERS[key]) / wall if wall else 0.0
    m["lzss.match.compares_per_byte"] = (
        counters.get("matcher.lag_compares", 0) / in_bytes
        if in_bytes else 0.0)
    chunks = sum(s.attrs["layer"].get("chunks", 0)
                 for s in by_name.get("container.unpack", ()))
    m["container.crc_checks_per_chunk"] = (
        counters.get("container.crc_checks", 0) / chunks if chunks else 0.0)

    routes = [s.attrs["layer"].get("out") for s in by_name.get(
        "codecs.choose", ())]
    for route in ROUTES:
        m[f"codecs.route.{route}.share"] = (
            routes.count(route) / len(routes) if routes else 0.0)
    # The trial encodes each chunk with lzss, then lzss-huffman, and
    # keeps the smaller; nothing else calls encode_chunk in auto mode.
    as_lzss = sorted(by_name.get("codecs.lzss.encode_chunk", ()),
                     key=lambda s: s.start)
    as_huff = sorted(by_name.get("codecs.lzss-huffman.encode_chunk", ()),
                     key=lambda s: s.start)
    spent = useful = 0.0
    for a, b in zip(as_lzss, as_huff):
        spent += a.duration + b.duration
        won = b if b.attrs["layer"]["out"] < a.attrs["layer"]["out"] else a
        useful += won.duration
    m["codecs.trial.useful_ratio"] = useful / spent if spent else 0.0

    svc = service or {}
    m["engine.shm.frames"] = counters.get("ingress.shm_frames", 0)
    m["engine.shm.fallbacks"] = counters.get("ingress.shm_fallbacks", 0)
    for key, name in (("service.frame_write.ms", "service.frame_write"),
                      ("service.frame_read.ms", "service.frame_read"),
                      ("service.probe.ms", "service.probe"),
                      ("service.egress.decode_ms", "service.egress.decode")):
        m[key] = _median_ms([s.duration for s in by_name.get(name, ())])
    frames = counters.get("ingress.frames_out", 0)
    wait = counters.get("ingress.stage_wait_seconds", 0.0)
    # Worker-side encode time: the program's own per-frame span, shipped
    # home from the pool in each job's obs delta.
    encode = sum(s.duration for s in spans if s.name == "gateway.frame"
                 and s.attrs.get("op") == "encode" and s.pid != driver_pid)
    m["service.ingress.wait_ms"] = 1e3 * wait / frames if frames else 0.0
    m["service.pool.handoff_ms"] = (1e3 * (wait - encode) / frames
                                    if frames else 0.0)
    m["service.raw_share"] = (counters.get("ingress.raw_frames", 0) / frames
                              if frames else 0.0)
    latency = svc.get("latency_s")
    m["service.frame_p95_ms"] = 1e3 * percentile(latency, 95) if latency else 0.0
    late = svc.get("late_s")
    m["service.gen_late_ms"] = 1e3 * statistics.fmean(late) if late else 0.0

    covered = union_length((s.start, s.start + s.duration) for s in layer
                           if s.pid == driver_pid)
    m["unattributed_share"] = max(0.0, wall - covered) / wall if wall else 0.0
    return m
