"""Seeded inputs and the four workloads of the end-to-end benchmark.

Every input byte derives from the ``--seed`` alone (:func:`make_inputs`);
the program under test receives only the generated bytes, through its
public API: ``repro.core.gpu_compress``/``gpu_decompress`` for the
library workloads and ``repro.service.GatewayServer``/``GatewayClient``
for the gateway.  Each workload is a single-process load generator that
checks every output byte for byte and counts failures against attempts.

Library workloads run in *rounds* (one pass over the workload's mix)
until ``seconds`` have elapsed; throughput is the median over rounds.
In a traced run the rounds alternate untraced and traced, which gives
both the per-layer spans and the tracing overhead from one process.

Every end-to-end timing is scaled by the host :func:`measure.slowdown`
sampled next to it (around each quarter second of library calls, around
each closed-loop stream, once per open-loop frame), so it reads as on
the nominal host; the raw figures and the slowdown itself are kept as
diagnostics.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from layers import Tracer, layer_metrics, program_counters
from measure import from_due, paced, slowdown, tail_summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

#: The paper's five corpora (Table I), in table order.
CORPORA = ("cfiles", "demap", "dictionary", "kernel_tarball",
           "highly_compressible")
WORKLOADS = ("compress", "decompress", "auto", "gateway")
#: Gateway topology: the CLI defaults (server decodes inline, the
#: client compresses on a 2-process pool), one connection.
SERVER_WORKERS, CLIENT_WORKERS, QUEUE_DEPTH = 0, 2, 8
#: Every n-th gateway frame is random bytes (the probe's raw path).
RANDOM_EVERY = 8
#: Rounds a library run makes at least, whatever ``seconds`` says.
MIN_ROUNDS = 2
#: Timed seconds of library calls between two host-speed samples: one
#: sample (~13 ms) per quarter second costs about 5% of the wall time.
SAMPLE_EVERY_S = 0.25


@dataclass(frozen=True)
class Scale:
    """Input sizes of one benchmark mode."""

    buf: int              # library workload buffer bytes
    bufs_per_corpus: int
    frame: int            # gateway frame bytes
    stream_frames: int    # frames per closed-loop stream
    rate: float           # open-loop frames per second
    cold_starts: int


#: The open loop offers 10 frames/s, about a fifth of the closed-loop
#: goodput: at 20/s the four processes on two cores queued behind each
#: other and the median's run-to-run spread doubled.
FULL = Scale(buf=64 << 10, bufs_per_corpus=2, frame=16 << 10,
             stream_frames=40, rate=10.0, cold_starts=5)
SMOKE = Scale(buf=8 << 10, bufs_per_corpus=1, frame=4 << 10,
              stream_frames=8, rate=50.0, cold_starts=1)


@dataclass(frozen=True)
class Item:
    label: str
    data: bytes
    version: int = 2


# ---------------------------------------------------------------- inputs

def sub_seed(seed: int, tag: str) -> int:
    """A 32-bit generator seed for one input stream of one run."""
    digest = hashlib.sha256(f"{seed}/{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _corpus(name: str, nbytes: int, seed: int) -> bytes:
    from repro.datasets import generate

    return generate(name, nbytes, seed=sub_seed(seed, name))


def _random(nbytes: int, seed: int, tag: str) -> bytes:
    rng = np.random.default_rng(sub_seed(seed, tag))
    return rng.integers(0, 256, nbytes, dtype=np.uint8).tobytes()


def _split(data: bytes, size: int) -> list[bytes]:
    return [data[i:i + size] for i in range(0, len(data), size)]


def make_inputs(workload: str, seed: int, scale: Scale) -> list[Item]:
    """The workload's input mix for ``seed``, in send order.

    * compress/decompress: ``bufs_per_corpus`` buffers of each corpus,
      round-robin; V1 for highly_compressible, V2 otherwise (§V).
    * auto: the same, plus as many buffers of random bytes and of
      ``generate_tunable(repetition=0.05)``.  Two 64 KiB buffers per kind
      rather than one of 128 KiB: the median call then falls inside a
      spread of call times, not on the edge between two kinds, and its
      spread over ten seeds fell from 9.8% to 7.1%.
    * gateway: one closed-loop stream of frames; every
      :data:`RANDOM_EVERY`-th is random, the rest hold an equal slice
      of each corpus.
    """
    n, size = scale.bufs_per_corpus, scale.buf
    if workload in ("compress", "decompress", "auto"):
        pools = {c: _split(_corpus(c, n * size, seed), size) for c in CORPORA}
        versions = {c: 1 if c == "highly_compressible" else 2
                    for c in CORPORA}
        if workload == "auto":
            from repro.datasets.tunable import generate_tunable

            pools["random"] = _split(_random(n * size, seed, "random"), size)
            pools["tunable"] = _split(generate_tunable(
                n * size, 0.05, seed=sub_seed(seed, "tunable")), size)
            versions = dict.fromkeys(pools, 2)
        return [Item(c, pools[c][k], versions[c])
                for k in range(n) for c in pools]
    if workload == "gateway":
        n_rand = scale.stream_frames // RANDOM_EVERY
        n_mixed = scale.stream_frames - n_rand
        part = scale.frame // len(CORPORA)
        pools = {c: _split(_corpus(c, n_mixed * part, seed), part)
                 for c in CORPORA}
        rand = _split(_random(n_rand * scale.frame, seed, "frames"),
                      scale.frame)
        items, k = [], 0
        for i in range(scale.stream_frames):
            if i % RANDOM_EVERY == RANDOM_EVERY - 1:
                items.append(Item("random", rand[i // RANDOM_EVERY]))
            else:
                # Every corpus in every frame, in rotating order: with one
                # corpus per frame, frame encode times form per-corpus
                # clusters and the latency median jumps between them.
                j = k % len(CORPORA)
                order = CORPORA[j:] + CORPORA[:j]
                items.append(Item("mixed", b"".join(pools[c][k]
                                                    for c in order)))
                k += 1
        return items
    raise ValueError(f"unknown workload {workload!r}")


def digest(items) -> str:
    h = hashlib.sha256()
    for it in items:
        h.update(it.data)
    return h.hexdigest()


def child_env() -> dict:
    """Environment for helper processes: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def stop_resource_tracker() -> None:
    """Stop this process's ``multiprocessing`` resource tracker and wait
    for it to end.

    The gateway's shared-memory slabs start the tracker as a child that
    is never waited for: left alone it outlives its parent by the time it
    takes to notice the parent is gone.  Call this last, after every pool
    that could share the tracker has shut down.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


# ------------------------------------------------------------ cold start

def library_cold_start(workload: str, item: Item) -> tuple[float, bool]:
    """One cold start of a library workload in a fresh interpreter.

    The child times its own import of :mod:`repro.core` plus the first
    call on ``item`` (generated here, so input generation is excluded)
    and hands the output back for checking.
    """
    from repro import core

    payload = item.data
    if workload == "decompress":
        payload = core.gpu_compress(
            item.data, core.CompressionParams(version=item.version)).data
    proc = subprocess.run(
        [sys.executable, str(HERE / "coldstart.py"), workload,
         str(item.version)], input=payload, capture_output=True,
        env=child_env(), cwd=ROOT, timeout=120)
    if proc.returncode != 0:
        return 0.0, False
    head, _, out = proc.stdout.partition(b"\n")
    seconds = float(head)
    if workload == "compress":
        out = core.gpu_decompress(out).data
    return seconds, out == item.data


# ------------------------------------------------------- library rounds

def _library_step(workload: str, items: list[Item]):
    """``(step, sizes)``: ``step(i)`` runs one timed operation on item
    ``i`` and returns ``(seconds, encode_seconds, ok)``; ``sizes[i]``
    is the compressed size of item ``i`` once it has been seen."""
    from repro import core

    sizes: dict[int, int] = {}
    verified: dict[int, bytes] = {}
    blobs = []
    if workload == "decompress":
        # Built by the code under test, before any timing starts.
        blobs = [core.gpu_compress(
            it.data, core.CompressionParams(version=it.version)).data
            for it in items]
        sizes.update({i: len(b) for i, b in enumerate(blobs)})

    def step(i: int):
        it = items[i]
        t0 = perf_counter()
        if workload == "compress":
            blob = core.gpu_compress(
                it.data, core.CompressionParams(version=it.version)).data
            dt = perf_counter() - t0
            sizes[i] = len(blob)
            # Encodes are deterministic: an output already decoded back
            # to its input needs no second decode.
            ok = verified.get(i) == blob
            if not ok and core.gpu_decompress(blob).data == it.data:
                verified[i] = blob
                ok = True
            return dt, dt, ok
        if workload == "decompress":
            out = core.gpu_decompress(blobs[i]).data
            dt = perf_counter() - t0
            return dt, 0.0, out == it.data
        blob = core.gpu_compress(it.data, codec="auto").data
        enc = perf_counter() - t0
        out = core.gpu_decompress(blob).data
        dt = perf_counter() - t0
        sizes[i] = len(blob)
        return dt, enc, out == it.data

    return step, sizes


class Tally:
    """Operations attempted and failed; a raised exception is a failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def run_library(workload: str, items: list[Item], seconds: float,
                trace: bool = False) -> dict:
    """Closed loop over ``items`` for ``seconds``; see the module doc."""
    from repro.obs import trace as obs_trace

    step, sizes = _library_step(workload, items)
    tally = Tally()
    slow = [slowdown()]

    def one_round(sample: bool) -> list[tuple[float, float, float]]:
        """Every item once: ``(seconds, encode_seconds, slowdown)`` per
        call.  With ``sample``, the host speed is sampled after each
        :data:`SAMPLE_EVERY_S` of timed work and at the end of the round,
        and a call's slowdown is the mean of the samples around it; without,
        the round is sampled only at its end and every call gets the
        round's mean."""
        calls, pending = [], []
        for i in range(len(items)):
            try:
                dt, de, ok = step(i)
            except Exception:
                dt, de, ok = 0.0, 0.0, False
            tally.record(ok)
            pending.append((dt, de))
            last = i == len(items) - 1
            if last or (sample and sum(d for d, _ in pending)
                        >= SAMPLE_EVERY_S):
                slow.append(slowdown())
                f = (slow[-2] + slow[-1]) / 2
                calls.extend((d, e, f) for d, e in pending)
                pending = []
        return calls

    one_round(False)  # warm-up: lazy imports, caches, first-call set-up
    tracer = Tracer()
    nbytes = sum(len(it.data) for it in items)
    rates, raw_rates, enc_rates, dec_rates, calls = [], [], [], [], []
    traced_walls = []
    scaled_op: dict[bool, list] = {False: [], True: []}
    spans, counts = [], {}
    start = perf_counter()
    r = 0
    while r < MIN_ROUNDS or perf_counter() - start < seconds:
        traced = trace and r % 2 == 1
        if traced:
            before = program_counters()
            obs_trace.clear()
            tracer.install()
            t0 = perf_counter()
        round_calls = one_round(sample=not traced)
        if traced:
            traced_walls.append(perf_counter() - t0)
            tracer.uninstall()
            spans.extend(obs_trace.drain())
            for k, v in program_counters().items():
                counts[k] = counts.get(k, 0) + v - before[k]
        op = sum(d / f for d, _e, f in round_calls)
        scaled_op[traced].append(op)
        if not traced:
            enc = sum(e / f for _d, e, f in round_calls)
            raw = sum(d for d, _e, _f in round_calls)
            raw_rates.append(nbytes / raw / 1e6 if raw else 0.0)
            rates.append(nbytes / op / 1e6 if op else 0.0)
            enc_rates.append(nbytes / enc / 1e6 if enc else 0.0)
            dec_rates.append(nbytes / (op - enc) / 1e6 if op > enc else 0.0)
            calls.extend(d / f for d, _e, f in round_calls)
        r += 1

    doc = {"attempted": tally.attempted, "failed": tally.failed}
    if trace:
        doc["spans"] = spans
        doc["per_layer"] = layer_metrics(
            spans, wall=sum(traced_walls),
            in_bytes=nbytes * len(traced_walls),
            driver_pid=os.getpid(), counters=counts)
        doc["per_layer"]["trace_overhead_share"] = (
            statistics.median(scaled_op[True])
            / statistics.median(scaled_op[False]) - 1.0)
        return doc
    doc["end_to_end"] = {
        "throughput_mb_s": tail_summary(rates, worse="low"),
        "p50_ms": tail_summary([1e3 * c for c in calls]),
        "ratio": {"median": sum(sizes.values()) / nbytes, "n": len(sizes)},
    }
    doc["detail"] = {"raw_throughput_mb_s": tail_summary(raw_rates,
                                                         worse="low"),
                     "host_slowdown": tail_summary(slow)}
    if workload == "auto":
        doc["detail"].update(enc_mb_s=tail_summary(enc_rates, worse="low"),
                             dec_mb_s=tail_summary(dec_rates, worse="low"))
    return doc


# --------------------------------------------------------------- gateway

class ServerProcess:
    """The egress gateway in its own process (``server.py``).

    The child prints ``PORT <n>`` once listening and, when told to stop
    on stdin, a JSON report: every delivery as ``[stream, seq,
    perf_counter, sha256]`` (``CLOCK_MONOTONIC`` is shared by every
    process on the host, so delivery times compare with the driver's),
    its obs counter deltas and, when traced, its spans.
    """

    def __init__(self, trace: bool = False) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), "--trace",
             str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(),
            cwd=ROOT)
        line = self.proc.stdout.readline().decode().split()
        if len(line) != 2 or line[0] != "PORT":
            self.kill()
            raise RuntimeError("gateway server did not start")
        self.port = int(line[1])

    def stop(self, timeout: float = 60.0) -> dict:
        try:
            out, _ = self.proc.communicate(b"stop\n", timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise
        if self.proc.returncode != 0:
            raise RuntimeError(f"gateway server exited {self.proc.returncode}")
        return json.loads(out.decode().strip().splitlines()[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _client(port: int):
    from repro.service import GatewayClient

    return GatewayClient(port=port, workers=CLIENT_WORKERS,
                         queue_depth=QUEUE_DEPTH)


async def gateway_cold_start(item: Item) -> tuple[float, bool]:
    """Server process start, client pool spawn, first frame to its ACK."""
    t0 = perf_counter()
    server = ServerProcess()
    try:
        client = _client(server.port)
        async with client:
            ack = await client.send_stream([item.data], verify=False)
            seconds = perf_counter() - t0
        report = server.stop()
    finally:
        server.kill()
    sha = hashlib.sha256(item.data).hexdigest()
    ok = ack.matches([item.data]) and [d[3] for d in
                                        report["deliveries"]] == [sha]
    return seconds, ok


class _Streams:
    """Every stream one gateway run sends, and whether its ACK matched."""

    def __init__(self) -> None:
        self.sent: dict[int, list[bytes]] = {}
        self.acked: dict[int, bool] = {}
        self.next_id = 1

    async def send(self, client, buffers, frames: list[bytes]) -> int:
        """Send one stream (``buffers`` yields ``frames``); returns its id."""
        sid = self.next_id
        self.next_id += 1
        self.sent[sid] = frames
        try:
            ack = await client.send_stream(buffers, stream_id=sid,
                                           verify=False)
            self.acked[sid] = ack.matches(frames)
        except Exception:
            self.acked[sid] = False
        return sid

    def check(self, deliveries) -> tuple[Tally, dict[int, list[float]]]:
        """Tally every frame against the server's deliveries.

        A frame passes when its stream was acknowledged with a matching
        receipt and the server delivered it at its sequence number with
        the same SHA-256.  Also returns each stream's delivery times.
        """
        got: dict[int, list] = {}
        for sid, seq, t, sha in deliveries:
            got.setdefault(sid, []).append((seq, t, sha))
        tally = Tally()
        times = {}
        for sid, frames in self.sent.items():
            rows = got.get(sid, [])
            for k, frame in enumerate(frames):
                tally.record(self.acked[sid] and k < len(rows)
                             and rows[k][0] == k and rows[k][2]
                             == hashlib.sha256(frame).hexdigest())
            times[sid] = [t for _seq, t, _sha in rows]
        return tally, times


async def _closed_loop(client, streams: _Streams, frames,
                       seconds: float) -> tuple[list[float], list[float]]:
    """A warm-up stream, then back-to-back streams for ``seconds``;
    returns the wall time of each timed stream and the host slowdown
    over it (the mean of the samples taken before and after)."""
    await streams.send(client, frames, frames)
    walls: list[float] = []
    slow = [slowdown()]
    start = perf_counter()
    while not walls or perf_counter() - start < seconds:
        t0 = perf_counter()
        sid = await streams.send(client, frames, frames)
        walls.append(perf_counter() - t0)
        slow.append(slowdown())
        if not streams.acked[sid]:
            break
    return walls, [(a + b) / 2 for a, b in zip(slow, slow[1:])]


async def run_gateway(items: list[Item], seconds: float, scale: Scale,
                      trace: bool = False) -> dict:
    """Closed-loop goodput, then open-loop latency, over one connection.

    Phase A sends back-to-back streams of the frame list and times each
    from its first frame to its ACK.  Phase B offers frames at
    ``scale.rate`` per second, each timed from its due time to its
    in-order delivery at the server.  A traced run first repeats phase
    A untraced, against its own untraced server and on a client whose
    pool holds no wrappers: the reference for the tracing overhead.
    The traced server starts afterwards, so every span and counter it
    reports belongs to the traced phases.
    """
    from repro.obs import trace as obs_trace

    frames = [it.data for it in items]
    nbytes = sum(map(len, frames))
    streams = _Streams()
    deliveries: list = []
    phase = seconds / (3 if trace else 2)
    if trace:
        server = ServerProcess()
        try:
            async with _client(server.port) as client:
                reference, ref_slow = await _closed_loop(client, streams,
                                                         frames, phase)
            deliveries += server.stop()["deliveries"]
        finally:
            server.kill()
    tracer = Tracer()
    if trace:
        tracer.install()
    first_traced = streams.next_id
    obs_trace.clear()
    before = program_counters()
    try:
        server = ServerProcess(trace)
        try:
            t0 = perf_counter()
            async with _client(server.port) as client:
                walls, slow = await _closed_loop(client, streams, frames,
                                                 phase)
                snap = client.metrics.snapshot()
                offered = [frames[i % len(frames)]
                           for i in range(max(1, int(scale.rate * phase)))]
                log: list = []
                # One sample per frame, taken while the pool encodes it.
                open_slow: list[float] = []
                open_sid = await streams.send(
                    client, paced(offered, scale.rate, log,
                                  after=lambda: open_slow.append(slowdown())),
                    offered)
                client_snap = client.metrics.snapshot()
            traced_wall = perf_counter() - t0
            report = server.stop()
        finally:
            server.kill()
    finally:
        tracer.uninstall()

    tally, times = streams.check(deliveries + report["deliveries"])
    doc: dict = {"attempted": tally.attempted, "failed": tally.failed}
    latency = late = []
    if len(times[open_sid]) == len(log):
        latency, late = from_due(log, times[open_sid])
    if trace:
        spans = obs_trace.drain() + [obs_trace.Span(**s)
                                     for s in report["spans"]]
        counts = {k: v - before[k] + report["counters"].get(k, 0)
                  for k, v in program_counters().items()}
        counts.update(client_snap["counters"])
        wait = client_snap["histograms"].get("ingress.stage_wait_seconds")
        counts["ingress.stage_wait_seconds"] = wait["sum"] if wait else 0.0
        doc["spans"] = spans
        doc["per_layer"] = layer_metrics(
            spans, wall=traced_wall,
            in_bytes=sum(len(f) for sid, sent in streams.sent.items()
                         if sid >= first_traced for f in sent),
            driver_pid=os.getpid(), counters=counts,
            service={"latency_s": latency, "late_s": late})
        doc["per_layer"]["trace_overhead_share"] = (
            statistics.median(w / f for w, f in zip(walls, slow))
            / statistics.median(w / f for w, f in zip(reference, ref_slow))
            - 1.0)
        return doc
    counters = snap["counters"]
    raw_rates = [nbytes / w / 1e6 for w in walls]
    doc["end_to_end"] = {
        "throughput_mb_s": tail_summary(
            [r * f for r, f in zip(raw_rates, slow)], worse="low"),
        "p50_ms": tail_summary([1e3 * x / f for x, f in
                                zip(latency, open_slow)] or [0.0]),
        # Every closed-loop stream carries the same frames, so the wire
        # ratio does not depend on how many streams fitted in the phase.
        "ratio": {"median": counters["ingress.bytes_out"]
                  / counters["ingress.bytes_in"], "n": len(walls) + 1},
    }
    doc["detail"] = {
        "raw_throughput_mb_s": tail_summary(raw_rates, worse="low"),
        "raw_p50_ms": tail_summary([1e3 * x for x in latency or [0.0]]),
        "host_slowdown": tail_summary(slow + open_slow),
        "gen_late_ms": tail_summary([1e3 * x for x in late or [0.0]])}
    return doc
