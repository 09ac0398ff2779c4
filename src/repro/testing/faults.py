"""Deterministic fault injectors for the robustness test suites.

Every injector is seeded — the chaos suites must replay bit-for-bit
from a seed, so a CI failure at seed 202 reproduces locally with
``REPRO_CHAOS_SEED=202``.  Three families:

* **Blob corruption** — :func:`flip_bits`, :func:`corrupt_chunks`,
  :func:`corrupt_chunk_table`, :func:`truncate` damage container bytes
  at chosen structural locations (payload of chunk *k*, the size
  table, the tail).
* **Executor faults** — :class:`CrashingExecutor` emulates a process
  pool worker's death: the Nth submitted job "kills its worker",
  failing that future and poisoning the pool exactly like
  ``BrokenProcessPool`` does; the service pipelines take it as an
  injected ``executor``.  :func:`crash_worker_job` is the real-process
  variant: a picklable pipeline job that hard-kills any pool worker it
  lands in but completes in the parent — so the serial fallback
  succeeds.
* **Transport faults** — :class:`FlakyWriter` wraps an asyncio
  ``StreamWriter`` and garbles or drops every Nth write.

See ``docs/robustness.md`` for the cookbook.
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import BrokenExecutor, Executor, Future
from contextlib import contextmanager

from repro.container import unpack_container
from repro.util.validation import require

__all__ = [
    "DEFAULT_CHAOS_SEEDS",
    "CrashingExecutor",
    "FlakyWriter",
    "chaos_seed",
    "corrupt_chunk_table",
    "corrupt_chunks",
    "crash_worker_job",
    "flip_bits",
    "slow_call",
    "tag_crash_buffer",
    "truncate",
]

#: The fixed seeds the CI chaos lane runs; any one failing pins the
#: exact corruption pattern for local replay.
DEFAULT_CHAOS_SEEDS = (101, 202, 303)


def chaos_seed(default: int = DEFAULT_CHAOS_SEEDS[0]) -> int:
    """The active chaos seed: ``REPRO_CHAOS_SEED`` env var or a default."""
    return int(os.environ.get("REPRO_CHAOS_SEED", default))


@contextmanager
def slow_call(module, attr: str, seconds: float):
    """Induce a perf regression: every ``module.attr`` call sleeps first.

    The forensics counterpart of the corruption injectors — callers
    that resolve ``attr`` through the module at call time (the bench
    gate's contract) see an artificially slow implementation for the
    duration of the ``with``, which is how the attribution tests plant
    a regression in one known stage.  Restores the original on exit.
    """
    original = getattr(module, attr)

    def slowed(*args, **kwargs):
        time.sleep(seconds)
        return original(*args, **kwargs)

    setattr(module, attr, slowed)
    try:
        yield original
    finally:
        setattr(module, attr, original)


# ------------------------------------------------------ blob corruption

def flip_bits(blob: bytes, n: int = 1, *, seed: int = 0,
              lo: int = 0, hi: int | None = None) -> bytes:
    """Flip ``n`` random bits of ``blob[lo:hi]`` (seeded, with replacement)."""
    buf = bytearray(blob)
    hi = len(buf) if hi is None else hi
    require(0 <= lo < hi <= len(buf), "empty or out-of-range corruption span")
    rng = random.Random(seed)
    for _ in range(n):
        pos = rng.randrange(lo, hi)
        buf[pos] ^= 1 << rng.randrange(8)
    return bytes(buf)


def corrupt_chunks(blob: bytes, indices, *, seed: int = 0,
                   bits_per_chunk: int = 1) -> bytes:
    """Flip bits inside the payload slice of each listed chunk.

    Targets the *compressed* bytes of exactly those chunks — the
    surgical damage the salvage round-trip property needs (chunk ``k``
    corrupt, every other chunk untouched).
    """
    info = unpack_container(blob, strict=False)
    require(info.is_chunked, "container is not chunked")
    base = info.payload_offset
    ranges = info.chunk_ranges()
    out = blob
    rng = random.Random(seed)
    for c in indices:
        lo, hi = int(ranges[c, 0]) + base, int(ranges[c, 1]) + base
        out = flip_bits(out, bits_per_chunk, seed=rng.randrange(1 << 30),
                        lo=lo, hi=hi)
    return out


def corrupt_chunk_table(blob: bytes, *, seed: int = 0, n: int = 1) -> bytes:
    """Flip bits inside the chunk table (between header and payload)."""
    info = unpack_container(blob, strict=False)
    require(info.is_chunked, "container is not chunked")
    from repro.container import HEADER_SIZE

    return flip_bits(blob, n, seed=seed, lo=HEADER_SIZE,
                     hi=info.payload_offset)


def truncate(blob: bytes, n: int) -> bytes:
    """Drop the last ``n`` bytes (a partial write / short read)."""
    require(0 < n <= len(blob), "truncation must remove 1..len bytes")
    return blob[:len(blob) - n]


# ------------------------------------------------------- executor faults

class CrashingExecutor(Executor):
    """Inline executor whose ``crash_on``-th submit kills its "worker".

    Models ``BrokenProcessPool`` semantics faithfully: the fatal job's
    future fails with :class:`BrokenExecutor`, and every submit after
    the crash raises :class:`BrokenExecutor` synchronously (a broken
    pool accepts no further work).  Earlier submits run inline and
    succeed.
    """

    def __init__(self, crash_on: int = 1) -> None:
        require(crash_on >= 1, "crash_on is 1-based")
        self.crash_on = crash_on
        self.calls = 0
        self.broken = False
        self.shut_down = False

    def submit(self, fn, /, *args, **kwargs) -> Future:
        if self.broken:
            raise BrokenExecutor("pool already broken by injected crash")
        self.calls += 1
        fut: Future = Future()
        if self.calls == self.crash_on:
            self.broken = True
            fut.set_exception(
                BrokenExecutor("injected worker crash "
                               f"(submit #{self.calls})"))
            return fut
        try:
            fut.set_result(fn(*args, **kwargs))
        except BaseException as exc:
            fut.set_exception(exc)
        return fut

    def shutdown(self, wait: bool = True, *,
                 cancel_futures: bool = False) -> None:
        self.shut_down = True


_CRASH_PREFIX = b"crash-unless-pid="


def crash_worker_job(data: bytes, version: int = 2):
    """A picklable ingress job that hard-kills foreign pool workers.

    Buffers prefixed ``crash-unless-pid=<pid>|`` kill the process
    executing the job (``os._exit``) unless its pid is ``<pid>`` — so a
    ``ProcessPoolExecutor`` worker dies for real (a genuine
    ``BrokenProcessPool``), while the parent's serial fallback strips
    the prefix and compresses the remainder normally.  Unprefixed
    buffers compress normally everywhere.
    """
    from repro.service.pipeline import encode_payload

    data = bytes(data)
    if data.startswith(_CRASH_PREFIX):
        head, _, rest = data.partition(b"|")
        pid = int(head[len(_CRASH_PREFIX):])
        if os.getpid() != pid:
            os._exit(1)
        data = rest
    return encode_payload(data, version)


def tag_crash_buffer(data: bytes, survivor_pid: int | None = None) -> bytes:
    """Prefix ``data`` so :func:`crash_worker_job` kills foreign workers."""
    pid = os.getpid() if survivor_pid is None else survivor_pid
    return _CRASH_PREFIX + str(pid).encode() + b"|" + data


# ------------------------------------------------------ transport faults

class FlakyWriter:
    """Wrap an asyncio ``StreamWriter``; garble/drop every Nth write.

    ``garble_every=3`` flips one seeded bit in every third write;
    ``drop_every=4`` swallows every fourth write entirely.  Counts are
    kept on the instance (``writes``, ``garbled``, ``dropped``) so
    tests can assert faults actually fired.  Everything else proxies to
    the wrapped writer.
    """

    def __init__(self, writer, *, seed: int = 0, garble_every: int = 0,
                 drop_every: int = 0) -> None:
        self._writer = writer
        self._rng = random.Random(seed)
        self.garble_every = garble_every
        self.drop_every = drop_every
        self.writes = 0
        self.garbled = 0
        self.dropped = 0

    def write(self, data: bytes) -> None:
        self.writes += 1
        if self.drop_every and self.writes % self.drop_every == 0:
            self.dropped += 1
            return
        if self.garble_every and self.writes % self.garble_every == 0:
            data = flip_bits(bytes(data), 1,
                             seed=self._rng.randrange(1 << 30))
            self.garbled += 1
        self._writer.write(data)

    async def drain(self) -> None:
        await self._writer.drain()

    def __getattr__(self, name):
        return getattr(self._writer, name)
