"""Chaos suite: ParallelEngine survives worker death, output unchanged.

The engine's contract is byte-identity with the serial codec for any
worker count; these tests extend it to *any worker count with workers
dying mid-call*.  Crashes are injected through ``executor_factory``
(the :func:`repro.testing.crash_factory` pool crashes once, then its
replacement behaves), so every scenario is deterministic.
"""

from __future__ import annotations

from concurrent.futures import Future

import numpy as np
import pytest

from repro.engine import ParallelEngine
from repro.errors import WorkerCrashError
from repro.lzss.decoder import decode_chunked_with_stats
from repro.lzss.encoder import encode_chunked
from repro.lzss.formats import CUDA_V2
from repro.testing import (
    CrashingExecutor,
    InlineExecutor,
    chaos_seed,
    crash_factory,
)

CHUNK = 4096
SEED = chaos_seed()


@pytest.fixture(scope="module")
def big_data() -> bytes:
    # Must clear MIN_PARALLEL_BYTES so the engine actually shards.
    rng = np.random.default_rng(SEED)
    words = [b"parallel ", b"engine ", b"shard ", b"crash ", b"worker "]
    out = b"".join(words[i] for i in rng.integers(0, len(words), 40_000))
    assert len(out) >= (1 << 17)
    return out


@pytest.fixture(scope="module")
def serial_result(big_data):
    return encode_chunked(big_data, CUDA_V2, CHUNK)


class TestEncodeCrash:
    def test_first_shard_crash_is_byte_identical(self, big_data,
                                                 serial_result):
        # The acceptance criterion: a worker dying mid-encode_chunked
        # changes nothing about the output, only the counters.
        factory = crash_factory(crash_on=1)
        with ParallelEngine(workers=4, executor_factory=factory) as eng:
            result = eng.encode_chunked(big_data, CUDA_V2, CHUNK)
            assert result.payload == serial_result.payload
            assert result.chunk_sizes.tolist() == \
                serial_result.chunk_sizes.tolist()
            assert eng.counters["worker_crashes"] >= 1
            assert eng.counters["serial_fallbacks"] >= 1

    def test_pool_rebuilds_after_crash(self, big_data, serial_result):
        factory = crash_factory(crash_on=1)
        with ParallelEngine(workers=4, executor_factory=factory) as eng:
            eng.encode_chunked(big_data, CUDA_V2, CHUNK)
            crashes = eng.counters["worker_crashes"]
            # Second call runs on the rebuilt (well-behaved) pool: same
            # bytes, no new incidents.
            again = eng.encode_chunked(big_data, CUDA_V2, CHUNK)
            assert again.payload == serial_result.payload
            assert eng.counters["worker_crashes"] == crashes
            assert len(factory.built) == 2
            assert factory.built[0].broken
            assert isinstance(factory.built[1], InlineExecutor)

    def test_late_crash_fails_remaining_shards_over(self, big_data,
                                                    serial_result):
        # Crash on the 3rd submit: shards 1-2 ran, 3 dies, 4 can't
        # submit — both recompute serially, one crash total.
        factory = crash_factory(crash_on=3)
        with ParallelEngine(workers=4, executor_factory=factory) as eng:
            result = eng.encode_chunked(big_data, CUDA_V2, CHUNK)
            assert result.payload == serial_result.payload
            assert eng.counters["worker_crashes"] == 1
            assert eng.counters["serial_fallbacks"] == 2

    def test_submit_time_crash_runs_everything_serially(self, big_data,
                                                        serial_result):
        # Crash on the very first submit: every shard falls back.
        factory = crash_factory(crash_on=1)
        with ParallelEngine(workers=4, executor_factory=factory) as eng:
            result = eng.encode_chunked(big_data, CUDA_V2, CHUNK)
            assert result.payload == serial_result.payload
            assert eng.counters["worker_crashes"] == 1
            assert eng.counters["serial_fallbacks"] == 4

    def test_worker_crash_error_is_survivable(self, big_data, serial_result):
        # The harness's own WorkerCrashError counts as worker death too.
        class _DiesOnce(InlineExecutor):
            def __init__(self) -> None:
                super().__init__()
                self.fired = False

            def submit(self, fn, /, *args, **kwargs):
                if not self.fired:
                    self.fired = True
                    fut: Future = Future()
                    fut.set_exception(WorkerCrashError("injected"))
                    return fut
                return super().submit(fn, *args, **kwargs)

        with ParallelEngine(workers=4, executor_factory=_DiesOnce) as eng:
            result = eng.encode_chunked(big_data, CUDA_V2, CHUNK)
            assert result.payload == serial_result.payload
            assert eng.counters["worker_crashes"] == 1
            assert eng.counters["serial_fallbacks"] == 1

    def test_non_crash_errors_propagate(self, big_data):
        # Only worker death is survivable; a genuine job error is not
        # swallowed into the serial path.
        class _Raises(InlineExecutor):
            def submit(self, fn, /, *args, **kwargs):
                fut: Future = Future()
                fut.set_exception(RuntimeError("job bug"))
                return fut

        with ParallelEngine(workers=4, executor_factory=_Raises) as eng:
            with pytest.raises(RuntimeError, match="job bug"):
                eng.encode_chunked(big_data, CUDA_V2, CHUNK)


class TestDecodeCrash:
    def test_decode_crash_is_byte_identical(self, big_data, serial_result):
        factory = crash_factory(crash_on=2)
        with ParallelEngine(workers=4, executor_factory=factory) as eng:
            out, tokens, _ = eng.decode_chunked_with_stats(
                serial_result.payload, CUDA_V2, serial_result.chunk_sizes,
                CHUNK, len(big_data))
            assert out == big_data
            ref_out, ref_tokens, _ = decode_chunked_with_stats(
                serial_result.payload, CUDA_V2, serial_result.chunk_sizes,
                CHUNK, len(big_data))
            assert tokens.tolist() == ref_tokens.tolist()
            assert eng.counters["worker_crashes"] == 1

    def test_salvage_crash_report_unchanged(self, big_data, serial_result):
        # Crash recovery composes with salvage: corrupt one chunk, kill
        # one worker, and the report still names exactly that chunk.
        payload = bytearray(serial_result.payload)
        sizes = serial_result.chunk_sizes
        lo = int(sizes[:5].sum())
        payload[lo] ^= 0xFF  # corrupt chunk 5's first byte
        crcs = np.zeros(sizes.size, dtype="<u4")
        from repro.util.checksum import crc32
        off = 0
        for c, n in enumerate(sizes.tolist()):
            crcs[c] = crc32(serial_result.payload[off:off + n])
            off += n

        factory = crash_factory(crash_on=1)
        with ParallelEngine(workers=4, executor_factory=factory) as eng:
            out, _tokens, report = eng.decode_chunked_with_stats(
                bytes(payload), CUDA_V2, sizes, CHUNK, len(big_data),
                chunk_crcs=crcs, errors="salvage")
            assert report.lost == [5]
            assert eng.counters["worker_crashes"] >= 1
        ref_out, _rt, ref_report = decode_chunked_with_stats(
            bytes(payload), CUDA_V2, sizes, CHUNK, len(big_data),
            chunk_crcs=crcs, errors="salvage")
        assert out == ref_out
        assert ref_report.lost == [5]


def test_crashing_executor_models_broken_pool():
    # The harness itself: Nth submit fails its future, later submits
    # raise synchronously — BrokenProcessPool's observable behavior.
    from concurrent.futures import BrokenExecutor

    pool = CrashingExecutor(crash_on=2)
    assert pool.submit(lambda: 41).result() == 41
    with pytest.raises(BrokenExecutor):
        pool.submit(lambda: 42).result()
    with pytest.raises(BrokenExecutor):
        pool.submit(lambda: 43)
    assert pool.broken
