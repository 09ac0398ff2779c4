"""The throughput ledger counts every second once.

Stages that report ``bytes=`` never nest, so over a session of API
calls the ledger's seconds sum to at most the calls' wall time — and,
with every codec and the cost model staged, to nearly all of it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import pytest

from repro import obs
from repro.codecs import codec_names
from repro.codecs.dispatch import encode_chunked_auto
from repro.container import pack_container, unpack_container
from repro.core import CompressionParams, gpu_compress, gpu_decompress
from repro.datasets import available_datasets, generate
from repro.errors import CorruptChunkError, TruncatedContainerError
from repro.lzss.decoder import decode_chunked_with_stats
from repro.lzss.encoder import encode_chunked
from repro.lzss.formats import CUDA_V2
from repro.obs import trace

CHUNK = 4096


def session_inputs(size: int) -> list[tuple[bytes, int]]:
    """``(data, version)``: the five corpora (V1 for highly_compressible,
    as in the paper) and one random buffer."""
    rng = np.random.default_rng(0x1ED6E5)
    inputs = [(generate(name, size, seed=3),
               1 if name == "highly_compressible" else 2)
              for name in available_datasets()]
    inputs.append((rng.integers(0, 256, size, dtype=np.uint8).tobytes(), 2))
    return inputs


def run_session(inputs) -> float:
    """Round-trip every input through every codec plus ``auto``, with a
    strict and a salvage decode each; returns the calls' wall seconds."""
    wall = 0.0
    for data, version in inputs:
        params = CompressionParams(version=version)
        for codec in (*codec_names(), "auto"):
            t0 = perf_counter()
            blob = gpu_compress(data, params, codec=codec).data
            wall += perf_counter() - t0
            for errors in ("strict", "salvage"):
                t0 = perf_counter()
                out = gpu_decompress(blob, errors=errors).data
                wall += perf_counter() - t0
                assert out == data
    return wall


def test_session_ledger_sums_to_the_wall_time_once():
    inputs = session_inputs(16 << 10)
    run_session(inputs)  # warm-up: imports and first-call caches
    obs.reset()
    wall = run_session(inputs)
    snap = obs.get_registry().snapshot()
    rows = obs.ledger(snap)
    total = sum(row["seconds"] for row in rows)
    assert total <= wall
    # An unstaged codec or model drops the ledger well below the wall.
    assert total >= 0.85 * wall, obs.format_ledger(rows)

    stages = {row["stage"] for row in rows}
    assert {"model", "codecs.choose", "encode.match", "decode.stream",
            "container.pack", "container.unpack"} <= stages
    for stage in stages:
        assert f"{stage}_bytes" in obs.COUNTER_KEYS
        assert f"{stage}_seconds" in obs.HISTOGRAM_KEYS

    spans = trace.spans()
    by_id = {s.span_id: s for s in spans}
    assert all(s.parent_id in by_id for s in spans if s.parent_id)
    for s in spans:
        if s.name not in stages:
            continue
        parent = by_id.get(s.parent_id)
        while parent is not None:
            assert parent.name not in stages, (s.name, parent.name)
            parent = by_id.get(parent.parent_id)


def test_forced_lz4s_encode_reports_the_lzss_stage_names():
    data = generate("cfiles", 16 << 10, seed=3)
    before = obs.get_registry().snapshot()
    encode_chunked_auto(data, CUDA_V2, CHUNK, codec="lz4s")
    rows = obs.stage_breakdown(before, obs.get_registry().snapshot())
    assert set(rows) == {"encode.match", "encode.parse", "encode.pack"}
    assert all(row["bytes"] == len(data) for row in rows.values())


# ------------------------------------------- bytes only on success

def _stage_delta(before: dict, after: dict, stage: str) -> tuple[int, int]:
    """(bytes, calls) the stage recorded between two snapshots."""
    nbytes = (after["counters"][f"{stage}_bytes"]
              - before["counters"][f"{stage}_bytes"])
    calls = (after["histograms"][f"{stage}_seconds"]["count"]
             - before["histograms"][f"{stage}_seconds"]["count"])
    return nbytes, calls


def test_a_stage_that_raises_records_its_seconds_but_no_bytes():
    data = generate("cfiles", 16 << 10, seed=3)
    result = encode_chunked(data, CUDA_V2, CHUNK)
    payload = bytearray(result.payload)
    payload[:int(result.chunk_sizes[0])] = bytes(int(result.chunk_sizes[0]))
    before = obs.get_registry().snapshot()
    with pytest.raises(CorruptChunkError) as exc:
        decode_chunked_with_stats(bytes(payload), CUDA_V2,
                                  result.chunk_sizes, CHUNK, len(data))
    assert exc.value.chunk_index == 0
    after = obs.get_registry().snapshot()
    assert _stage_delta(before, after, "decode.stream") == (0, 1)


def test_a_truncated_unpack_credits_no_bytes():
    blob = pack_container(encode_chunked(generate("cfiles", 16 << 10,
                                                  seed=3), CUDA_V2, CHUNK))
    before = obs.get_registry().snapshot()
    with pytest.raises(TruncatedContainerError):
        unpack_container(blob[:100])
    after = obs.get_registry().snapshot()
    assert _stage_delta(before, after, "container.unpack") == (0, 1)
    # A clean unpack still credits its bytes.
    unpack_container(blob)
    done = obs.get_registry().snapshot()
    assert _stage_delta(after, done, "container.unpack") == (len(blob), 1)
