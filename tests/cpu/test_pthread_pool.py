"""PthreadLzss keeps one engine (and its thread pool) alive across calls."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import obs
from repro.cpu import PthreadLzss
from repro.datasets import generate
from repro.errors import CorruptChunkError


def test_pool_persists_across_calls(text_data):
    p = PthreadLzss(n_threads=2)
    try:
        r1 = p.compress(text_data)
        engine = p._engine
        pool = engine._pool
        assert pool is not None
        r2 = p.compress(text_data)
        assert p._engine is engine and engine._pool is pool  # no churn
        assert r1.payload == r2.payload
        assert p.decompress(r2) == text_data
        assert p._engine is engine and engine._pool is pool
    finally:
        p.close()


def test_close_is_idempotent_and_releases(text_data):
    p = PthreadLzss(n_threads=2)
    p.compress(text_data)
    engine = p._engine
    p.close()
    assert p._engine is None and engine._pool is None
    p.close()


def test_context_manager_closes(text_data):
    with PthreadLzss(n_threads=2) as p:
        result = p.compress(text_data)
        assert p.decompress(result) == text_data
        engine = p._engine
    assert p._engine is None and engine._pool is None


def test_closed_instance_reopens_on_use(text_data):
    p = PthreadLzss(n_threads=2)
    p.compress(text_data)
    p.close()
    result = p.compress(text_data)  # transparently re-opens
    try:
        assert p._engine._pool is not None
        assert p.decompress(result) == text_data
    finally:
        p.close()


def _decode_stages() -> int:
    hists = obs.get_registry().snapshot()["histograms"]
    return int(hists.get("decode.stream_seconds", {}).get("count", 0))


def test_strict_error_arrives_after_every_chunk_decoded():
    # One chunk per thread; chunk 0 zeroed.  The error must not arrive
    # while the other thread still decodes: the decode stages recorded
    # at the raise are all there will be.
    was_enabled = obs.enabled()
    obs.enable()
    p = PthreadLzss(n_threads=2)
    try:
        result = p.compress(generate("cfiles", 512 << 10, seed=7))
        zeroed = bytearray(result.payload)
        zeroed[:int(result.chunk_sizes[0])] = bytes(
            int(result.chunk_sizes[0]))
        with pytest.raises(CorruptChunkError) as err:
            p.decompress(replace(result, payload=bytes(zeroed)))
        assert err.value.chunk_index == 0
        at_raise = _decode_stages()
        p.close()
        assert _decode_stages() == at_raise
    finally:
        p.close()
        if not was_enabled:
            obs.disable()
