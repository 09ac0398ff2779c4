"""The incompressibility probe and the matcher's shard-invariance.

The probe must be conservative: a false positive silently ships a
compressible buffer raw, so anything with byte- or digram-level
structure has to stay on the compression path.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.lzss import probe_incompressible
from repro.lzss.encoder import encode_chunked
from repro.lzss.formats import SERIAL
from repro.util.buffers import as_u8


def test_random_bytes_probe_incompressible(rng):
    data = rng.integers(0, 256, 64 * 1024, dtype=np.uint8).tobytes()
    assert probe_incompressible(data)


def test_small_random_buffer_is_exempt(rng):
    # Below min_size the probe always compresses — a tiny raw frame
    # saves nothing and the sample is too small to trust.
    data = rng.integers(0, 256, 100, dtype=np.uint8).tobytes()
    assert not probe_incompressible(data)


def test_text_is_not_flagged(text_data):
    assert not probe_incompressible(text_data)


def test_runs_are_not_flagged(runny_data):
    assert not probe_incompressible(runny_data)


def test_repeated_random_block_is_not_flagged(rng):
    # Flat byte histogram (order-0 entropy ≈ 8 bits) but massively
    # compressible — the digram gate must catch it.
    block = rng.integers(0, 256, 1024, dtype=np.uint8).tobytes()
    assert not probe_incompressible(block * 64)


def test_probe_is_deterministic(rng):
    data = rng.integers(0, 256, 32 * 1024, dtype=np.uint8).tobytes()
    assert probe_incompressible(data) == probe_incompressible(data)


# ------------------------------------------------- shard invariance

def test_chunked_encode_is_shard_invariant(text_data):
    """Encoding a chunk-aligned slice equals the slice of the full encode.

    This is the property the parallel engine relies on: the hash
    chain's ``max_chain`` budget must be counted per chunk, not across
    the whole gram-sorted buffer, or per-shard candidate sets would
    differ from the full-buffer ones.
    """
    arr = as_u8(text_data)
    chunk_size = 1024
    # A tight chain budget maximizes the chance that any cross-chunk
    # chain accounting would change which candidates get searched.
    full = encode_chunked(arr, SERIAL, chunk_size, max_chain=2)
    cut = 8 * chunk_size
    left = encode_chunked(arr[:cut], SERIAL, chunk_size, max_chain=2)
    right = encode_chunked(arr[cut:], SERIAL, chunk_size, max_chain=2)
    assert left.payload + right.payload == full.payload
    assert np.array_equal(
        np.concatenate([left.chunk_sizes, right.chunk_sizes]),
        full.chunk_sizes)


@pytest.mark.parametrize("max_chain", [1, 3, 64])
def test_shard_invariance_across_chain_budgets(text_data, max_chain):
    arr = as_u8(text_data)
    full = encode_chunked(arr, SERIAL, 2048, max_chain=max_chain)
    pieces = [encode_chunked(arr[lo:lo + 4096], SERIAL, 2048,
                             max_chain=max_chain)
              for lo in range(0, arr.size, 4096)]
    assert b"".join(p.payload for p in pieces) == full.payload


# ------------------------------------------------ thread-safety

def test_concurrent_encodes_share_nothing(text_data):
    """The matcher keeps no state between calls: parallel encodes of the
    same buffer must all equal the serial result."""
    arr = as_u8(text_data)
    expect = encode_chunked(arr, SERIAL, 1024).payload
    with ThreadPoolExecutor(max_workers=8) as pool:
        payloads = list(pool.map(
            lambda _: encode_chunked(arr, SERIAL, 1024).payload, range(16)))
    assert all(p == expect for p in payloads)
