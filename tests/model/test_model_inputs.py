"""Golden values of what the cost models read from an encode.

The container goldens pin payload bytes; the modeled GPU profile reads
other outputs of the match pass — the per-position and per-warp compare
counts (V2) and the sampled κ / p_cap (V1).  A matcher rewrite that
kept the bytes but moved one compare would shift ``modeled_seconds``
without failing any container golden, so those inputs are frozen here
for one seeded 64 KiB buffer per compressor version.
"""

import hashlib

import numpy as np
import pytest

from repro.core.api import gpu_compress
from repro.core.params import CompressionParams
from repro.datasets import generate
from repro.model.cpu import sample_match_statistics

SEED = 2011
SIZE = 64 << 10


def _sha256_i64(arr: np.ndarray) -> str:
    return hashlib.sha256(arr.astype(np.int64).tobytes()).hexdigest()


@pytest.fixture(scope="module")
def cfiles() -> bytes:
    return generate("cfiles", SIZE, seed=SEED)


@pytest.fixture(scope="module")
def highly_compressible() -> bytes:
    return generate("highly_compressible", SIZE, seed=SEED)


def test_v2_compare_counts_frozen(cfiles):
    buf = gpu_compress(cfiles, CompressionParams(version=2))
    stats = buf.result.stats
    assert stats.compare_count == 14332143
    assert _sha256_i64(stats.per_position_compares) == (
        "31a0bea5a1443af2e716655f63fc2235db9418ba124a3648fc59a9d6d5bc5d6c")
    assert _sha256_i64(stats.per_warp_compares) == (
        "87e018ac42a714fc664fff1c7bead5186c91a8e0211c24f93c0ffa54f9de9dfd")
    assert repr(buf.modeled_seconds) == "0.00540812349724223"


def test_v1_model_inputs_frozen(highly_compressible):
    buf = gpu_compress(highly_compressible, CompressionParams(version=1))
    assert repr(buf.modeled_seconds) == "0.0034756547123189234"


@pytest.mark.parametrize("name, kappa, p_cap", [
    ("cfiles", "1.0778016948465432", "0.0014955792237192262"),
    ("highly_compressible", "2.051345813367017", "0.0589486125574099"),
])
def test_sampled_kappa_frozen(name, kappa, p_cap, request):
    stats = sample_match_statistics(request.getfixturevalue(name))
    assert (repr(stats.kappa), repr(stats.p_cap)) == (kappa, p_cap)
    assert stats.sample_bytes == SIZE
