"""Golden values of what the cost models read from an encode.

The container goldens pin payload bytes; the modeled GPU profile reads
other outputs of the match pass — the per-position and per-warp compare
counts (V2) and the sampled κ / p_cap (V1).  A matcher rewrite that
kept the bytes but moved one compare would shift ``modeled_seconds``
without failing any container golden, so those inputs are frozen here
for one seeded 64 KiB buffer per compressor version, and every output
of the V2 matcher for one gateway-shaped 16 KiB frame.

The modeled outputs are frozen too: the paper-table cells the harness
derives (under the shipped and the fitted calibration), the streaming
pipeline's containers and stage times, and the heterogeneous split.
"""

import hashlib

import numpy as np
import pytest

from repro.bench.harness import gather_artifacts, run_dataset
from repro.core.api import gpu_compress
from repro.core.hetero import HeterogeneousCompressor
from repro.core.params import CompressionParams
from repro.core.pipeline import StreamingPipeline
from repro.datasets import available_datasets, generate
from repro.lzss.formats import CUDA_V2
from repro.lzss.lagmatch import lag_best_matches
from repro.model.calibration import default_calibration
from repro.model.cpu import sample_match_statistics
from repro.model.fitting import fit_calibration

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


def test_v2_gateway_frame_matches_frozen():
    # A gateway frame holds an equal slice of every corpus; at 16 KiB
    # the matcher runs its lags in blocks, unlike the 256 KiB-and-up
    # inputs that run one lag at a time.
    frame = b"".join(generate(name, (16 << 10) // 5, seed=SEED)
                     for name in available_datasets())
    res = lag_best_matches(frame, CUDA_V2.window, CUDA_V2.max_match,
                           chunk_size=CompressionParams(version=2).chunk_size,
                           collect_per_position=True)
    assert res.compare_count == 16011612
    assert [_sha256_i64(a) for a in (res.best_len, res.best_dist,
                                     res.per_position_compares,
                                     res.warp_compares)] == [
        "ee0eb4ff08ad40e983bac12695f14cf72ff4f5caf1fb4bb7ddcc8da73764a0da",
        "432ab5272a1ab5c019110583eb94258a323288d1671cc02b7aa10c32e84fecaa",
        "9846c41a0bac454dccd263e667922b2f624d8b3686dae98c182c909e3c47141d",
        "213e2b005e15cdbbcfa14b0219b8c2a909a98f1606de20210798c7aa08e1debc",
    ]


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


@pytest.fixture(scope="module")
def cfiles_artifacts():
    return gather_artifacts("cfiles", SIZE, seed=SEED)


@pytest.mark.parametrize("fitted, v1, v2, decompress", [
    (False, "13.154402678027028", "11.075836922352087", "1.2906011866142364"),
    (True, "12.067921074003287", "4.260000000000001", "0.8404918708683409"),
])
def test_paper_cells_frozen(cfiles_artifacts, fitted, v1, v2, decompress):
    cal = (fit_calibration(cfiles_artifacts) if fitted
           else default_calibration())
    run = run_dataset(cfiles_artifacts, cal)
    assert (repr(run.compress_seconds["culzss_v1"]),
            repr(run.compress_seconds["culzss_v2"]),
            repr(run.decompress_seconds["culzss"])) == (v1, v2, decompress)


@pytest.mark.parametrize("version, sha, sequential, pipelined, stages", [
    (1, "3bd0f84076c0e34c38f065a8a39ab1a8964a62b206505fdb8c8f71ef92e51af6",
     "0.008171126785000567", "0.0081168416729815",
     {"h2d": "3.893672727272728e-05", "kernel": "0.008088803892252864",
      "d2h": "3.893672727272728e-05", "cpu": "4.449438202247191e-06"}),
    (2, "0d1ac9618c5352f62de3744c501839c851f37d9de112196733879f66f50b0495",
     "0.008065080631095985", "0.007875940509883864",
     {"h2d": "3.893672727272728e-05", "kernel": "0.007756136366880799",
      "d2h": "4.787345454545455e-05", "cpu": "0.00022213408239700374"}),
])
def test_streaming_pipeline_frozen(version, sha, sequential, pipelined,
                                   stages):
    buffers = [generate(name, 16 << 10, seed=SEED)
               for name in ("cfiles", "highly_compressible", "dictionary")]
    res = StreamingPipeline(CompressionParams(version=version)) \
        .compress_stream(buffers)
    assert hashlib.sha256(b"".join(res.containers)).hexdigest() == sha
    assert repr(res.sequential_seconds) == sequential
    assert repr(res.pipelined_seconds) == pipelined
    assert {k: repr(v) for k, v in res.stage_seconds.items()} == stages


@pytest.mark.parametrize("params, plan", [
    (CompressionParams(version=1),
     ("0.4100642920411721", "0.002633862705756666",
      "0.0026338627057566656")),
    (CompressionParams(version=2),
     ("0.4522190043214655", "0.002445656223170403",
      "0.002445656223170403")),
    # A tuning-sweep window: no container allowed, but the plan is.
    (CompressionParams(version=2, window=256),
     ("0.35573153864552426", "0.002876440008569904",
      "0.0028764400085699044")),
])
def test_hetero_plan_frozen(cfiles, params, plan):
    got = HeterogeneousCompressor(params).plan(cfiles)
    assert (repr(got.gpu_fraction), repr(got.gpu_seconds),
            repr(got.cpu_seconds)) == plan
