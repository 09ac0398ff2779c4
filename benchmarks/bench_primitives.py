"""Real wall-clock microbenchmarks of this library's primitives.

Everything above measures the *modeled* 2011 testbed; these measure the
actual Python/NumPy implementation on the machine running the suite —
the numbers a downstream user of the library cares about.
"""

import numpy as np
import pytest

from repro.bzip2.bwt import bwt_transform
from repro.bzip2.huffman import (
    HuffmanCode,
    huffman_code_lengths,
    huffman_decode,
    huffman_encode,
)
from repro.bzip2.mtf import mtf_encode
from repro.bzip2.pipeline import compress as bz_compress
from repro.codecs.dispatch import choose_chunk_codec
from repro.codecs.lz4s import LZ4S_MAX_CHAIN, LZ4S_MAX_MATCH
from repro.codecs.lzss_huffman import MATCH_SYMBOL
from repro.core.params import CompressionParams
from repro.datasets import generate
from repro.lzss.decoder import decode, decode_chunked_with_stats
from repro.lzss.encoder import encode, encode_chunked, tokenize
from repro.lzss.formats import CUDA_V2, SERIAL
from repro.lzss.lagmatch import lag_best_matches
from repro.lzss.matcher import hash_chain_best_matches
from repro.model.cpu import sample_match_statistics
from repro.service.pipeline import decode_payload, encode_payload
from repro.util.bitio import pack_tokens

SIZE = 256 * 1024

#: The matcher's two hot callers, on the 64 KiB buffers of the e2e mix.
CHAIN_SIZE = 64 * 1024
_V1 = CompressionParams(version=1)
V1_CHAIN = dict(window=_V1.token_format.window,
                max_match=_V1.token_format.max_match,
                chunk_size=_V1.chunk_size, slice_size=_V1.slice_size)
LZ4S_CHAIN = dict(window=4096, max_match=LZ4S_MAX_MATCH,
                  max_chain=LZ4S_MAX_CHAIN, chunk_size=4096)
#: The lag matcher as V2 encodes a gateway frame or a compress buffer:
#: 4 KiB chunks.  The V2 compressor collects the per-position/warp
#: detail its model reads; the lzss codec, auto and lzss-huffman do not.
_V2 = CompressionParams(version=2)
V2_LAG = dict(window=_V2.token_format.window,
              max_match=_V2.token_format.max_match,
              chunk_size=_V2.chunk_size)


@pytest.fixture(scope="module")
def cfiles():
    return generate("cfiles", SIZE)


def test_serial_encode(benchmark, cfiles):
    r = benchmark(encode, cfiles, SERIAL)
    benchmark.extra_info["MB_per_s_hint"] = "see stats"
    assert r.stats.ratio < 1.0


def test_v2_window_scan(benchmark, cfiles):
    res = benchmark(lag_best_matches, cfiles, 128, 66)
    assert res.compare_count > 0


@pytest.mark.parametrize("detail", [True, False], ids=["detail", "plain"])
@pytest.mark.parametrize("size", [16 << 10, CHAIN_SIZE],
                         ids=["gateway_frame", "compress_buffer"])
def test_v2_lag_chunked(benchmark, size, detail):
    data = generate("cfiles", size, seed=1)
    res = benchmark(lag_best_matches, data, **V2_LAG,
                    collect_per_position=detail)
    assert res.compare_count > 0
    assert (res.warp_compares is not None
            and res.warp_compares.size == size // 32) == detail


def test_hash_chain_matcher(benchmark, cfiles):
    blen, _ = benchmark(hash_chain_best_matches, cfiles, 4096, 18)
    assert blen.max() > 0


def test_hash_chain_v1_highly_compressible(benchmark):
    data = generate("highly_compressible", CHAIN_SIZE, seed=1)
    blen, _ = benchmark(hash_chain_best_matches, data, **V1_CHAIN)
    assert blen.max() > 0


def test_hash_chain_lz4s_cfiles(benchmark):
    data = generate("cfiles", CHAIN_SIZE, seed=1)
    blen, _ = benchmark(hash_chain_best_matches, data, **LZ4S_CHAIN)
    assert blen.max() > 0


@pytest.mark.parametrize("config", [V1_CHAIN, LZ4S_CHAIN], ids=["v1", "lz4s"])
def test_hash_chain_random(benchmark, config):
    # The fixed costs (word build, radix sort), with almost no chains.
    data = np.random.default_rng(0).integers(0, 256, CHAIN_SIZE,
                                             dtype=np.uint8)
    blen, _ = benchmark(hash_chain_best_matches, data, **config)
    assert blen.size == CHAIN_SIZE


def test_sample_match_statistics(benchmark, cfiles):
    stats = benchmark(sample_match_statistics, cfiles)
    assert 1.0 <= stats.kappa <= 18.0


def test_decode(benchmark, cfiles):
    r = encode(cfiles, SERIAL)
    out = benchmark(decode, r.payload, SERIAL, SIZE)
    assert out == cfiles


@pytest.mark.parametrize("size", [16 << 10, CHAIN_SIZE],
                         ids=["gateway_frame", "decompress_buffer"])
def test_decode_chunked(benchmark, size):
    # What gpu_decompress hands the engine for a V2 container.
    data = generate("cfiles", size, seed=1)
    r = encode_chunked(data, CUDA_V2, _V2.chunk_size)
    out, tokens, _ = benchmark(decode_chunked_with_stats, r.payload, CUDA_V2,
                               r.chunk_sizes, _V2.chunk_size, size)
    assert out == data and tokens.size == r.chunk_sizes.size


def test_bwt(benchmark, cfiles):
    last, _ = benchmark(bwt_transform, cfiles[:131072])
    assert len(last) == 131072


def test_mtf(benchmark, cfiles):
    out = benchmark(mtf_encode, cfiles[:131072])
    assert len(out) == 131072


def test_bzip2_pipeline(benchmark, cfiles):
    r = benchmark(bz_compress, cfiles)
    assert r.ratio < 0.6


def test_pack_tokens(benchmark):
    rng = np.random.default_rng(0)
    values = rng.integers(0, 1 << 16, 200_000)
    nbits = rng.integers(9, 18, 200_000)
    values &= (1 << nbits) - 1
    payload, total = benchmark(pack_tokens, values, nbits)
    assert total == nbits.sum()


# --- auto's entropy stage and chooser, on 4 KiB chunks of e2e buffers ---

@pytest.fixture(scope="module")
def huffman_symbols():
    """The 257-symbol stream lzss-huffman codes for one 4 KiB cfiles
    chunk: its literal bytes, and MATCH_SYMBOL for each match."""
    chunk = np.frombuffer(generate("cfiles", 4096, seed=1), dtype=np.uint8)
    tokens, _ = tokenize(chunk, CUDA_V2, 4096)
    return np.where(tokens.is_pair, MATCH_SYMBOL,
                    chunk[tokens.starts].astype(np.int64))


def test_huffman_code_lengths(benchmark, huffman_symbols):
    freqs = np.bincount(huffman_symbols, minlength=MATCH_SYMBOL + 1)
    lengths = benchmark(huffman_code_lengths, freqs, 15)
    assert 0 < lengths.max() <= 15


def test_huffman_decode(benchmark, huffman_symbols):
    code = HuffmanCode.from_frequencies(
        np.bincount(huffman_symbols, minlength=MATCH_SYMBOL + 1), 15)
    payload, nbits = huffman_encode(huffman_symbols, code)
    out = benchmark(huffman_decode, payload, nbits, code,
                    huffman_symbols.size)
    assert (out == huffman_symbols).all()


def test_choose_chunk_codec(benchmark):
    data = np.frombuffer(generate("cfiles", CHAIN_SIZE, seed=1),
                         dtype=np.uint8)

    def choose_all():
        return [choose_chunk_codec(data[at:at + 4096])
                for at in range(0, data.size, 4096)]

    assert len(benchmark(choose_all)) == CHAIN_SIZE // 4096


# --- the gateway's frame jobs -------------------------------------------

#: The paper's five corpora (Table I), in table order.
CORPORA = ("cfiles", "demap", "dictionary", "kernel_tarball",
           "highly_compressible")
FRAME = 16 << 10


def test_gateway_frame_jobs(benchmark):
    # A 16 KiB frame as the e2e gateway builds one: an equal slice of
    # every corpus; one encode job (probe, V2 container) and its decode.
    frame = b"".join(generate(c, FRAME // len(CORPORA), seed=1)
                     for c in CORPORA)

    def round_trip():
        flags, payload = encode_payload(frame)
        assert flags == 0
        return decode_payload(flags, payload)

    assert benchmark(round_trip) == frame
