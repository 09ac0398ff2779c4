"""Differential fuzzing across implementations and formats.

Four oracles, hammered with structured random inputs:

* the fast vectorized encoder must emit byte-identical streams to the
  pure-Python specification encoder (at exhaustive chain depth);
* every codec's tokens must reconstruct to the input, and the lzss
  formats' tokens must equal the specification's greedy parse;
* every stream must round-trip through both the fast and the reference
  decoder;
* random corruption of containers must never pass silently, and random
  corruption of raw streams must never escape as a non-ValueError.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codecs.lz4s import lz4s_tokenize
from repro.container import pack_container, unpack_container
from repro.core.api import gpu_compress, gpu_decompress
from repro.core.fixup import fixup_matches_reference
from repro.lzss.decoder import decode, reconstruct
from repro.lzss.encoder import best_matches, encode, encode_chunked, tokenize
from repro.lzss.formats import CUDA_V1, CUDA_V2, SERIAL, TokenFormat
from repro.lzss.parse import Tokens
from repro.lzss.reference import (
    reference_decode,
    reference_encode,
    reference_tokenize,
)
from repro.util.buffers import as_u8

# ---------------------------------------------------------------------------
# structured input generators: byte soups LZSS actually meets
# ---------------------------------------------------------------------------

run_blocks = st.lists(
    st.tuples(st.integers(0, 255), st.integers(1, 60)),
    min_size=0, max_size=30,
).map(lambda runs: b"".join(bytes([v]) * n for v, n in runs))

phrase_soup = st.lists(
    st.sampled_from([b"the", b"cat", b"sat", b" on ", b"mat", b"0x1f",
                     b"\x00\x00", b"zz"]),
    min_size=0, max_size=120,
).map(b"".join)

periodic = st.tuples(st.binary(min_size=1, max_size=25),
                     st.integers(1, 40)).map(lambda t: t[0] * t[1])

structured = st.one_of(st.binary(max_size=800), run_blocks, phrase_soup,
                       periodic)

def _interleaved_chunk_kinds(chunk: int) -> bytes:
    """Chunks of five kinds in turn, twice over, then a short tail.

    In order, the kinds route to lzss (half repeats), the trial (Zipf
    word text, which lzss-huffman wins at 3000 bytes), store or lz4s
    (random bytes), the trial again (zeros, which lzss wins) and lz4s
    (bytes below 181), so no two adjacent chunks share a route.
    """
    rng = np.random.default_rng(chunk)
    words = [bytes(rng.integers(97, 123, int(rng.integers(2, 9)),
                                dtype=np.uint8)) for _ in range(250)]
    pieces = []
    for _ in range(2):
        text = b" ".join(words[i] for i in rng.zipf(1.3, chunk) % 250)
        half = rng.integers(0, 256, chunk, dtype=np.uint8)
        half[:chunk // 2] = np.resize(half[:16], chunk // 2)
        pieces += [half.tobytes(),
                   text[:chunk],
                   rng.integers(0, 256, chunk, dtype=np.uint8).tobytes(),
                   bytes(chunk),
                   rng.integers(0, 181, chunk, dtype=np.uint8).tobytes()]
    return b"".join(pieces) + b"short tail"


SWEEP_FORMATS = [
    SERIAL,
    CUDA_V2,
    TokenFormat(name="w64", offset_bits=6, length_bits=8, window=64),
    TokenFormat(name="w256", offset_bits=9, length_bits=5, window=256,
                max_match_cap=20),
]


class TestEncoderOracle:
    @settings(max_examples=60, deadline=None)
    @given(structured)
    def test_fast_equals_spec_all_formats(self, data):
        for fmt in SWEEP_FORMATS:
            fast = encode(data, fmt, max_chain=10 ** 6)
            spec = reference_encode(data, fmt)
            assert fast.payload == spec, fmt.name

    @settings(max_examples=60, deadline=None)
    @given(structured, st.sampled_from([32, 100, 512]))
    def test_chunked_roundtrip_all_formats(self, data, chunk):
        if not data:
            return
        from repro.lzss.decoder import decode_chunked

        for fmt in SWEEP_FORMATS:
            r = encode_chunked(data, fmt, chunk)
            out = decode_chunked(r.payload, fmt, r.chunk_sizes, chunk,
                                 len(data))
            assert out == data, fmt.name


def _chunk_views(tokens: Tokens, n: int, chunk: int | None):
    """Each chunk's ``(lo, hi, tokens)``, starts rebased to the chunk."""
    chunk = chunk or n
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        keep = (tokens.starts >= lo) & (tokens.starts < hi)
        yield lo, hi, Tokens(starts=tokens.starts[keep] - lo,
                             is_pair=tokens.is_pair[keep],
                             lengths=tokens.lengths[keep],
                             distances=tokens.distances[keep])


def _assert_reconstructs(tokens: Tokens, arr: np.ndarray, chunk):
    for lo, hi, t in _chunk_views(tokens, arr.size, chunk):
        literals = arr[lo + t.starts[~t.is_pair]]
        assert reconstruct(t, literals, hi - lo).tobytes() == \
            arr[lo:hi].tobytes()


class TestTokenOracle:
    """``reconstruct(tokenize(x), literals) == x`` for every parse."""

    @settings(max_examples=40, deadline=None)
    @given(structured.filter(lambda d: len(d) > 0),
           st.sampled_from([None, 64, 100]))
    def test_lzss_tokens_equal_spec_and_reconstruct(self, data, chunk):
        arr = as_u8(data)
        for fmt in (SERIAL, CUDA_V2):
            tokens, _stats = tokenize(arr, fmt, chunk, max_chain=10 ** 6)
            _assert_reconstructs(tokens, arr, chunk)
            for lo, hi, t in _chunk_views(tokens, arr.size, chunk):
                got = [("pair", int(d), int(ln)) if p
                       else ("lit", data[lo + int(s)])
                       for s, p, ln, d in zip(t.starts, t.is_pair,
                                              t.lengths, t.distances)]
                assert got == reference_tokenize(data, fmt, lo, hi), fmt.name

    @settings(max_examples=40, deadline=None)
    @given(structured.filter(lambda d: len(d) > 0),
           st.sampled_from([64, 128]))
    def test_v1_slice_tokens_equal_serial_walk_and_reconstruct(self, data,
                                                               chunk):
        # A V1 slice parses on its own but matches against the whole
        # chunk before it, so the oracle is the paper's serial walk over
        # the same slice-capped matches.
        arr = as_u8(data)
        tokens, _stats = tokenize(arr, CUDA_V1, chunk, slice_size=32)
        _assert_reconstructs(tokens, arr, chunk)
        blen, bdist, *_ = best_matches(arr, CUDA_V1, chunk, slice_size=32)
        ref = fixup_matches_reference(blen, bdist, CUDA_V1, 32)
        for field in ("starts", "is_pair", "lengths", "distances"):
            assert getattr(tokens, field).tolist() == \
                getattr(ref, field).tolist()

    @settings(max_examples=40, deadline=None)
    @given(structured.filter(lambda d: len(d) > 0),
           st.sampled_from([None, 64, 100]))
    def test_lz4s_tokens_reconstruct(self, data, chunk):
        arr = as_u8(data)
        _assert_reconstructs(lz4s_tokenize(arr, chunk or arr.size), arr,
                             chunk)


class TestDecoderOracle:
    @settings(max_examples=60, deadline=None)
    @given(structured)
    def test_cross_decode(self, data):
        for fmt in (SERIAL, CUDA_V2):
            payload = encode(data, fmt).payload
            fast = decode(payload, fmt, len(data))
            ref = reference_decode(payload, fmt, len(data))
            assert fast == ref == data

    @settings(max_examples=80, deadline=None)
    @given(structured.filter(lambda d: len(d) > 4),
           st.integers(0, 1 << 30), st.integers(0, 7))
    def test_corrupted_stream_never_crashes(self, data, pos, bit):
        payload = bytearray(encode(data, SERIAL).payload)
        payload[pos % len(payload)] ^= 1 << bit
        try:
            out = decode(bytes(payload), SERIAL, len(data))
            assert isinstance(out, bytes) and len(out) == len(data)
        except ValueError:
            pass  # clean rejection is the other acceptable outcome


class TestContainerOracle:
    @settings(max_examples=60, deadline=None)
    @given(structured.filter(lambda d: len(d) > 0),
           st.integers(0, 1 << 30), st.integers(0, 7))
    def test_container_flip_detected_or_harmless(self, data, pos, bit):
        blob = bytearray(pack_container(
            encode_chunked(data, CUDA_V2, min(256, len(data)))))
        blob[pos % len(blob)] ^= 1 << bit
        with pytest.raises(ValueError):
            unpack_container(bytes(blob))

    @settings(max_examples=25, deadline=None)
    @given(structured.filter(lambda d: len(d) > 0))
    def test_api_end_to_end(self, data):
        buf = gpu_compress(data)
        assert gpu_decompress(buf.data).data == data


class TestCodecOracle:
    """Every registered codec — and the auto dispatcher — must
    round-trip anything, byte-identically, at both the dispatch and the
    public-API layer."""

    ALL_CODECS = ["store", "lzss", "lz4s", "lzss-huffman", "auto"]

    @settings(max_examples=40, deadline=None)
    @given(structured.filter(lambda d: len(d) > 0),
           st.sampled_from(ALL_CODECS), st.sampled_from([64, 256, 1024]))
    def test_dispatch_roundtrip(self, data, codec, chunk):
        from repro.codecs.dispatch import encode_chunked_auto
        from repro.lzss.decoder import decode_chunked_with_stats

        r = encode_chunked_auto(data, CUDA_V2, chunk, codec=codec)
        out, _, _ = decode_chunked_with_stats(
            r.payload, CUDA_V2, r.chunk_sizes, chunk, len(data),
            chunk_codecs=r.chunk_codecs)
        assert out == data

    @pytest.mark.parametrize("codec", ALL_CODECS)
    @pytest.mark.parametrize("chunk", [1000, 3000])
    @pytest.mark.parametrize("fmt", [CUDA_V1, CUDA_V2, SERIAL],
                             ids=lambda f: f.name)
    def test_chunk_payloads_independent_of_grouping(self, fmt, chunk,
                                                    codec):
        """Each chunk's payload is what its codec makes of the chunk
        alone, however the dispatcher groups chunks; a trial chunk keeps
        the smaller of lzss and lzss-huffman, lzss on a tie."""
        from repro.codecs import get_codec
        from repro.codecs.dispatch import (
            choose_chunk_codec,
            encode_chunked_auto,
        )

        data = _interleaved_chunk_kinds(chunk)
        r = encode_chunked_auto(data, fmt, chunk, codec=codec)
        arr = as_u8(data)
        offs = np.concatenate([[0], np.cumsum(r.chunk_sizes)])
        routes = []
        for c, codec_id in enumerate(r.chunk_codecs):
            piece = arr[c * chunk:(c + 1) * chunk]
            got = r.payload[offs[c]:offs[c + 1]]
            route = codec if codec != "auto" else choose_chunk_codec(piece)
            routes.append(route)
            if route == "trial":
                as_lzss = get_codec("lzss").encode_chunk(piece, fmt)
                as_huff = get_codec("lzss-huffman").encode_chunk(piece, fmt)
                route = ("lzss-huffman" if len(as_huff) < len(as_lzss)
                         else "lzss")
            assert get_codec(int(codec_id)).name == route
            assert got == get_codec(route).encode_chunk(piece, fmt)
        if codec == "auto":  # the input really interleaves the routes
            assert len(set(routes)) >= 3
            assert all(a != b for a, b in zip(routes, routes[1:]))

    @settings(max_examples=20, deadline=None)
    @given(structured, st.sampled_from(ALL_CODECS))
    def test_api_end_to_end_every_codec(self, data, codec):
        buf = gpu_compress(data, codec=codec)
        assert gpu_decompress(buf.data).data == data

    @pytest.mark.parametrize("codec", ALL_CODECS)
    @pytest.mark.parametrize("kind,seed", [("random", 11), ("text", 22),
                                           ("runs", 33)])
    def test_seeded_corpora_every_codec(self, codec, kind, seed):
        """The issue's sweep: random / text-like / incompressible
        inputs, each codec, full compress-decompress API."""
        rng = np.random.default_rng(seed)
        if kind == "random":
            data = rng.integers(0, 256, 48 * 1024, dtype=np.uint8).tobytes()
        elif kind == "runs":
            data = bytes(rng.integers(0, 4, 192, dtype=np.uint8)) * 256
        else:
            words = [bytes(rng.integers(97, 123, 6, dtype=np.uint8))
                     for _ in range(40)]
            data = b" ".join(words[i] for i in
                             rng.integers(0, 40, 8000))[:48 * 1024]
        buf = gpu_compress(data, codec=codec)
        got = gpu_decompress(buf.data)
        assert got.data == data
        info = unpack_container(buf.data)
        if codec == "lzss":
            assert info.chunk_codecs is None  # classic v2, golden bytes
        else:
            assert info.version == 3
            assert info.chunk_codecs is not None


class TestDatasetIntegration:
    @pytest.mark.parametrize("name", ["cfiles", "demap", "dictionary",
                                      "kernel_tarball",
                                      "highly_compressible"])
    @pytest.mark.parametrize("version", [1, 2])
    def test_every_dataset_through_full_api(self, name, version):
        from repro.core.params import CompressionParams
        from repro.datasets import generate

        data = generate(name, 64 * 1024)
        buf = gpu_compress(data, CompressionParams(version=version))
        assert gpu_decompress(buf.data).data == data
        assert 0.01 < buf.ratio < 1.3

    @pytest.mark.parametrize("name", ["cfiles", "kernel_tarball"])
    def test_auto_dispatch_never_worse_than_lzss(self, name):
        from repro.datasets import generate

        data = generate(name, 64 * 1024)
        auto = gpu_compress(data, codec="auto")
        lzss = gpu_compress(data)
        assert gpu_decompress(auto.data).data == data
        assert len(auto.data) <= len(lzss.data) * 1.01
