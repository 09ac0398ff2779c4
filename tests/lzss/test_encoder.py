"""Fast encoder: round trips, reference equivalence, chunk/slice semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lzss.decoder import decode, decode_chunked
from repro.lzss.encoder import encode, encode_chunked, tokenize
from repro.lzss.formats import CUDA_V1, CUDA_V2, SERIAL
from repro.lzss.reference import reference_decode, reference_encode


class TestRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(st.binary(max_size=2000))
    def test_continuous_all_formats(self, data):
        for fmt in (SERIAL, CUDA_V2):
            r = encode(data, fmt)
            assert decode(r.payload, fmt, len(data)) == data

    @settings(max_examples=25, deadline=None)
    @given(st.binary(max_size=2000), st.sampled_from([64, 256, 1000]))
    def test_chunked(self, data, chunk):
        if not data:
            return
        chunk = min(chunk, len(data))
        r = encode_chunked(data, CUDA_V2, chunk)
        out = decode_chunked(r.payload, CUDA_V2, r.chunk_sizes, chunk,
                             len(data))
        assert out == data

    def test_v1_slice_roundtrip(self, text_data):
        data = text_data[:8192]
        r = encode_chunked(data, CUDA_V1, 4096, slice_size=32)
        assert decode_chunked(r.payload, CUDA_V1, r.chunk_sizes, 4096,
                              len(data)) == data

    def test_run_heavy_data(self, runny_data):
        for fmt in (SERIAL, CUDA_V2):
            r = encode(runny_data, fmt)
            assert decode(r.payload, fmt, len(runny_data)) == runny_data

    def test_incompressible_data(self, binary_data):
        r = encode(binary_data, SERIAL)
        assert decode(r.payload, SERIAL, len(binary_data)) == binary_data
        assert r.stats.ratio > 1.0  # flag overhead, no matches

    def test_empty_input(self):
        r = encode(b"", SERIAL)
        assert r.payload == b""
        assert decode(b"", SERIAL, 0) == b""


class TestReferenceEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(st.binary(max_size=400))
    def test_bitstreams_identical_to_spec(self, data):
        for fmt in (SERIAL, CUDA_V2):
            fast = encode(data, fmt, max_chain=10 ** 6)
            assert fast.payload == reference_encode(data, fmt), fmt.name

    def test_fast_stream_decodable_by_reference(self, text_data):
        data = text_data[:1500]
        fast = encode(data, SERIAL)
        assert reference_decode(fast.payload, SERIAL, len(data)) == data


class TestChunkTable:
    def test_sizes_cover_payload(self, text_data):
        r = encode_chunked(text_data, CUDA_V2, 512)
        assert int(r.chunk_sizes.sum()) == len(r.payload)
        assert r.chunk_sizes.size == -(-len(text_data) // 512)

    def test_every_chunk_byte_aligned_and_independent(self, text_data):
        data = text_data[:4096]
        r = encode_chunked(data, CUDA_V2, 512)
        offsets = np.concatenate([[0], np.cumsum(r.chunk_sizes)])
        for c in range(r.chunk_sizes.size):
            piece = r.payload[offsets[c]:offsets[c + 1]]
            lo, hi = c * 512, min((c + 1) * 512, len(data))
            assert decode(piece, CUDA_V2, hi - lo) == data[lo:hi]

    def test_chunk_size_larger_than_input_is_one_chunk(self):
        r = encode_chunked(b"abc", CUDA_V2, 10)
        assert r.chunk_sizes.size == 1
        assert decode_chunked(r.payload, CUDA_V2, r.chunk_sizes, 10, 3) == b"abc"

    def test_empty_input_chunked(self):
        r = encode_chunked(b"", CUDA_V2, 1)
        assert r.payload == b""
        assert r.chunk_sizes.size == 0


class TestStats:
    def test_counts_consistent(self, text_data):
        r = encode(text_data, SERIAL, collect_detail=True)
        s = r.stats
        assert s.n_tokens == s.n_literals + s.n_pairs
        assert s.input_size == len(text_data)
        assert s.output_size == len(r.payload)
        # token output coverage equals input size
        covered = s.n_literals + s.sum_match_length
        assert covered == len(text_data)
        assert s.token_starts.size == s.n_tokens

    def test_total_bits_match_payload(self, text_data):
        r = encode(text_data, SERIAL)
        assert -(-r.stats.total_bits // 8) == len(r.payload)

    def test_ratio_definition(self, text_data):
        r = encode(text_data, SERIAL)
        assert r.stats.ratio == pytest.approx(len(r.payload) / len(text_data))

    def test_detail_off_by_default(self, text_data):
        r = encode(text_data, SERIAL)
        assert r.stats.token_starts is None

    def test_lag_path_reports_compares(self, text_data):
        r = encode(text_data[:2000], CUDA_V2, collect_detail=True)
        assert r.stats.per_warp_compares is not None
        assert r.stats.per_warp_compares.sum() > 0


class TestSliceSemantics:
    def test_slice_tokens_never_cross(self, text_data):
        data = np.frombuffer(text_data[:4096], dtype=np.uint8)
        tokens, _stats = tokenize(data, CUDA_V1, 4096, slice_size=32)
        starts = tokens.starts
        ends = starts + tokens.lengths
        # a token starting in slice k ends within slice k
        assert ((ends - 1) // 32 == starts // 32).all()

    def test_slice_ratio_worse_than_unsliced(self, text_data):
        data = text_data[:8192]
        sliced = encode_chunked(data, CUDA_V1, 4096, slice_size=32)
        unsliced = encode_chunked(data, CUDA_V1, 4096)
        assert sliced.stats.ratio >= unsliced.stats.ratio

    def test_v1_tracks_serial_ratio(self, text_data):
        # Table II: V1 within ~2 points of serial on text
        serial = encode(text_data, SERIAL)
        v1 = encode_chunked(text_data, CUDA_V1, 4096, slice_size=32)
        assert v1.stats.ratio >= serial.stats.ratio
        assert v1.stats.ratio - serial.stats.ratio < 0.15
