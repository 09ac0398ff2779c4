"""Fast decoder: reference equivalence and corruption handling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptChunkError
from repro.lzss.decoder import (
    SalvageReport,
    decode,
    decode_chunked,
    decode_chunked_with_stats,
)
from repro.lzss.encoder import encode, encode_chunked
from repro.lzss.formats import CUDA_V2, SERIAL
from repro.lzss.reference import reference_encode


class TestAgainstReference:
    @settings(max_examples=25, deadline=None)
    @given(st.binary(max_size=600))
    def test_decodes_reference_streams(self, data):
        for fmt in (SERIAL, CUDA_V2):
            payload = reference_encode(data, fmt)
            assert decode(payload, fmt, len(data)) == data

    def test_deep_overlap_chain(self):
        # d=1 run: every output byte's parent chain walks to position 0
        data = b"z" * 5000
        payload = encode(data, SERIAL).payload
        assert decode(payload, SERIAL, len(data)) == data


class TestCorruption:
    def test_truncated_payload_raises(self, text_data):
        r = encode(text_data[:500], SERIAL)
        with pytest.raises(ValueError):
            decode(r.payload[: len(r.payload) // 2], SERIAL, 500)

    def test_wrong_output_size_raises(self, text_data):
        r = encode(text_data[:500], SERIAL)
        with pytest.raises(ValueError):
            decode(r.payload, SERIAL, 501)

    def test_excess_distance_raises(self):
        from repro.util.bitio import BitWriter

        w = BitWriter()
        # V2 pair with distance 200 > window 128 (but fits the field)
        w.write_bit(0)
        w.write_bits((199 << 8) | 0, 16)
        with pytest.raises(ValueError, match="window|distance"):
            decode(w.getvalue(), CUDA_V2, 3)

    def test_backreference_before_start_raises(self):
        from repro.util.bitio import BitWriter

        w = BitWriter()
        w.write_bit(1)
        w.write_bits(65, 8)  # literal 'A'
        w.write_bit(0)
        value, nbits = SERIAL.pack_pair(5, 3)  # distance 5 > 1 byte out
        w.write_bits(value, nbits - 1)
        with pytest.raises(ValueError):
            decode(w.getvalue(), SERIAL, 4)

    def test_empty_stream_nonzero_size_raises(self):
        with pytest.raises(ValueError):
            decode(b"", SERIAL, 4)

    def test_errors_are_typed_and_located(self):
        # Every decode-corruption error is a CorruptChunkError (a
        # ValueError subclass, so older call sites keep working) and
        # names the chunk plus the offending token position.
        from repro.util.bitio import BitWriter

        w = BitWriter()
        w.write_bit(1)
        w.write_bits(65, 8)  # literal 'A'
        w.write_bit(0)
        w.write_bits((199 << 8) | 0, 16)  # distance 200 > window 128
        with pytest.raises(CorruptChunkError) as err:
            decode(w.getvalue(), CUDA_V2, 4)
        exc = err.value
        assert isinstance(exc, ValueError)
        assert exc.chunk_index == 0
        assert exc.token_position == 1  # the pair after the literal
        assert "chunk 0" in str(exc)

    def test_chunked_error_names_failing_chunk(self, text_data):
        data = text_data[:4000]
        r = encode_chunked(data, CUDA_V2, 512)
        # Zero out chunk 4's stream: its token walk cannot land on the
        # declared output size.
        offsets = np.concatenate([[0], np.cumsum(r.chunk_sizes)])
        payload = bytearray(r.payload)
        payload[offsets[4]:offsets[5]] = bytes(int(offsets[5] - offsets[4]))
        with pytest.raises(CorruptChunkError) as err:
            decode_chunked(bytes(payload), CUDA_V2, r.chunk_sizes, 512,
                           len(data))
        assert err.value.chunk_index == 4

    def test_bit_flip_usually_detected_or_wrong(self, text_data):
        # A flipped flag bit either errors out or mis-decodes; it must
        # never crash with a non-ValueError.
        data = text_data[:300]
        payload = bytearray(encode(data, SERIAL).payload)
        payload[3] ^= 0x40
        try:
            out = decode(bytes(payload), SERIAL, len(data))
            assert isinstance(out, bytes)
        except ValueError:
            pass


class TestChunked:
    def test_table_mismatch_raises(self, text_data):
        r = encode_chunked(text_data, CUDA_V2, 512)
        bad = r.chunk_sizes.copy()
        bad[0] += 1
        with pytest.raises(ValueError):
            decode_chunked(r.payload, CUDA_V2, bad, 512, len(text_data))

    def test_wrong_chunk_count_raises(self, text_data):
        r = encode_chunked(text_data, CUDA_V2, 512)
        with pytest.raises(ValueError):
            decode_chunked(r.payload, CUDA_V2, r.chunk_sizes, 1024,
                           len(text_data))

    def test_stats_token_counts(self, text_data):
        data = text_data[:4000]
        r = encode_chunked(data, CUDA_V2, 512, collect_detail=True)
        out, tokens, report = decode_chunked_with_stats(
            r.payload, CUDA_V2, r.chunk_sizes, 512, len(data))
        assert out == data and report is None
        # decoder token counts agree with the encoder's parse
        per_chunk = np.bincount(r.stats.token_starts // 512,
                                minlength=tokens.size)
        assert tokens.tolist() == per_chunk.tolist()

    def test_zero_size(self):
        out, tokens, _ = decode_chunked_with_stats(
            b"", CUDA_V2, np.array([], dtype=np.int64), 512, 0)
        assert out == b"" and tokens.size == 0


class TestSalvage:
    def test_decode_failure_detection_without_crcs(self, text_data):
        # v1 containers have no per-chunk CRCs; salvage still catches
        # chunks whose token stream fails to decode.
        data = text_data[:4000]
        r = encode_chunked(data, CUDA_V2, 512)
        offsets = np.concatenate([[0], np.cumsum(r.chunk_sizes)])
        payload = bytearray(r.payload)
        payload[offsets[4]:offsets[5]] = bytes(int(offsets[5] - offsets[4]))
        out, tokens, report = decode_chunked_with_stats(
            bytes(payload), CUDA_V2, r.chunk_sizes, 512, len(data),
            errors="salvage")
        assert report.lost == [4]
        assert tokens[4] == 0
        assert out[:4 * 512] == data[:4 * 512]
        assert out[5 * 512:] == data[5 * 512:]
        assert out[4 * 512:5 * 512] == b"\x00" * 512

    def test_report_describe(self):
        clean = SalvageReport(n_chunks=3, recovered=[0, 1, 2])
        assert clean.complete
        assert "all 3 chunks" in clean.describe()
        hurt = SalvageReport(n_chunks=3, recovered=[0, 2], lost=[1],
                             lost_ranges=[(512, 1024)])
        assert not hurt.complete
        assert hurt.lost_bytes == 512
        assert "[1]" in hurt.describe()
