"""Fast decoder: reference equivalence and corruption handling."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import generate
from repro.errors import CorruptChunkError
from repro.lzss import decoder
from repro.lzss.decoder import (
    SalvageReport,
    decode,
    decode_chunked,
    decode_chunked_with_stats,
)
from repro.lzss.encoder import encode, encode_chunked
from repro.lzss.formats import CUDA_V1, CUDA_V2, SERIAL
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

    def test_memory_stays_bounded_on_a_mebibyte(self):
        # Runs of RUN_BYTES bound the working set: one run over the
        # whole buffer peaks near 90 MiB, 32 KiB runs near 4 MiB.
        data = generate("cfiles", 1 << 20, seed=1)
        r = encode_chunked(data, CUDA_V2, 4096)
        payload, sizes = bytes(r.payload), np.asarray(r.chunk_sizes)
        tracemalloc.start()
        try:
            out, _tokens, _ = decode_chunked_with_stats(
                payload, CUDA_V2, sizes, 4096, len(data))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out == data
        assert peak < 16 << 20, f"peak {peak / 2**20:.1f} MiB"


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

    @settings(max_examples=30, deadline=None)
    @given(fmt=st.sampled_from([SERIAL, CUDA_V1, CUDA_V2]),
           corpus=st.sampled_from(["cfiles", "dictionary", "demap",
                                   "highly_compressible"]),
           seed=st.integers(0, 2 ** 31 - 1),
           chunk=st.sampled_from([64, 100, 256]),
           n_chunks=st.integers(9, 24),
           run_chunks=st.integers(1, 4),
           flips=st.integers(0, 8))
    def test_salvage_keeps_chunks_independent(self, fmt, corpus, seed, chunk,
                                              n_chunks, run_chunks, flips):
        # Runs of a few chunks each: every run boundary and every mix of
        # good and bad chunks in one run must decode exactly as the
        # chunks' one-chunk strict decodes do.
        rng = np.random.default_rng(seed)
        data = generate(corpus, n_chunks * chunk - int(rng.integers(chunk)),
                        seed=seed)
        r = encode_chunked(data, fmt, chunk)
        payload = bytearray(r.payload)
        for bit in rng.integers(8 * len(payload), size=flips):
            payload[bit >> 3] ^= 0x80 >> (int(bit) & 7)
        sizes = np.asarray(r.chunk_sizes)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        with mock.patch.object(decoder, "RUN_BYTES", run_chunks * chunk):
            out, tokens, report = decode_chunked_with_stats(
                bytes(payload), fmt, sizes, chunk, len(data),
                errors="salvage", fill_byte=0xEE)
        lost = []
        for c in range(sizes.size):
            lo, hi = c * chunk, min((c + 1) * chunk, len(data))
            try:
                alone, count, _ = decode_chunked_with_stats(
                    bytes(payload[offsets[c]:offsets[c + 1]]), fmt,
                    sizes[c:c + 1], chunk, hi - lo)
            except CorruptChunkError:
                lost.append(c)
                alone, count = b"\xee" * (hi - lo), [0]
            assert out[lo:hi] == alone, c
            assert tokens[c] == count[0], c
        assert report.lost == lost
        assert report.recovered == sorted(set(range(sizes.size)) - set(lost))

    def test_report_describe(self):
        clean = SalvageReport(n_chunks=3, recovered=[0, 1, 2])
        assert clean.complete
        assert "all 3 chunks" in clean.describe()
        hurt = SalvageReport(n_chunks=3, recovered=[0, 2], lost=[1],
                             lost_ranges=[(512, 1024)])
        assert not hurt.complete
        assert hurt.lost_bytes == 512
        assert "[1]" in hurt.describe()
