"""Serial and Pthread CPU drivers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import PthreadLzss, SerialLzss


class TestSerial:
    @settings(max_examples=15, deadline=None)
    @given(st.binary(max_size=2000))
    def test_roundtrip(self, data):
        s = SerialLzss()
        r = s.compress(data)
        assert s.decompress(r.payload, len(data)) == data

    def test_container_roundtrip(self, text_data):
        s = SerialLzss()
        blob = s.compress_container(text_data)
        assert s.decompress_container(blob) == text_data

    def test_container_rejects_gpu_blob(self, text_data):
        from repro.core import gpu_compress

        blob = gpu_compress(text_data).data
        with pytest.raises(ValueError):
            SerialLzss().decompress_container(blob)


class TestPthread:
    def test_roundtrip_result_object(self, text_data):
        p = PthreadLzss(4)
        r = p.compress(text_data)
        assert p.decompress(r) == text_data

    def test_chunk_count_matches_threads(self, text_data):
        r = PthreadLzss(8).compress(text_data)
        assert r.chunk_sizes.size == 8

    def test_fewer_chunks_for_tiny_input(self):
        r = PthreadLzss(8).compress(b"tiny")
        assert r.chunk_sizes.size >= 1
        assert PthreadLzss(8).decompress(r) == b"tiny"

    def test_single_thread_equals_serial_stream(self, text_data):
        serial = SerialLzss().compress(text_data)
        threaded = PthreadLzss(1).compress(text_data)
        assert threaded.payload == serial.payload

    def test_merged_stats(self, text_data):
        r = PthreadLzss(4).compress(text_data)
        assert r.stats.input_size == len(text_data)
        assert r.stats.output_size == len(r.payload)

    def test_thread_count_validated(self):
        with pytest.raises(ValueError):
            PthreadLzss(0)

    def test_empty_input(self):
        p = PthreadLzss(4)
        r = p.compress(b"")
        assert r.payload == b""
        assert p.decompress(r) == b""

    def test_chunking_barely_hurts_ratio(self, text_data):
        # §III.A: chunked threading must not change the ratio much —
        # chunks are huge relative to the 4096-byte window.
        data = text_data * 8  # 160 KB → 40 KB per thread chunk
        serial = SerialLzss().compress(data)
        threaded = PthreadLzss(4).compress(data)
        assert threaded.stats.ratio <= serial.stats.ratio + 0.02
