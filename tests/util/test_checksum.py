"""Checksums: from-scratch CRC-32 and its fast path."""

import binascii

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.checksum import crc32, crc32_reference


class TestCrc32:
    def test_known_vector(self):
        # The classic "123456789" check value.
        assert crc32_reference(b"123456789") == 0xCBF43926

    def test_empty(self):
        assert crc32_reference(b"") == 0
        assert crc32(b"") == 0

    @settings(max_examples=50, deadline=None)
    @given(st.binary(max_size=512))
    def test_reference_matches_fast_path(self, data):
        assert crc32_reference(data) == crc32(data)

    @settings(max_examples=20, deadline=None)
    @given(st.binary(max_size=128), st.binary(max_size=128))
    def test_incremental(self, a, b):
        assert crc32_reference(b, crc32_reference(a)) == crc32_reference(a + b)

    def test_numpy_input(self):
        arr = np.frombuffer(b"hello world", dtype=np.uint8)
        assert crc32(arr) == binascii.crc32(b"hello world")

    def test_detects_single_bit_flip(self):
        data = bytearray(b"the quick brown fox")
        before = crc32(bytes(data))
        data[7] ^= 0x10
        assert crc32(bytes(data)) != before


@pytest.mark.parametrize("func", [crc32])
def test_checksum_accepts_all_buffer_types(func):
    raw = b"buffer type zoo"
    expected = func(raw)
    assert func(bytearray(raw)) == expected
    assert func(memoryview(raw)) == expected
    assert func(np.frombuffer(raw, dtype=np.uint8)) == expected
