"""Bit-stream I/O: scalar writer/reader, vectorized pack/gather."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.bitio import (
    BitReader,
    BitWriter,
    gather_fields,
    pack_tokens,
    ragged_arange,
    unpack_bits,
)


class TestBitWriter:
    def test_single_bits_msb_first(self):
        w = BitWriter()
        for bit in (1, 0, 1, 0, 1, 0, 1, 0):
            w.write_bit(bit)
        assert w.getvalue() == bytes([0b10101010])

    def test_partial_byte_zero_padded(self):
        w = BitWriter()
        w.write_bits(0b101, 3)
        assert w.getvalue() == bytes([0b10100000])

    def test_bit_length_tracks_writes(self):
        w = BitWriter()
        w.write_bits(0x1F, 5)
        w.write_bits(0x3, 9)
        assert len(w) == 14

    def test_write_bytes_aligned_fast_path(self):
        w = BitWriter()
        w.write_bytes(b"\xde\xad")
        assert w.getvalue() == b"\xde\xad"

    def test_write_bytes_unaligned(self):
        w = BitWriter()
        w.write_bit(1)
        w.write_bytes(b"\xff")
        # 1 followed by 8 ones = 0b11111111 1 zero-padded
        assert w.getvalue() == bytes([0xFF, 0x80])

    def test_align_pads_to_byte(self):
        w = BitWriter()
        w.write_bit(1)
        w.align()
        assert len(w) == 8
        assert w.getvalue() == bytes([0x80])

    def test_value_too_wide_rejected(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_bits(4, 2)

    def test_zero_width_zero_value_ok(self):
        w = BitWriter()
        w.write_bits(0, 0)
        assert len(w) == 0


class TestBitReader:
    def test_roundtrip_with_writer(self):
        w = BitWriter()
        w.write_bits(0b110, 3)
        w.write_bits(0xABC, 12)
        r = BitReader(w.getvalue())
        assert r.read_bits(3) == 0b110
        assert r.read_bits(12) == 0xABC

    def test_eof_raises(self):
        r = BitReader(b"\x00")
        r.read_bits(8)
        with pytest.raises(EOFError):
            r.read_bit()

    def test_seek(self):
        r = BitReader(bytes([0b01000000]))
        assert r.read_bit() == 0
        r.seek_bit(1)
        assert r.read_bit() == 1
        assert r.bit_position == 2

    def test_bits_remaining(self):
        r = BitReader(b"\x00\x00")
        r.read_bits(5)
        assert r.bits_remaining == 11

    def test_accepts_numpy_input(self):
        r = BitReader(np.array([0xF0], dtype=np.uint8))
        assert r.read_bits(4) == 0xF


class TestRaggedArange:
    def test_basic(self):
        out = ragged_arange(np.array([3, 1, 2]))
        assert out.tolist() == [0, 1, 2, 0, 0, 1]

    def test_zeros_allowed(self):
        assert ragged_arange(np.array([0, 2, 0])).tolist() == [0, 1]

    def test_empty(self):
        assert ragged_arange(np.array([], dtype=np.int64)).size == 0


class TestPackTokens:
    def test_matches_scalar_writer(self):
        values = np.array([1, 0b1010, 0x1FF])
        nbits = np.array([1, 4, 9])
        packed, total = pack_tokens(values, nbits)
        w = BitWriter()
        for v, nb in zip(values, nbits):
            w.write_bits(int(v), int(nb))
        assert packed == w.getvalue()
        assert total == 14

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 57),
                              st.integers(0, (1 << 57) - 1)),
                    min_size=0, max_size=200))
    def test_property_equivalent_to_scalar(self, items):
        items = [(nb, v & ((1 << nb) - 1) if nb else 0) for nb, v in items]
        values = np.array([v for _, v in items], dtype=np.int64)
        nbits = np.array([nb for nb, _ in items], dtype=np.int64)
        packed, total = pack_tokens(values, nbits)
        w = BitWriter()
        for nb, v in items:
            w.write_bits(v, nb)
        assert packed == w.getvalue()
        assert total == len(w)

    def test_zero_width_fields_and_57_bit_fields(self):
        values = np.array([0, (1 << 57) - 1, 0, 1, 0, 0x155], dtype=np.int64)
        nbits = np.array([0, 57, 0, 1, 0, 9], dtype=np.int64)
        w = BitWriter()
        for v, nb in zip(values, nbits):
            w.write_bits(int(v), int(nb))
        assert pack_tokens(values, nbits) == (w.getvalue(), 67)
        assert pack_tokens(np.zeros(5, np.int64),
                           np.zeros(5, np.int64)) == (b"", 0)

    def test_memory_is_per_field_not_per_bit(self):
        """40,000 17-bit fields (an lzss pair each) must peak under 256
        bytes of allocations per field; a per-bit packer holds several
        int64 arrays for every bit, about 570 bytes per field."""
        n = 40_000
        values = np.random.default_rng(17).integers(0, 1 << 17, n)
        nbits = np.full(n, 17, dtype=np.int64)
        tracemalloc.start()
        try:
            packed, total = pack_tokens(values, nbits)
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert total == 17 * n and len(packed) == (total + 7) // 8
        assert peak / n < 256

    def test_oversized_value_rejected(self):
        with pytest.raises(ValueError):
            pack_tokens(np.array([2]), np.array([1]))

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            pack_tokens(np.array([0]), np.array([-1]))

    def test_empty_stream(self):
        packed, total = pack_tokens(np.array([]), np.array([]))
        assert packed == b"" and total == 0


class TestGatherFields:
    def test_extracts_known_fields(self):
        bits = unpack_bits(bytes([0b10110100]))
        vals = gather_fields(bits, np.array([0, 3, 5]), 3)
        assert vals.tolist() == [0b101, 0b101, 0b100]

    def test_past_end_rejected(self):
        bits = unpack_bits(b"\xff")
        with pytest.raises(ValueError):
            gather_fields(bits, np.array([6]), 3)

    def test_zero_width(self):
        bits = unpack_bits(b"\xff")
        assert gather_fields(bits, np.array([0, 1]), 0).tolist() == [0, 0]

    @settings(max_examples=30, deadline=None)
    @given(st.binary(min_size=4, max_size=64), st.integers(1, 16))
    def test_property_matches_bitreader(self, data, width):
        bits = unpack_bits(data)
        max_start = bits.size - width
        starts = np.arange(0, max_start + 1, max(1, width // 2))
        vals = gather_fields(bits, starts, width)
        r = BitReader(data)
        for s, v in zip(starts, vals):
            r.seek_bit(int(s))
            assert r.read_bits(width) == int(v)


class TestUnpackBits:
    def test_truncation(self):
        assert unpack_bits(b"\xff", 3).tolist() == [1, 1, 1]

    def test_full(self):
        assert unpack_bits(bytes([0b10000001])).tolist() == [1, 0, 0, 0, 0, 0, 0, 1]
