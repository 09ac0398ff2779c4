"""The full BZIP2-style pipeline."""

import hashlib
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bzip2.pipeline import (
    _BLOCK_HEADER,
    _HEADER,
    Bzip2Result,
    compress,
    decompress,
)
from repro.datasets import generate

#: (corpus, seed) -> (len, SHA-256) of ``compress(generate(corpus, 48 KiB,
#: seed), block_size=16 KiB).blob``: three blocks each, so nine Huffman
#: tables of the paper's BZIP2 baseline (Tables I and II) are frozen.
BZIP2_GOLDENS = {
    ("cfiles", 1): (19598, "e160ae2d24a243eb8f67eea2ad3c9d0dcd8e7d1e568ccf6d"
                           "3ac1268625eaea64"),
    ("demap", 2): (10977, "180dddc42735c4706f3c96e9965d515c2da4a2d779394eb3"
                          "dfcb626c4f24fbd2"),
    ("highly_compressible", 3): (2199, "703381c3f65cad8709a07fbb7c78c49779"
                                       "913d3d80419da022b27562e608e0ae"),
}


class TestRoundTrip:
    @settings(max_examples=20, deadline=None)
    @given(st.binary(max_size=3000))
    def test_random(self, data):
        assert decompress(compress(data, block_size=1000).blob) == data

    def test_multi_block(self, text_data):
        r = compress(text_data, block_size=3000)
        assert len(r.block_stats) == -(-len(text_data) // 3000)
        assert decompress(r.blob) == text_data

    def test_default_block_size(self, text_data):
        assert decompress(compress(text_data).blob) == text_data

    def test_empty(self):
        r = compress(b"")
        assert decompress(r.blob) == b""
        assert r.block_stats == []

    def test_runny(self, runny_data):
        assert decompress(compress(runny_data).blob) == runny_data


class TestBehaviour:
    def test_compresses_text_well(self, text_data):
        # BZIP2 beats LZSS on text (Table II's consistent pattern)
        from repro.lzss.encoder import encode
        from repro.lzss.formats import SERIAL

        bz = compress(text_data)
        lz = encode(text_data, SERIAL)
        assert bz.ratio < lz.stats.ratio

    def test_random_data_incompressible(self, binary_data):
        r = compress(binary_data)
        assert 0.95 < r.ratio < 1.15

    def test_block_stats_populated(self, text_data):
        r = compress(text_data, block_size=4000)
        for st_ in r.block_stats:
            assert st_.orig_bytes > 0
            assert st_.rle1_bytes > 0
            assert st_.n_symbols > 0
            assert st_.mean_lcp >= 0.0

    def test_periodic_data_reports_big_lcp(self):
        r = compress(b"abcdefghij" * 800)
        assert r.block_stats[0].mean_lcp > 100

    def test_rle1_shrinks_runny_blocks(self):
        r = compress(b"a" * 5000 + b"b" * 5000)
        assert r.block_stats[0].rle1_bytes < 250


class TestGolden:
    @pytest.mark.parametrize("corpus,seed", list(BZIP2_GOLDENS))
    def test_blob_bytes_frozen(self, corpus, seed):
        data = generate(corpus, 48 << 10, seed=seed)
        blob = compress(data, block_size=16 << 10).blob
        assert (len(blob), hashlib.sha256(blob).hexdigest()) == \
            BZIP2_GOLDENS[corpus, seed]
        assert decompress(blob) == data


class TestCorruption:
    def test_bad_magic(self, text_data):
        blob = bytearray(compress(text_data[:500]).blob)
        blob[0] ^= 0xFF
        with pytest.raises(ValueError, match="magic"):
            decompress(bytes(blob))

    def test_truncated(self, text_data):
        blob = compress(text_data[:500]).blob
        with pytest.raises(Exception):
            decompress(blob[: len(blob) // 2])

    @pytest.mark.parametrize("length", [21, 22, 255])
    def test_code_length_above_cap_rejected_before_the_table(self, length):
        # the decode table has 2^(longest length) entries: 22 bits made
        # one 4 KiB block peak at 64.6 MiB before it raised
        blob = bytearray(compress(generate("cfiles", 4096, seed=1)).blob)
        table = _HEADER.size + _BLOCK_HEADER.size
        blob[table + next(k for k in range(258) if blob[table + k])] = length
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="code length above 20"):
                decompress(bytes(blob))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_ratio_property(self):
        assert Bzip2Result(blob=b"12345", original_size=0,
                           block_stats=[]).ratio == 1.0
