"""The codec registry: names, wire ids, and their invariants."""

from __future__ import annotations

import numpy as np
import pytest

import repro.codecs  # noqa: F401 - registers the built-in codecs
from repro.codecs import (
    LZ4S_CODEC_ID,
    LZSS_CODEC_ID,
    LZSS_HUFFMAN_CODEC_ID,
    STORE_CODEC_ID,
    codec_names,
    get_codec,
    known_codec_ids,
    register_codec,
)
from repro.codecs.base import Codec


def test_wire_ids_are_frozen():
    """Ids are wire format (container v3, NEG frames) — never renumber."""
    assert STORE_CODEC_ID == 1
    assert LZSS_CODEC_ID == 2
    assert LZ4S_CODEC_ID == 3
    assert LZSS_HUFFMAN_CODEC_ID == 4
    assert known_codec_ids() == frozenset({1, 2, 3, 4})


def test_zero_is_not_a_codec_id():
    """A zeroed codec column must read as corruption, not as a codec."""
    assert 0 not in known_codec_ids()
    with pytest.raises(KeyError):
        get_codec(0)


def test_names_sorted_by_wire_id():
    assert codec_names() == ("store", "lzss", "lz4s", "lzss-huffman")


@pytest.mark.parametrize("name,cid", [("store", 1), ("lzss", 2),
                                      ("lz4s", 3), ("lzss-huffman", 4)])
def test_lookup_by_name_and_id_agree(name, cid):
    by_name = get_codec(name)
    assert by_name is get_codec(cid)
    assert by_name is get_codec(np.uint8(cid))  # container column dtype
    assert by_name.name == name
    assert by_name.codec_id == cid


def test_unknown_lookup_names_the_registered_codecs():
    with pytest.raises(KeyError, match="lzss"):
        get_codec("snappy")
    with pytest.raises(KeyError):
        get_codec(255)


def test_reregistering_same_codec_class_is_idempotent():
    """Module re-imports must not blow up the process-global registry."""
    before = get_codec("lzss")
    assert register_codec(type(before)()) is not before  # new instance ok
    assert get_codec("lzss").codec_id == LZSS_CODEC_ID
    assert codec_names() == ("store", "lzss", "lz4s", "lzss-huffman")


def test_conflicting_registration_rejected():
    class Imposter(Codec):
        name = "lzss"          # taken by a different class
        codec_id = 99

        def encode_run(self, data, fmt, chunk_size):  # pragma: no cover
            return b"", np.zeros(0, dtype=np.int64)

        def decode_chunk(self, payload, fmt, output_size, *,
                         chunk_index=0):  # pragma: no cover
            return np.zeros(0, dtype=np.uint8)

    with pytest.raises(ValueError, match="already registered"):
        register_codec(Imposter())

    Imposter.name, Imposter.codec_id = "imposter", LZ4S_CODEC_ID
    with pytest.raises(ValueError, match="already registered"):
        register_codec(Imposter())


@pytest.mark.parametrize("bad_id", [0, -1, 256])
def test_out_of_range_wire_id_rejected(bad_id):
    class OutOfRange(Codec):
        name = "out-of-range"
        codec_id = bad_id

        def encode_run(self, data, fmt, chunk_size):  # pragma: no cover
            return b"", np.zeros(0, dtype=np.int64)

        def decode_chunk(self, payload, fmt, output_size, *,
                         chunk_index=0):  # pragma: no cover
            return np.zeros(0, dtype=np.uint8)

    with pytest.raises(ValueError, match="codec_id"):
        register_codec(OutOfRange())
