"""Chaos suite: container corruption vs strict and salvage decode.

Every corruption here is seeded (``REPRO_CHAOS_SEED`` selects the
pattern; the CI chaos lane runs three fixed seeds) so a failure pins
the exact damage for local replay.  The headline property: corrupt *k*
of *n* chunks of a v2 container and salvage decode returns the other
``n - k`` byte-identical, reports exactly the ``k`` lost indices, and
strict decode raises :class:`CorruptChunkError` naming the first bad
chunk.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.container import (
    CONTAINER_VERSION_V1,
    HEADER_SIZE,
    pack_container,
    unpack_container,
    verify_chunks,
)
from repro.core import CompressionParams, gpu_compress, gpu_decompress
from repro.engine import ParallelEngine
from repro.errors import (
    ContainerError,
    CorruptChunkError,
    CorruptPayloadError,
    ReproError,
    TruncatedContainerError,
)
from repro.lzss.decoder import decode_chunked_with_stats
from repro.testing import (
    chaos_seed,
    corrupt_chunk_table,
    corrupt_chunks,
    flip_bits,
    truncate,
)

SEED = chaos_seed()
CHUNK = 4096


@pytest.fixture(scope="module")
def payload() -> bytes:
    rng = np.random.default_rng(SEED)
    words = [b"culzss ", b"chunk ", b"stream ", b"robust ", b"salvage "]
    return b"".join(words[i] for i in rng.integers(0, len(words), 5000))


@pytest.fixture(scope="module")
def blob(payload) -> bytes:
    return gpu_compress(payload, CompressionParams(version=2)).data


@pytest.fixture(scope="module")
def v3_blob(payload) -> bytes:
    return gpu_compress(payload, codec="auto").data


@pytest.fixture(scope="module")
def n_chunks(blob) -> int:
    return int(unpack_container(blob).chunk_sizes.size)


def _column_offset(blob: bytes, c: int) -> int:
    n = int(unpack_container(blob, strict=False).chunk_sizes.size)
    # v3 layout: header, <u4 size table, <u4 CRC table, u8 codecs.
    return HEADER_SIZE + 4 * n + 4 * n + c


class TestSalvageRoundTrip:
    def test_k_of_n_chunks_corrupted(self, payload, blob, n_chunks):
        # The acceptance property, for every k from one chunk to all.
        rng = np.random.default_rng(SEED)
        for k in range(1, n_chunks + 1):
            lost = sorted(rng.choice(n_chunks, size=k, replace=False)
                          .tolist())
            bad = corrupt_chunks(blob, lost, seed=int(rng.integers(1 << 30)))

            with pytest.raises(CorruptChunkError) as err:
                gpu_decompress(bad)
            assert err.value.chunk_index == lost[0]

            res = gpu_decompress(bad, errors="salvage")
            report = res.salvage
            assert report.lost == lost
            assert report.recovered == [c for c in range(n_chunks)
                                        if c not in lost]
            for c in range(n_chunks):
                lo, hi = c * CHUNK, min((c + 1) * CHUNK, len(payload))
                if c in lost:
                    assert res.data[lo:hi] == b"\x00" * (hi - lo)
                else:
                    assert res.data[lo:hi] == payload[lo:hi]
            assert report.lost_ranges == [
                (c * CHUNK, min((c + 1) * CHUNK, len(payload)))
                for c in lost]

    def test_parallel_salvage_matches_serial(self, blob, n_chunks):
        bad = corrupt_chunks(blob, [1, n_chunks - 1], seed=SEED)
        serial = gpu_decompress(bad, errors="salvage")
        sharded = gpu_decompress(bad, errors="salvage", workers=4)
        assert sharded.data == serial.data
        assert sharded.salvage.lost == serial.salvage.lost == [1, n_chunks - 1]
        assert sorted(sharded.salvage.recovered) == serial.salvage.recovered

    def test_fill_byte(self, payload, blob):
        bad = corrupt_chunks(blob, [0], seed=SEED)
        res = gpu_decompress(bad, errors="salvage", fill_byte=0xAA)
        assert res.data[:CHUNK] == b"\xaa" * CHUNK
        assert res.data[CHUNK:] == payload[CHUNK:]
        assert res.salvage.fill_byte == 0xAA
        assert "0xaa" in res.salvage.describe()

    def test_clean_blob_salvages_completely(self, payload, blob, n_chunks):
        res = gpu_decompress(blob, errors="salvage")
        assert res.data == payload
        assert res.salvage.complete
        assert res.salvage.recovered == list(range(n_chunks))
        assert res.salvage.lost_bytes == 0


class TestStrictDetection:
    def test_single_bit_flip_never_silent(self, blob):
        # v2's layered checksums: any single flipped bit — header,
        # size table, CRC table, or payload — must raise.
        rng = np.random.default_rng(SEED)
        for _ in range(64):
            pos = int(rng.integers(len(blob)))
            bad = flip_bits(blob, 1, seed=int(rng.integers(1 << 30)),
                            lo=pos, hi=pos + 1)
            with pytest.raises(ReproError):
                unpack_container(bad)

    def test_chunk_error_carries_location(self, blob):
        bad = corrupt_chunks(blob, [3], seed=SEED)
        with pytest.raises(CorruptChunkError) as err:
            unpack_container(bad)
        exc = err.value
        assert exc.chunk_index == 3
        assert exc.offset == int(
            unpack_container(blob).chunk_ranges()[3, 0])
        assert "chunk 3" in str(exc)

    def test_chunk_table_corruption_detected(self, blob):
        for i in range(8):
            bad = corrupt_chunk_table(blob, seed=SEED + i)
            with pytest.raises(ContainerError):
                unpack_container(bad)

    def test_verify_chunks_mask(self, blob, n_chunks):
        bad = corrupt_chunks(blob, [2, 4], seed=SEED)
        mask = verify_chunks(unpack_container(bad, strict=False))
        assert mask.tolist() == [c not in (2, 4) for c in range(n_chunks)]


class TestTruncation:
    def test_short_blob_names_sizes(self):
        with pytest.raises(TruncatedContainerError) as err:
            unpack_container(b"CLZS\x02")
        assert err.value.expected == HEADER_SIZE
        assert err.value.actual == 5
        assert "expected >= 32 bytes, got 5" in str(err.value)

    def test_truncated_table(self, blob):
        with pytest.raises(TruncatedContainerError):
            unpack_container(blob[:HEADER_SIZE + 3])

    def test_truncated_payload_strict(self, blob):
        with pytest.raises(TruncatedContainerError):
            unpack_container(truncate(blob, 10))

    def test_truncated_payload_salvage_recovers_prefix(self, payload, blob,
                                                       n_chunks):
        # Cut the last chunk in half: everything before it survives.
        last_size = int(unpack_container(blob).chunk_sizes[-1])
        res = gpu_decompress(truncate(blob, last_size // 2 + 1),
                             errors="salvage")
        assert res.salvage.lost == [n_chunks - 1]
        assert res.data[:(n_chunks - 1) * CHUNK] == \
            payload[:(n_chunks - 1) * CHUNK]


class TestV1Compat:
    def test_v1_payload_corruption_is_whole_archive(self, blob):
        # v1 has only the whole-payload CRC: same damage, coarser error.
        r_blob = pack_container(
            gpu_compress(b"v1 compat " * 2000,
                         CompressionParams(version=2)).result,
            version=CONTAINER_VERSION_V1)
        info = unpack_container(r_blob)
        assert info.version == CONTAINER_VERSION_V1
        assert info.chunk_crcs is None
        bad = corrupt_chunks(r_blob, [0], seed=SEED)
        with pytest.raises(CorruptPayloadError, match="checksum"):
            unpack_container(bad)

    def test_v1_truncation_salvage(self):
        data = b"v1 salvage " * 2000
        r_blob = pack_container(
            gpu_compress(data, CompressionParams(version=2)).result,
            version=CONTAINER_VERSION_V1)
        sizes = unpack_container(r_blob).chunk_sizes
        res = gpu_decompress(truncate(r_blob, int(sizes[-1]) // 2 + 1),
                             errors="salvage")
        assert res.salvage.lost == [len(sizes) - 1]
        n_ok = (len(sizes) - 1) * CHUNK
        assert res.data[:n_ok] == data[:n_ok]


class TestCodecColumn:
    """Chaos for the container v3 codec column.

    The column has no checksum of its own, but every value it can
    legally take is registry-checked: a byte rotted to an unknown id
    is corruption (strict raises, salvage fills and reports), and a
    byte rotted to a *different known* id sends the payload to the
    wrong decoder, which must fail its own framing checks rather than
    fabricate output.
    """

    def test_blob_is_v3_and_round_trips(self, payload, v3_blob):
        info = unpack_container(v3_blob)
        assert info.version == 3
        assert info.chunk_codecs is not None
        assert gpu_decompress(v3_blob).data == payload

    def test_unknown_codec_id_strict(self, v3_blob):
        rng = np.random.default_rng(SEED)
        k = int(rng.integers(unpack_container(v3_blob).chunk_sizes.size))
        bad = bytearray(v3_blob)
        bad[_column_offset(v3_blob, k)] = 0xFF
        with pytest.raises(CorruptChunkError) as err:
            gpu_decompress(bytes(bad))
        assert err.value.chunk_index == k
        assert "codec id 255" in str(err.value)

    def test_unknown_codec_id_salvage(self, payload, v3_blob):
        rng = np.random.default_rng(SEED)
        n = int(unpack_container(v3_blob).chunk_sizes.size)
        k = int(rng.integers(n))
        bad = bytearray(v3_blob)
        bad[_column_offset(v3_blob, k)] = 0xFF
        res = gpu_decompress(bytes(bad), errors="salvage")
        report = res.salvage
        assert report.unknown_codec == [k]
        assert report.lost == [k]
        assert report.recovered == [c for c in range(n) if c != k]
        lo, hi = k * CHUNK, min((k + 1) * CHUNK, len(payload))
        assert res.data[lo:hi] == b"\x00" * (hi - lo)
        assert res.data[:lo] == payload[:lo]
        assert res.data[hi:] == payload[hi:]
        assert f"unknown codec id on chunks [{k}]" in report.describe()

    def test_wrong_known_codec_id_never_silent(self, payload, v3_blob):
        # Rot a column byte to the *store* id: the compressed slice no
        # longer matches the chunk's raw size, so strict decode must
        # raise rather than hand back the compressed bytes as data.
        info = unpack_container(v3_blob)
        from repro.codecs import STORE_CODEC_ID
        candidates = [c for c in range(int(info.chunk_sizes.size))
                      if int(info.chunk_codecs[c]) != STORE_CODEC_ID
                      and int(info.chunk_sizes[c]) !=
                      min(CHUNK, len(payload) - c * CHUNK)]
        assert candidates, "corpus produced no compressed chunk"
        bad = bytearray(v3_blob)
        bad[_column_offset(v3_blob, candidates[0])] = STORE_CODEC_ID
        with pytest.raises(ReproError):
            gpu_decompress(bytes(bad))

    def test_codec_column_rot_with_payload_rot_salvages(self, payload,
                                                        v3_blob):
        # Combined damage: one chunk's column byte and another chunk's
        # payload both rotted — salvage reports each for its own reason.
        n = int(unpack_container(v3_blob).chunk_sizes.size)
        assert n >= 4
        bad = corrupt_chunks(v3_blob, [2], seed=SEED)
        bad = bytearray(bad)
        bad[_column_offset(v3_blob, 0)] = 0xEE
        res = gpu_decompress(bytes(bad), errors="salvage")
        assert res.salvage.unknown_codec == [0]
        assert sorted(res.salvage.lost) == [0, 2]
        lo = 3 * CHUNK
        assert res.data[lo:] == payload[lo:]


class TestErrorPolicies:
    """Strict and salvage are two policies of one decode loop, pinned to
    each other here: on v2 (no codec column) and v3 auto (mixed column)
    containers, serially and through a 2-worker engine."""

    @pytest.mark.parametrize("kind", ["v2", "v3"])
    def test_salvage_and_strict_agree(self, payload, blob, v3_blob, kind):
        clean = blob if kind == "v2" else v3_blob
        n = int(unpack_container(clean).chunk_sizes.size)
        rng = np.random.default_rng([SEED, n])
        with ParallelEngine(workers=2, min_parallel_bytes=0) as engine:
            for _ in range(3):
                bad = corrupt_chunks(clean, [int(rng.integers(n))],
                                     seed=int(rng.integers(1 << 30)))
                if kind == "v3":
                    bad = bytearray(bad)
                    bad[_column_offset(clean, int(rng.integers(n)))] = 0xFF
                    bad = bytes(bad)
                info = unpack_container(bad, strict=False)
                args = (info.payload, info.format, info.chunk_sizes,
                        info.chunk_size, info.original_size)
                kwargs = dict(chunk_codecs=info.chunk_codecs,
                              chunk_crcs=info.chunk_crcs)

                out, _, report = decode_chunked_with_stats(
                    *args, errors="salvage", **kwargs)
                sharded, _, sharded_report = decode_chunked_with_stats(
                    *args, errors="salvage", engine=engine, **kwargs)
                assert sharded == out
                assert sharded_report == report
                assert report.lost
                for c in report.recovered:
                    lo, hi = c * CHUNK, min((c + 1) * CHUNK, len(payload))
                    assert out[lo:hi] == payload[lo:hi]

                for decode in (decode_chunked_with_stats,
                               partial(decode_chunked_with_stats,
                                       engine=engine)):
                    with pytest.raises(CorruptChunkError) as err:
                        decode(*args, **kwargs)
                    assert err.value.chunk_index == report.lost[0]


def test_invalid_errors_mode(blob):
    with pytest.raises(ValueError, match="strict"):
        gpu_decompress(blob, errors="ignore")
