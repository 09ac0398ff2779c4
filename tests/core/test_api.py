"""The in-memory gpu_compress/gpu_decompress API (Figure 2) and its
profile-free functional half."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.container import unpack_container
from repro.core import GpuDecompressor, V1Compressor, V2Compressor, api
from repro.core.api import (
    compress_container,
    decompress_container,
    gpu_compress,
    gpu_decompress,
)
from repro.core.params import CompressionParams
from repro.datasets import REGISTRY, generate
from repro.engine import ParallelEngine, get_engine
from repro.errors import CorruptChunkError, TruncatedContainerError


class TestRoundTrip:
    @settings(max_examples=10, deadline=None)
    @given(st.binary(min_size=1, max_size=3000))
    def test_property(self, data):
        for version in (1, 2):
            buf = gpu_compress(data, CompressionParams(version=version))
            assert gpu_decompress(buf.data).data == data

    def test_all_buffer_types_accepted(self, text_data):
        expected = gpu_compress(text_data).data
        assert gpu_compress(bytearray(text_data)).data == expected
        assert gpu_compress(memoryview(text_data)).data == expected
        arr = np.frombuffer(text_data, dtype=np.uint8)
        assert gpu_compress(arr).data == expected

    def test_empty_buffer(self):
        buf = gpu_compress(b"")
        assert gpu_decompress(buf.data).data == b""
        assert buf.modeled_seconds == 0.0


class TestVersionSelection:
    def test_version_changes_format(self, text_data):
        v1 = gpu_compress(text_data, CompressionParams(version=1))
        v2 = gpu_compress(text_data, CompressionParams(version=2))
        assert v1.result.format.name == "cuda_v1"
        assert v2.result.format.name == "cuda_v2"
        assert v1.data != v2.data

    def test_both_decode_identically(self, text_data):
        for version in (1, 2):
            buf = gpu_compress(text_data, CompressionParams(version=version))
            assert gpu_decompress(buf.data).data == text_data

    def test_default_is_v2(self, text_data):
        assert gpu_compress(text_data).result.format.name == "cuda_v2"


class TestMetadata:
    def test_ratio_counts_container(self, text_data):
        buf = gpu_compress(text_data)
        assert buf.ratio == pytest.approx(len(buf.data) / len(text_data))
        assert buf.compressed_size == len(buf.data)

    def test_profiles_attached(self, text_data):
        buf = gpu_compress(text_data)
        assert buf.modeled_seconds > 0
        dec = gpu_decompress(buf.data)
        assert dec.modeled_seconds > 0

    def test_sweep_params_rejected_for_containers(self, text_data):
        with pytest.raises(ValueError, match="window"):
            gpu_compress(text_data, CompressionParams(version=2, window=64))

    def test_corrupt_blob_rejected(self, text_data):
        blob = bytearray(gpu_compress(text_data).data)
        blob[-1] ^= 0xFF
        with pytest.raises(ValueError):
            gpu_decompress(bytes(blob))


class TestGatewayScenario:
    def test_in_equals_out_through_gateway_pair(self, text_data,
                                                 binary_data, runny_data):
        """§III: 'the data looks the same going in as coming out'."""
        for payload in (text_data, binary_data, runny_data):
            wire = gpu_compress(payload).data
            assert gpu_decompress(wire).data == payload


class TestOneShardRunner:
    """Every call runs on an engine; the one-thread engine is the serial
    path, and decode goes through ``repro.core.api``'s decoder attribute
    (the name a tracer wraps) looked up per call."""

    @pytest.fixture(scope="class")
    def mib(self):
        data = generate("highly_compressible", 1 << 20, seed=4)
        return data, gpu_compress(data).data

    def test_decompress_calls_the_api_decoder_once_per_call(
            self, mib, monkeypatch):
        data, blob = mib
        calls = []
        real = api.decode_chunked_with_stats

        def counting(*args, **kwargs):
            calls.append(kwargs["engine"].workers)
            return real(*args, **kwargs)

        monkeypatch.setattr(api, "decode_chunked_with_stats", counting)
        assert gpu_decompress(blob).data == data
        assert gpu_decompress(blob, workers=2).data == data
        assert calls == [1, 2]

    def test_one_thread_engine_is_the_serial_path(self, mib, monkeypatch):
        data, blob = mib
        calls = []
        for name in ("encode", "map"):
            def recording(self, *args, _real=getattr(ParallelEngine, name),
                          _name=name, **kwargs):
                calls.append((_name, self.workers))
                return _real(self, *args, **kwargs)

            monkeypatch.setattr(ParallelEngine, name, recording)
        assert gpu_compress(data).data == blob
        assert gpu_decompress(blob).data == data
        assert calls == [("encode", 1), ("map", 1)]
        assert get_engine(1)._pool is None


class TestFunctionalPair:
    """``compress_container``/``decompress_container`` hand back exactly
    ``gpu_compress(...).data`` and a strict ``gpu_decompress(...).data``,
    and fail exactly as strict ``gpu_decompress`` does."""

    @staticmethod
    def _inputs():
        sizes = dict(zip(sorted(REGISTRY), (4096, 6144, 9216, 12288, 16384)))
        rng = np.random.default_rng(33)
        return ([generate(kind, size, seed=3) for kind, size in sizes.items()]
                + [rng.integers(0, 256, 8192, dtype=np.uint8).tobytes(),
                   b"", b"x"])

    @pytest.mark.parametrize("codec", ["lzss", "auto"])
    @pytest.mark.parametrize("version", [1, 2])
    def test_same_container_and_bytes(self, version, codec):
        params = CompressionParams(version=version)
        for data in self._inputs():
            blob = gpu_compress(data, params, codec=codec).data
            assert compress_container(data, params, codec=codec) == blob
            assert decompress_container(blob) == data
            assert gpu_decompress(blob).data == data

    @pytest.mark.parametrize("version", [1, 2])
    def test_two_workers(self, version):
        data = generate("cfiles", 256 << 10, seed=5)
        params = CompressionParams(version=version)
        blob = gpu_compress(data, params, workers=2).data
        assert compress_container(data, params, workers=2) == blob
        assert decompress_container(blob, workers=2) == data

    @staticmethod
    def _failure(decode, blob):
        with pytest.raises(ValueError) as info:
            decode(blob)
        exc = info.value
        return type(exc), str(exc), getattr(exc, "chunk_index", None)

    @pytest.mark.parametrize("codec", ["lzss", "auto"])
    def test_damage_raises_what_strict_gpu_decompress_raises(self, codec):
        blob = compress_container(generate("cfiles", 16384, seed=3),
                                  codec=codec)
        base = unpack_container(blob).payload_offset
        mid = base + (len(blob) - base) // 2
        flipped = blob[:mid] + bytes([blob[mid] ^ 0xFF]) + blob[mid + 1:]
        for damaged, kind in ((flipped, CorruptChunkError),
                              (blob[:mid], TruncatedContainerError)):
            failure = self._failure(decompress_container, damaged)
            assert failure == self._failure(gpu_decompress, damaged)
            assert failure[0] is kind

    def test_no_profile_work(self, monkeypatch):
        """The functional pair never reaches a cost model."""
        def refuse(*args, **kwargs):
            raise AssertionError("cost model ran")

        for owner in (V1Compressor, V2Compressor, GpuDecompressor):
            monkeypatch.setattr(owner, "profile", refuse)
        monkeypatch.setattr(api, "sample_match_statistics", refuse)
        for version in (1, 2):
            params = CompressionParams(version=version)
            data = generate("dictionary", 8192, seed=3)
            assert decompress_container(compress_container(data, params)) == data
