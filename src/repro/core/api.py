"""The in-memory compression API — the paper's Figure 2 interface.

``Gpu_compress()`` "takes the given buffer pointer and copies it to the
GPU, compresses it into the given memory region, and returns the
calling process a pointer to the compressed data and its length.  The
last parameters for the functions are compression parameters" — here a
:class:`repro.core.params.CompressionParams` whose most important field
is the CULZSS version selector (§V: pick V1 for highly-compressible
data, V2 otherwise).

The returned buffer is a self-describing container (header + chunk
table + payload), so ``gpu_decompress`` needs nothing but the blob —
the shape a network gateway pair needs ("the data looks the same going
in as coming out", §III).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.obs import log as obslog
from repro.codecs import codec_names
from repro.codecs.dispatch import encode_chunked_auto
from repro.container import pack_container, unpack_container
from repro.core.decompress import GpuDecompressor
from repro.core.library import get_library
from repro.core.params import CompressionParams
from repro.core.v1 import V1Compressor
from repro.core.v2 import V2Compressor
from repro.engine import get_engine
from repro.gpusim.profiler import GpuProfile
from repro.lzss.decoder import SalvageReport, decode_chunked_with_stats
from repro.lzss.encoder import EncodeResult
from repro.lzss.formats import CUDA_V1, CUDA_V2
from repro.model.calibration import Calibration, default_calibration
from repro.model.cpu import sample_match_statistics
from repro.util.buffers import as_bytes
from repro.util.validation import require

__all__ = ["CompressedBuffer", "DecompressResult", "gpu_compress", "gpu_decompress"]


@dataclass
class CompressedBuffer:
    """What ``gpu_compress`` hands back.

    ``data`` is the container blob (the "pointer to the compressed data
    and its length"); ``result`` the raw encode artifacts; ``profile``
    the modeled GTX-480 execution timeline of the run.
    """

    data: bytes
    result: EncodeResult
    profile: GpuProfile

    @property
    def compressed_size(self) -> int:
        return len(self.data)

    @property
    def ratio(self) -> float:
        """Container bytes / input bytes (smaller is better)."""
        if self.result.input_size == 0:
            return 1.0
        return len(self.data) / self.result.input_size

    @property
    def modeled_seconds(self) -> float:
        return self.profile.total_seconds


@dataclass
class DecompressResult:
    """What ``gpu_decompress`` hands back.

    ``salvage`` is populated only by ``errors="salvage"`` decodes: a
    :class:`repro.lzss.decoder.SalvageReport` naming the chunks that
    were recovered and lost.  Strict decodes leave it ``None``.
    """

    data: bytes
    profile: GpuProfile
    salvage: SalvageReport | None = None

    @property
    def modeled_seconds(self) -> float:
        return self.profile.total_seconds


def _engine_for(workers):
    """The process-wide engine for ``workers`` threads (persistent
    across calls); ``workers in (None, 0, 1)`` is the one-thread engine,
    the serial path."""
    return get_engine(max(workers or 1, 1))


def _compressor_for(params: CompressionParams, engine=None):
    return (V1Compressor(params, engine=engine) if params.version == 1
            else V2Compressor(params, engine=engine))


def _model_profile(compressor, result: EncodeResult, data,
                   cal: Calibration) -> GpuProfile:
    """The modeled GTX-480 profile of one ``compressor.compress(data)``.

    V1's model also reads the input's sampled search statistics (κ,
    p_cap); V2's reads only the encode result.  Timed as the ``model``
    stage.
    """
    with obs.stage("model", bytes=result.input_size):
        if compressor.params.version == 1:
            return compressor.profile(result, cal,
                                      sample_match_statistics(data))
        return compressor.profile(result, cal)


def gpu_compress(buffer, params: CompressionParams | None = None, *,
                 workers: int | None = None,
                 codec: str = "lzss") -> CompressedBuffer:
    """In-memory compression on the (simulated) GPU.

    Parameters mirror the paper's ``Gpu_compress(in, out, params)``:
    the buffer may be ``bytes``/``bytearray``/``memoryview``/uint8
    array; ``params`` selects the CULZSS version and tuning knobs.

    ``workers`` shards the encode pipeline across that many cores (a
    shared :class:`repro.engine.ParallelEngine`); the container that
    comes back is byte-identical to the serial path, whatever the worker
    count.

    ``codec`` selects the per-chunk coder: ``"lzss"`` (default) is the
    paper's pipeline with the classic v2 container; any other
    registered codec name — or ``"auto"``, the content-aware per-chunk
    dispatcher — goes through :mod:`repro.codecs` and writes a v3
    container carrying the per-chunk codec column.  The dispatcher
    stores a chunk raw when the incompressibility probe finds it
    near-random: at least 7.9 bits/byte of byte entropy
    (:data:`repro.lzss.matcher.PROBE_BYTE_ENTROPY_BITS`).
    """
    params = params or get_library().default_params()
    require(params.is_standard_format,
            "containers require the standard 128-byte window; "
            "use V1Compressor/V2Compressor directly for tuning sweeps")
    data = as_bytes(buffer)
    if codec != "lzss":
        require(codec == "auto" or codec in codec_names(),
                f"unknown codec {codec!r} (registered: "
                f"{', '.join(codec_names())}, plus 'auto')")
        with obs.stage("api.compress", size=len(data),
                       version=params.version, codec=codec):
            result = _engine_for(workers).encode(
                encode_chunked_auto, data, params.token_format,
                params.chunk_size, codec=codec)
        # Mixed-codec pipelines are outside the paper's single-kernel
        # cost model; the profile is deliberately empty.
        return CompressedBuffer(data=pack_container(result), result=result,
                                profile=GpuProfile())
    compressor = _compressor_for(params, _engine_for(workers))
    with obs.stage("api.compress", size=len(data), version=params.version):
        result = compressor.compress(data)
    if result.input_size == 0:
        return CompressedBuffer(data=pack_container(result), result=result,
                                profile=GpuProfile())
    profile = _model_profile(compressor, result, data, default_calibration())
    return CompressedBuffer(data=pack_container(result), result=result,
                            profile=profile)


def gpu_decompress(blob, params: CompressionParams | None = None, *,
                   workers: int | None = None, errors: str = "strict",
                   fill_byte: int = 0) -> DecompressResult:
    """In-memory decompression of a ``gpu_compress`` container.

    ``workers`` mirrors :func:`gpu_compress`: chunk streams are
    independent, so decode shards across cores with identical output.

    ``errors`` selects the corruption policy.  ``"strict"`` (the
    default) raises the first :class:`repro.errors.ContainerError` a
    damaged blob produces.  ``"salvage"`` decodes every chunk it can —
    verifying per-chunk CRCs on version-2 containers before touching
    the token stream — fills the byte ranges of unrecoverable chunks
    with ``fill_byte``, and reports the damage in ``result.salvage``.
    Salvage still needs an intact header and chunk table; damage there
    raises regardless.
    """
    require(errors in ("strict", "salvage"),
            f"errors must be 'strict' or 'salvage', not {errors!r}")
    info = unpack_container(as_bytes(blob), strict=errors == "strict")
    require(info.is_chunked, "CULZSS containers are always chunked")
    with obs.stage("api.decompress", size=info.original_size, errors=errors):
        # Strict unpack has already verified the per-chunk CRCs.  The
        # decoder is looked up in this module per call, so a wrapper
        # installed on ``repro.core.api.decode_chunked_with_stats``
        # sees every shard.
        out, per_chunk_tokens, report = _engine_for(workers).decode(
            decode_chunked_with_stats,
            info.payload, info.format, info.chunk_sizes, info.chunk_size,
            info.original_size, chunk_codecs=info.chunk_codecs,
            chunk_crcs=info.chunk_crcs if errors == "salvage" else None,
            errors=errors, fill_byte=fill_byte)
        if report is not None:
            obslog.event("container", "salvage",
                         recovered=len(report.recovered),
                         lost=len(report.lost),
                         n_chunks=report.n_chunks)
    if (info.original_size == 0 or info.chunk_codecs is not None
            or info.format not in (CUDA_V1, CUDA_V2)):
        # Only CULZSS-format lzss containers fit the GPU cost model;
        # mixed-codec and Pthread (serial-format) containers report data
        # (and salvage) with an empty profile.
        return DecompressResult(data=out, profile=GpuProfile(),
                                salvage=report)
    params = params or get_library().default_params()
    # The search window is irrelevant on the decode side; clamp it so
    # containers with chunks smaller than the default window validate.
    params = params.with_overrides(
        chunk_size=info.chunk_size,
        window=min(params.window, info.chunk_size))
    with obs.stage("model", bytes=info.original_size):
        profile = GpuDecompressor(params).profile(
            per_chunk_tokens, len(info.payload), info.original_size,
            info.chunk_sizes, default_calibration())
    return DecompressResult(data=out, profile=profile, salvage=report)
