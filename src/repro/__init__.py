"""CULZSS reproduction: LZSS lossless data compression on (simulated) CUDA.

Reproduction of *CULZSS: LZSS Lossless Data Compression on CUDA*
(Ozsoy & Swany, IEEE CLUSTER 2011) as a complete Python system: the
two CULZSS GPU pipelines over a Fermi-class execution simulator, the
serial / Pthread CPU baselines, a from-scratch BZIP2-style pipeline,
the five synthetic datasets, and the benchmark harness that regenerates
every table and figure of the paper's evaluation.

Quick start — the paper's in-memory API (Figure 2)::

    from repro import gpu_compress, gpu_decompress, CompressionParams

    blob = gpu_compress(payload, CompressionParams(version=2))
    assert gpu_decompress(blob.data).data == payload

See README.md for the architecture tour and EXPERIMENTS.md for the
paper-vs-reproduction results.
"""

from repro.core import (
    CompressedBuffer,
    CompressionParams,
    CulzssLibrary,
    DecompressResult,
    GpuDecompressor,
    V1Compressor,
    V2Compressor,
    get_library,
    gpu_compress,
    gpu_decompress,
)
from repro.cpu import PthreadLzss, SerialLzss
from repro.errors import (
    ContainerError,
    CorruptChunkError,
    CorruptHeaderError,
    CorruptPayloadError,
    FrameError,
    ReproError,
    TruncatedContainerError,
)
from repro.lzss import CUDA_V1, CUDA_V2, SERIAL, SalvageReport, TokenFormat

__version__ = "1.0.0"

__all__ = [
    "CUDA_V1",
    "CUDA_V2",
    "CompressedBuffer",
    "CompressionParams",
    "ContainerError",
    "CorruptChunkError",
    "CorruptHeaderError",
    "CorruptPayloadError",
    "CulzssLibrary",
    "DecompressResult",
    "FrameError",
    "GpuDecompressor",
    "PthreadLzss",
    "ReproError",
    "SERIAL",
    "SalvageReport",
    "SerialLzss",
    "TokenFormat",
    "TruncatedContainerError",
    "V1Compressor",
    "V2Compressor",
    "__version__",
    "get_library",
    "gpu_compress",
    "gpu_decompress",
]
