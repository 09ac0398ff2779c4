"""CULZSS — the paper's contribution.

Two GPU compression pipelines over the :mod:`repro.lzss` substrate and
the :mod:`repro.gpusim` device model:

* :mod:`repro.core.v1` — coarse-grained: one thread ⇒ one 4 KiB chunk,
  serial LZSS per thread, buffers in shared memory (§III.B.1);
* :mod:`repro.core.v2` — fine-grained: one thread ⇒ one input
  position, all-position matching on the GPU, redundant-match
  elimination (the shared greedy parse; :mod:`repro.core.fixup` holds
  the paper's serial walk as its reference) on the CPU (§III.B.2–3);
* :mod:`repro.core.decompress` — chunk-parallel decompression shared
  by both versions (§III.C);
* :mod:`repro.core.api` — the in-memory ``gpu_compress`` /
  ``gpu_decompress`` interface of Figure 2, with the version-selection
  compression parameter, and its profile-free functional half
  ``compress_container`` / ``decompress_container``.
"""

from repro.core.api import (
    CompressedBuffer,
    DecompressResult,
    compress_container,
    decompress_container,
    gpu_compress,
    gpu_decompress,
)
from repro.core.decompress import GpuDecompressor
from repro.core.fixup import fixup_matches_reference
from repro.core.hetero import HeteroPlan, HeterogeneousCompressor
from repro.core.library import CulzssLibrary, get_library
from repro.core.params import CompressionParams
from repro.core.pipeline import PipelineResult, StreamingPipeline
from repro.core.v1 import V1Compressor
from repro.core.v2 import V2Compressor

__all__ = [
    "CompressedBuffer",
    "CompressionParams",
    "CulzssLibrary",
    "DecompressResult",
    "GpuDecompressor",
    "HeteroPlan",
    "HeterogeneousCompressor",
    "PipelineResult",
    "StreamingPipeline",
    "V1Compressor",
    "V2Compressor",
    "compress_container",
    "decompress_container",
    "fixup_matches_reference",
    "get_library",
    "gpu_compress",
    "gpu_decompress",
]
