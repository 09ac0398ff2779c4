"""Heterogeneous CPU+GPU compression — §VII: "a combined CPU and GPU
heterogeneous implementation can give benefits for the execution time.
Since the chip designers are already looking into putting both in a
die … it can be a future proof application."

Splits the input between the GPU (CULZSS) and the host cores (the
Pthread coder), choosing the split so both finish together: with
per-byte rates measured on a probe prefix, the makespan
``max(t_gpu(αn), t_cpu((1−α)n))`` is minimized at
``α* = r_cpu / (r_cpu + r_gpu)`` … expressed in times-per-byte.  Output
is two self-describing containers in a tiny HET1 frame; decompression
routes each part to its decoder.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.container import pack_container, unpack_container
from repro.core.api import _compressor_for, _model_profile
from repro.core.params import CompressionParams
from repro.cpu.threads import PthreadLzss
from repro.lzss.decoder import decode_chunked
from repro.model.calibration import Calibration, default_calibration
from repro.model.cpu import PthreadModel, SerialCpuModel, sample_match_statistics
from repro.util.buffers import as_bytes
from repro.util.validation import require, require_range

__all__ = ["HeteroPlan", "HeterogeneousCompressor"]

MAGIC = b"HET1"
_HEADER = struct.Struct("<4sQQ")  # magic, gpu blob len, cpu blob len

#: Probe prefix used to measure per-byte rates before planning.
PROBE_BYTES = 128 * 1024


@dataclass
class HeteroPlan:
    """Chosen split and the modeled per-device times at that split."""

    gpu_fraction: float
    gpu_seconds: float
    cpu_seconds: float

    @property
    def makespan(self) -> float:
        return max(self.gpu_seconds, self.cpu_seconds)


class HeterogeneousCompressor:
    """Split compression across the simulated GPU and the host cores,
    the latter a :class:`PthreadLzss` at its default thread count."""

    def __init__(self, params: CompressionParams | None = None,
                 calibration: Calibration | None = None) -> None:
        self.params = params or CompressionParams()
        self.cal = calibration or default_calibration()
        self.gpu = _compressor_for(self.params)
        self.cpu = PthreadLzss()

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------

    def _gpu_seconds_per_byte(self, probe: bytes) -> float:
        result = self.gpu.compress(probe)
        prof = _model_profile(self.gpu, result, probe, self.cal)
        return prof.total_seconds / len(probe)

    def _cpu_seconds_per_byte(self, probe: bytes) -> float:
        from repro.lzss.encoder import encode
        from repro.lzss.formats import SERIAL

        stats = encode(probe, SERIAL, collect_detail=True).stats
        sample = sample_match_statistics(probe)
        serial_s = SerialCpuModel(self.cal).compress_seconds(stats, sample)
        return (PthreadModel(self.cal).compress_seconds(
            serial_s, stats.output_size) / len(probe))

    def plan(self, data) -> HeteroPlan:
        """Pick the split that lets both devices finish together."""
        data = as_bytes(data)
        n = len(data)
        require(n > 0, "cannot plan for empty input")
        probe = data[: min(PROBE_BYTES, n)]
        r_gpu = self._gpu_seconds_per_byte(probe)
        r_cpu = self._cpu_seconds_per_byte(probe)
        # equal-finish split: α·n·r_gpu = (1−α)·n·r_cpu
        alpha = r_cpu / (r_cpu + r_gpu)
        return HeteroPlan(gpu_fraction=alpha,
                          gpu_seconds=alpha * n * r_gpu,
                          cpu_seconds=(1 - alpha) * n * r_cpu)

    # ------------------------------------------------------------------
    # functional compress / decompress
    # ------------------------------------------------------------------

    def compress(self, data) -> tuple[bytes, HeteroPlan]:
        """Compress; returns the HET1 blob and the plan it used."""
        data = as_bytes(data)
        plan = self.plan(data)
        # Align the split to the GPU chunk size so the chunk table
        # stays uniform.
        cut = int(len(data) * plan.gpu_fraction)
        cut -= cut % self.params.chunk_size
        require_range(cut, 0, len(data), "split point")

        gpu_blob = (pack_container(self.gpu.compress(data[:cut]))
                    if cut else b"")
        cpu_blob = (pack_container(self.cpu.compress(data[cut:]))
                    if cut < len(data) else b"")
        frame = _HEADER.pack(MAGIC, len(gpu_blob), len(cpu_blob))
        return frame + gpu_blob + cpu_blob, plan

    def decompress(self, blob) -> bytes:
        blob = as_bytes(blob)
        require(len(blob) >= _HEADER.size, "truncated HET1 frame")
        magic, gpu_len, cpu_len = _HEADER.unpack_from(blob, 0)
        require(magic == MAGIC, "bad HET1 magic")
        off = _HEADER.size
        require(len(blob) == off + gpu_len + cpu_len,
                "HET1 frame length mismatch")
        out = []
        for part_len in (gpu_len, cpu_len):
            if not part_len:
                continue
            info = unpack_container(blob[off:off + part_len])
            off += part_len
            out.append(decode_chunked(info.payload, info.format,
                                      info.chunk_sizes, info.chunk_size,
                                      info.original_size))
        return b"".join(out)
