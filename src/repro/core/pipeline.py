"""Streaming pipeline — §VII: "The concurrent execution and streaming
feature of new Fermi GPUs can be used to process those chunks" and
"hidden by overlapping computation with GPU kernel in a pipelining
fashion."

Processes a sequence of buffers through the four CULZSS stages — H2D
copy, kernel, D2H copy, CPU post-processing — with Fermi's copy/compute
overlap: while buffer *k* is in the kernel, buffer *k+1* uploads and
buffer *k−1* downloads/fixes up.  Functionally each buffer is a normal
in-memory compression (self-describing container); the modeled timeline
comes from a small dependency-respecting pipeline scheduler, so the
steady state is dominated by the slowest stage rather than the stage
sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.container import pack_container
from repro.core.api import _compressor_for, _model_profile
from repro.core.params import CompressionParams
from repro.model.calibration import Calibration, default_calibration
from repro.util.buffers import as_bytes
from repro.util.validation import require

__all__ = ["PipelineResult", "StreamingPipeline"]

#: Stage names in pipeline order.  H2D and D2H share the PCIe engines
#: pairwise (Fermi has one copy engine per direction), the kernel has
#: the SMs, the post stage has the host core.
STAGES = ("h2d", "kernel", "d2h", "cpu")


@dataclass
class PipelineResult:
    """Streamed compression output plus the modeled timelines."""

    containers: list[bytes]
    input_bytes: int
    compressed_bytes: int
    sequential_seconds: float
    pipelined_seconds: float
    stage_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def ratio(self) -> float:
        if self.input_bytes == 0:
            return 1.0
        return self.compressed_bytes / self.input_bytes

    @property
    def overlap_speedup(self) -> float:
        if self.pipelined_seconds == 0:
            return 1.0
        return self.sequential_seconds / self.pipelined_seconds


def _schedule(per_buffer: list[dict[str, float]]) -> float:
    """End-to-end seconds of the overlapped pipeline.

    Each stage is a serial resource; stage *s* of buffer *k* starts
    when both stage *s−1* of buffer *k* and stage *s* of buffer *k−1*
    have finished — the classic software-pipeline recurrence.
    """
    done = {s: 0.0 for s in STAGES}
    finish = 0.0
    for stages in per_buffer:
        prev_stage_done = 0.0
        for s in STAGES:
            start = max(prev_stage_done, done[s])
            done[s] = start + stages[s]
            prev_stage_done = done[s]
        finish = prev_stage_done
    return finish


class StreamingPipeline:
    """Compress a stream of buffers with copy/compute/CPU overlap."""

    def __init__(self, params: CompressionParams | None = None,
                 calibration: Calibration | None = None) -> None:
        self.params = params or CompressionParams()
        self.cal = calibration or default_calibration()
        self._compressor = _compressor_for(self.params)

    def _buffer_stages(self, data: bytes) -> tuple[bytes, dict[str, float]]:
        result = self._compressor.compress(data)
        prof = _model_profile(self._compressor, result, data, self.cal)
        # Both versions' profiles are these four phases, in this order.
        stages = dict(zip(STAGES, (p.seconds for p in prof.phases),
                          strict=True))
        return pack_container(result), stages

    def compress_stream(self, buffers: Iterable[bytes]) -> PipelineResult:
        """Compress every buffer; model sequential vs pipelined time."""
        containers: list[bytes] = []
        per_buffer: list[dict[str, float]] = []
        input_bytes = 0
        for buf in buffers:
            data = as_bytes(buf)
            require(len(data) > 0, "empty buffer in stream")
            blob, stages = self._buffer_stages(data)
            containers.append(blob)
            per_buffer.append(stages)
            input_bytes += len(data)

        sequential = sum(sum(st.values()) for st in per_buffer)
        pipelined = _schedule(per_buffer)
        totals = {s: sum(st[s] for st in per_buffer) for s in STAGES}
        return PipelineResult(
            containers=containers,
            input_bytes=input_bytes,
            compressed_bytes=sum(len(c) for c in containers),
            sequential_seconds=sequential,
            pipelined_seconds=pipelined,
            stage_seconds=totals,
        )
