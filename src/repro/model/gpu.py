"""Paper-scale extrapolation of the modeled GPU times.

The GPU cost models live next to the code they model
(:meth:`repro.core.v1.V1Compressor.profile`,
:meth:`repro.core.v2.V2Compressor.profile`,
:meth:`repro.core.decompress.GpuDecompressor.profile`); they run at
benchmark scale, and :func:`scale_to_paper` extrapolates a modeled time
linearly to the paper's 128 MB inputs (every term in the pipeline —
kernel cycles, PCIe bytes, CPU post-processing — is linear in the input
size; occupancy and per-transaction effects are size-independent).
"""

from __future__ import annotations

from repro.bench.paper import PAPER_INPUT_BYTES
from repro.util.validation import require

__all__ = ["scale_to_paper"]


def scale_to_paper(seconds: float, measured_bytes: int) -> float:
    """Linear size extrapolation from benchmark scale to 128 MB."""
    require(measured_bytes > 0, "cannot scale an empty measurement")
    return seconds * (PAPER_INPUT_BYTES / measured_bytes)
