"""Analytic timing models for the paper's testbed.

Our NumPy implementations are functionally real but their wall-clock is
not comparable to 2011 C/CUDA code, so Tables I/III and Figure 4 are
regenerated from *operation counts*: every compression run reports
exactly how many byte comparisons, tokens, bytes and transactions it
executed, and the models here convert those counts into modeled seconds
on the paper's i7 920 + GTX 480.

The GPU models are the ``profile`` methods of :mod:`repro.core`'s V1,
V2 and decompressor classes; :mod:`repro.model.gpu` only extrapolates
their times to the paper's 128 MB inputs.

Calibration discipline (see :mod:`repro.model.calibration`): each
platform/code path gets exactly one anchor cell, always from the
C-files column of the published tables; every other cell of every table
is a prediction.
"""

from repro.model.calibration import Calibration, default_calibration
from repro.model.cpu import (
    MatchSampleStats,
    PthreadModel,
    SerialCpuModel,
    estimate_serial_compares,
    sample_match_statistics,
)
from repro.model.bzip2 import Bzip2Model

__all__ = [
    "Bzip2Model",
    "Calibration",
    "PthreadModel",
    "SerialCpuModel",
    "default_calibration",
    "MatchSampleStats",
    "estimate_serial_compares",
    "sample_match_statistics",
]
