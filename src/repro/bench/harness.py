"""Benchmark harness: one dataset → all five systems → modeled tables.

Two stages:

* :func:`gather_artifacts` runs every *functional* compression on the
  dataset at benchmark scale (real bytes, real ratios, exact operation
  counts) — the expensive part, shared by calibration fitting and
  table generation;
* :func:`run_dataset` feeds those artifacts through the timing models
  and returns a :class:`DatasetRun` holding the modeled paper-scale
  (128 MB) seconds and the measured ratios for every system.

Benchmark scale defaults to ``REPRO_BENCH_MB`` MiB (default 1); times
scale linearly to the paper's 128 MB (every modeled term is linear in
input size).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.bench.paper import PAPER_DATASET_ORDER, PAPER_INPUT_BYTES
from repro.bzip2.pipeline import Bzip2Result
from repro.bzip2.pipeline import compress as bzip2_compress
from repro.core.params import CompressionParams
from repro.datasets import generate
from repro.lzss.encoder import EncodeResult, encode
from repro.lzss.formats import SERIAL
from repro.model.bzip2 import Bzip2Model
from repro.model.calibration import Calibration
from repro.model.cpu import (
    MatchSampleStats,
    PthreadModel,
    SerialCpuModel,
    sample_match_statistics,
)

__all__ = ["Artifacts", "DatasetRun", "bench_bytes", "gather_artifacts",
           "run_all", "run_dataset"]


def bench_bytes() -> int:
    """Benchmark input size: ``REPRO_BENCH_MB`` MiB (default 1)."""
    return int(float(os.environ.get("REPRO_BENCH_MB", "1")) * (1 << 20))


@dataclass
class Artifacts:
    """Functional outputs of every system on one dataset."""

    name: str
    size: int
    sample: MatchSampleStats
    serial: EncodeResult
    v1: EncodeResult
    v2: EncodeResult
    bzip2: Bzip2Result


@dataclass
class DatasetRun:
    """Modeled paper-scale seconds + measured ratios for one dataset."""

    name: str
    size: int
    compress_seconds: dict[str, float] = field(default_factory=dict)
    ratios: dict[str, float] = field(default_factory=dict)
    decompress_seconds: dict[str, float] = field(default_factory=dict)

    def speedup_vs_serial(self, system: str) -> float:
        return self.compress_seconds["serial"] / self.compress_seconds[system]


def gather_artifacts(name: str, size: int | None = None,
                     seed: int | None = None) -> Artifacts:
    """Run all functional compressions on the named dataset."""
    size = size or bench_bytes()
    data = generate(name, size, seed)
    sample = sample_match_statistics(data)
    serial = encode(data, SERIAL, collect_detail=True)
    from repro.core.v1 import V1Compressor
    from repro.core.v2 import V2Compressor

    v1_result = V1Compressor(CompressionParams(version=1)).compress(data)
    v2_result = V2Compressor(CompressionParams(version=2)).compress(data)
    bz = bzip2_compress(data)
    return Artifacts(name=name, size=size, sample=sample, serial=serial,
                     v1=v1_result, v2=v2_result, bzip2=bz)


def run_dataset(arts: Artifacts, cal: Calibration) -> DatasetRun:
    """Feed one dataset's artifacts through all timing models."""
    # Imported here: repro.core imports repro.model.calibration, and
    # repro.model.fitting imports this module — a module-level import
    # would cycle.
    from repro.core.decompress import GpuDecompressor
    from repro.core.v1 import V1Compressor
    from repro.core.v2 import V2Compressor

    run = DatasetRun(name=arts.name, size=arts.size)
    scale = PAPER_INPUT_BYTES / arts.size

    serial_model = SerialCpuModel(cal)
    serial_s = serial_model.compress_seconds(arts.serial.stats,
                                             arts.sample) * scale
    run.compress_seconds["serial"] = serial_s
    run.compress_seconds["pthread"] = PthreadModel(cal).compress_seconds(
        serial_s, int(arts.serial.stats.output_size * scale))
    run.compress_seconds["bzip2"] = Bzip2Model(cal).compress_seconds(
        arts.bzip2) * scale
    run.compress_seconds["culzss_v1"] = V1Compressor().profile(
        arts.v1, cal, arts.sample).total_seconds * scale
    run.compress_seconds["culzss_v2"] = V2Compressor().profile(
        arts.v2, cal).total_seconds * scale

    run.ratios = {
        "serial": arts.serial.stats.ratio,
        "pthread": arts.serial.stats.ratio,  # same format, huge chunks
        "bzip2": arts.bzip2.ratio,
        "culzss_v1": arts.v1.stats.ratio,
        "culzss_v2": arts.v2.stats.ratio,
    }

    # Table III: decompression.  The CULZSS column decodes the V1
    # stream (both versions share the decompressor, §III.C).
    run.decompress_seconds["serial"] = serial_model.decompress_seconds(
        int(arts.size * scale), int(arts.serial.stats.n_tokens * scale))
    run.decompress_seconds["culzss"] = GpuDecompressor().profile_encoded(
        arts.v1, cal).total_seconds * scale
    return run


def run_all(size: int | None = None,
            datasets: list[str] | None = None) -> dict[str, DatasetRun]:
    """Gather artifacts for every dataset, fit anchors, model all cells.

    When C-files is among ``datasets`` the calibration anchors are
    re-derived from its artifacts at this run's scale, making the whole
    table generation self-contained and reproducible; otherwise the
    shipped default calibration applies.
    """
    from repro.model.fitting import fit_calibration

    names = datasets or PAPER_DATASET_ORDER
    artifacts = {name: gather_artifacts(name, size) for name in names}
    if "cfiles" in artifacts:
        calibration = fit_calibration(artifacts["cfiles"])
    else:
        from repro.model.calibration import default_calibration

        calibration = default_calibration()
    return {name: run_dataset(artifacts[name], calibration)
            for name in names}
