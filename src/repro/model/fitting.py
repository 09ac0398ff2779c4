"""Anchor fitting: derive the calibrated constants from C-files runs.

Each fitted constant is pinned by exactly one published cell (always
the C-files column — the first dataset) so every other cell of every
table stays a prediction.  The fit is re-run by the benchmark harness
at table-generation time, making the calibration reproducible from the
code alone; the resulting values are also reflected in
:class:`repro.model.calibration.Calibration`'s shipped defaults.

Anchors:

========================== ============================= ================
constant                    anchor cell                   solve
========================== ============================= ================
cpu_cycles_per_compare      Table I  C-files/Serial       direct ratio
pthread_effective_par.      Table I  C-files/Pthread      direct ratio
bzip2_cycles_per_sort_cmp   Table I  C-files/BZIP2        direct ratio
gpu_kernel_efficiency       Table I  C-files/CULZSS V1    2-point linear
gpu_v2_kernel_efficiency    Table I  C-files/CULZSS V2    2-point linear
cpu_decomp_cycles_per_unit  Table III C-files/Serial      direct ratio
gpu.decomp_cycles_per_token Table III C-files/CULZSS      2-point linear
========================== ============================= ================

The two "2-point linear" solves exploit that the modeled total is an
affine function of the constant being fitted (everything else held
fixed): evaluate at two values, interpolate, clamp to a sane floor.
"""

from __future__ import annotations

from dataclasses import replace

from repro.bench.harness import Artifacts
from repro.bench.paper import PAPER_INPUT_BYTES, TABLE1_SECONDS, TABLE3_SECONDS
from repro.core.decompress import GpuDecompressor
from repro.core.v1 import V1Compressor
from repro.core.v2 import V2Compressor
from repro.model.bzip2 import LINEAR_CYCLES_PER_BYTE, sort_compares
from repro.model.calibration import CPU_CLOCK_HZ, Calibration
from repro.model.cpu import estimate_serial_compares
from repro.util.validation import require

__all__ = ["fit_calibration"]

_ANCHOR_DATASET = "cfiles"


def _affine_solve(f, target: float, x1: float, x2: float,
                  floor: float) -> float:
    """Solve f(x) = target for piecewise-affine f.

    Secant iterations: the modeled totals are affine in the constant
    except where a max() (bandwidth floor, overlap) switches branch;
    a few refinements land on the active branch.
    """
    for _ in range(6):
        y1, y2 = f(x1), f(x2)
        require(abs(y2 - y1) > 1e-12, "fit target insensitive to constant")
        x = max(x1 + (target - y1) * (x2 - x1) / (y2 - y1), floor)
        if abs(f(x) - target) <= 1e-4 * max(target, 1e-9):
            return x
        # bracket the refined estimate for the next pass
        x1, x2 = max(x * 0.9, floor), x * 1.1 + 1e-6
    return x


def fit_calibration(arts: Artifacts) -> Calibration:
    """Fit all anchors from the C-files artifacts, starting from the
    shipped :class:`Calibration` defaults."""
    require(arts.name == _ANCHOR_DATASET,
            f"calibration anchors come from {_ANCHOR_DATASET!r}")
    cal = Calibration()
    scale = PAPER_INPUT_BYTES / arts.size
    t1 = TABLE1_SECONDS[_ANCHOR_DATASET]
    t3 = TABLE3_SECONDS[_ANCHOR_DATASET]

    # --- serial compress: cycles per comparison ----------------------
    compares = estimate_serial_compares(arts.serial.stats, arts.sample) * scale
    cpu_cmp = t1["serial"] * CPU_CLOCK_HZ / compares
    cal = replace(cal, cpu_cycles_per_compare=cpu_cmp)

    # --- pthread: effective parallelism ------------------------------
    merge_s = (arts.serial.stats.output_size * scale
               * cal.concat_cycles_per_byte / CPU_CLOCK_HZ)
    par = t1["serial"] / max(t1["pthread"] - merge_s, 1e-9)
    cal = replace(cal, pthread_effective_parallelism=par)

    # --- bzip2: cycles per rotation-sort comparison -------------------
    sort_cmp = sum(sort_compares(b.rle1_bytes, b.mean_lcp)
                   for b in arts.bzip2.block_stats) * scale
    linear_cycles = arts.bzip2.original_size * scale * LINEAR_CYCLES_PER_BYTE
    c_sort = max((t1["bzip2"] * CPU_CLOCK_HZ - linear_cycles) / sort_cmp, 0.1)
    cal = replace(cal, bzip2_cycles_per_sort_compare=c_sort)

    # --- serial decompress: cycles per output unit --------------------
    units = (arts.size + 4.0 * arts.serial.stats.n_tokens) * scale
    cal = replace(cal, cpu_decomp_cycles_per_unit=t3["serial"]
                  * CPU_CLOCK_HZ / units)

    # --- GPU kernel efficiency (V1 anchor; V2 shares the factor) ------
    def v1_total(eff: float) -> float:
        c = replace(cal, gpu_kernel_efficiency=eff)
        return V1Compressor().profile(arts.v1, c,
                                     arts.sample).total_seconds * scale

    eff = _affine_solve(v1_total, t1["culzss_v1"], 0.5, 2.0, floor=0.05)
    cal = replace(cal, gpu_kernel_efficiency=eff)

    # --- V2 kernel efficiency (own anchor: different kernel, and the
    # paper's V2 leaves un-overlapped CPU work the profile cannot see)
    def v2_total(eff2: float) -> float:
        c = replace(cal, gpu_v2_kernel_efficiency=eff2)
        return V2Compressor().profile(arts.v2, c).total_seconds * scale

    eff2 = _affine_solve(v2_total, t1["culzss_v2"], 1.0, 4.0, floor=0.05)
    cal = replace(cal, gpu_v2_kernel_efficiency=eff2)

    # --- GPU decompression: per-token decode cycles -------------------
    def decomp_total(tok_cycles: float) -> float:
        c = replace(cal, gpu=replace(cal.gpu,
                                     decomp_cycles_per_token=tok_cycles))
        return GpuDecompressor().profile_encoded(
            arts.v1, c).total_seconds * scale

    tok = _affine_solve(decomp_total, t3["culzss"], 10.0, 40.0, floor=1.0)
    cal = replace(cal, gpu=replace(cal.gpu, decomp_cycles_per_token=tok))
    return cal
