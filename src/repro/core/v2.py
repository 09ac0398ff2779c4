"""CULZSS Version 2 — fine-grained position-per-thread matching.

§III.B.2: "the matching computation can be done in parallel for each
character in the uncoded lookahead buffer.  In the matching process
each character is searched by a single thread throughout the window."
Every position of every 4 KiB chunk gets its longest match computed by
a GPU thread against an extended 128-byte window view; the serial
greedy walk that removes the redundant (overlapped) matches runs on
the CPU (:mod:`repro.core.fixup`) and can overlap the next buffer's
kernel (§III.B.3, §V).

Why this version behaves the way Table I shows, in model terms:

* it matches at *all* n positions (no skip), so its kernel work is
  ``Σ_i compares(i)`` versus V1's ``Σ_{token starts} compares(i)`` —
  on highly-compressible data that is ~18× more work, hence V2's loss
  there (§V);
* the work is uniform across lanes (every thread scans the same
  window), so warp divergence is minimal, accesses are staggered
  conflict-free (§III.B.2) and loads are coalesced — hence V2's win on
  ~50 %-compressible text.
"""

from __future__ import annotations

import numpy as np

from repro.core.params import CompressionParams
from repro.engine import get_engine
from repro.gpusim.kernel import BlockCost, KernelLaunch, launch_kernel
from repro.gpusim.profiler import GpuProfile
from repro.gpusim.timing import transfer_time
from repro.lzss.encoder import EncodeResult, encode_chunked
from repro.model.calibration import CPU_CLOCK_HZ, Calibration
from repro.util.validation import require

__all__ = ["V2Compressor"]

#: Bytes of kernel output per input position: one match-length byte and
#: one match-offset byte (len−3 ≤ 255, dist−1 ≤ 127 both fit a byte).
MATCH_RECORD_BYTES = 2


class V2Compressor:
    """Functional V2 compression plus its GTX-480 cost model."""

    def __init__(self, params: CompressionParams | None = None,
                 engine=None) -> None:
        params = params or CompressionParams(version=2)
        require(params.version == 2, "V2Compressor needs version=2 params")
        self.params = params
        #: The :class:`repro.engine.ParallelEngine` that runs the encode;
        #: the one-thread default is the serial path, wider engines
        #: shard it across cores with byte-identical output.
        self.engine = engine or get_engine(1)

    def compress(self, data) -> EncodeResult:
        """Compress; always collects the detail arrays the model needs."""
        p = self.params
        return self.engine.encode(encode_chunked, data, p.token_format,
                                  p.chunk_size, collect_detail=True)

    # ------------------------------------------------------------------
    # cost model
    # ------------------------------------------------------------------

    def kernel_launch(self, result: EncodeResult,
                      cal: Calibration) -> KernelLaunch:
        """One block per chunk; lane work = that position's window scan."""
        p = self.params
        g = cal.gpu
        stats = result.stats
        require(stats.per_warp_compares is not None,
                "V2 cost model needs collect_detail=True encode stats")
        n = result.input_size
        cs = p.chunk_size
        n_chunks = (n + cs - 1) // cs if n else 0

        # Exact SIMT cost: per 32-position warp, the lanes scan each
        # window offset in lockstep and wait for the slowest lane's
        # byte-compare loop — Σ_lags max_over_lanes, collected during
        # the functional match pass.
        warp_cmp = stats.per_warp_compares.astype(np.float64)
        warps_per_chunk = cs // 32
        pad = (-warp_cmp.size) % warps_per_chunk
        if pad:
            warp_cmp = np.concatenate([warp_cmp, np.zeros(pad)])
        chunk_cmp = warp_cmp.reshape(-1, warps_per_chunk).sum(axis=1)
        block_compute = (chunk_cmp * g.cycles_per_compare
                         + cs * g.cycles_per_byte / 32.0)
        # Every lockstep compare touches the shared window + lookahead
        # view; the 32-byte stagger keeps the accesses conflict-free.
        block_shared = chunk_cmp * g.shared_accesses_per_compare

        chunk_bytes = np.full(n_chunks, float(cs))
        if n_chunks:
            chunk_bytes[-1] = n - cs * (n_chunks - 1)
        # Coalesced: sequential 1-byte-per-thread loads — "In a 128
        # thread configuration it makes a block size of 128 bytes ...
        # only one memory transaction" (§III.D).  Fewer threads fill
        # only part of each 128-byte transaction.
        coalesce_eff = min(p.threads_per_block, 128) / 128.0
        txn = chunk_bytes * (1 + MATCH_RECORD_BYTES) / (128.0 * coalesce_eff)
        # The 32-byte-offset stagger (§III.B.2) is conflict-free up to
        # 128 threads; beyond that the offsets wrap around the shared
        # window and collide pairwise.
        conflict = max(1.0, p.threads_per_block / 128.0)

        eff = cal.gpu_v2_kernel_efficiency
        blocks = [
            BlockCost(
                compute_cycles=float(block_compute[b]) * eff,
                shared_accesses=float(block_shared[b]),
                bank_conflict_degree=conflict,
                global_transactions=float(txn[b]),
                global_bytes=float(txn[b]) * 128.0,
            )
            for b in range(n_chunks)
        ]
        return KernelLaunch(
            name="culzss_v2_match",
            threads_per_block=p.threads_per_block,
            shared_mem_per_block=p.shared_bytes_per_block,
            blocks=blocks,
        )

    def fixup_seconds(self, result: EncodeResult, cal: Calibration) -> float:
        """Host time of the serial redundant-match elimination pass."""
        stats = result.stats
        cycles = (result.input_size * cal.fixup_cycles_per_position
                  + stats.n_tokens * cal.fixup_cycles_per_token)
        return cycles / CPU_CLOCK_HZ

    def profile(self, result: EncodeResult, cal: Calibration) -> GpuProfile:
        """End-to-end modeled time: H2D, kernel, match D2H, CPU fixup.

        With ``overlap_cpu_gpu`` the fixup of buffer *k* hides behind
        the kernel of buffer *k+1* (§III.B.3's "opportunity for
        CPU-GPU computation overlap"); only its excess over the kernel
        time is exposed.
        """
        prof = GpuProfile()
        n = result.input_size
        prof.add("h2d_input", transfer_time(self.params.device, n))
        timing = launch_kernel(self.params.device,
                               self.kernel_launch(result, cal))
        prof.add("kernel_match", timing.seconds)
        prof.add("d2h_match_records",
                 transfer_time(self.params.device, n * MATCH_RECORD_BYTES))
        fixup_s = self.fixup_seconds(result, cal)
        if self.params.overlap_cpu_gpu:
            prof.add("cpu_fixup", fixup_s, overlap_with="kernel_match")
        else:
            prof.add("cpu_fixup", fixup_s)
        return prof
