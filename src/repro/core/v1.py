"""CULZSS Version 1 — coarse-grained chunk-per-thread compression.

§III.B.1: "the idea is very similar to [the] Pthread implementation …
Each thread in the thread block receives a small portion of the input
data and works on its own to compress that piece."  Concretely: every
CUDA block owns a 4 KiB chunk held in shared memory; each of its 128
threads runs the *serial* coder over its own 32-byte slice of the
chunk, searching backwards through the whole chunk (§III.D: "we moved
the buffers to shared memory … allowed us a 30 % speed up").

Functional output: the serial 17-bit token over chunk-confined windows
with slice-truncated matches — which is exactly why Table II's V1
column tracks the serial column to within a point.

Cost model per block:

* lane (= slice) compares use the same measured search statistics
  (κ per candidate) as the serial CPU model — V1 inherits the serial
  coder's *skip* savings, which is why it wins big on
  highly-compressible data (§V);
* warp lockstep = max over 32 lanes (slices of unequal token counts
  diverge — V1's penalty on heterogeneous text);
* shared traffic at the drifting-thread conflict degree (≈3.4), or
  L1-cached global cost when ``buffers_in_shared`` is off (the §III.D
  ablation);
* scattered per-lane global streaming (16 useful bytes per 128-byte
  transaction) for chunk load and bucket store.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels import per_block_sums, v1_conflict_degree, warp_max_sums
from repro.core.params import CompressionParams
from repro.engine import get_engine
from repro.gpusim.kernel import BlockCost, KernelLaunch, launch_kernel
from repro.gpusim.profiler import GpuProfile
from repro.gpusim.timing import transfer_time
from repro.lzss.encoder import EncodeResult, encode_chunked
from repro.model.calibration import CPU_CLOCK_HZ, Calibration
from repro.model.cpu import MatchSampleStats
from repro.util.validation import require

__all__ = ["V1Compressor"]


class V1Compressor:
    """Functional V1 compression plus its GTX-480 cost model."""

    def __init__(self, params: CompressionParams | None = None,
                 engine=None) -> None:
        params = params or CompressionParams(version=1)
        require(params.version == 1, "V1Compressor needs version=1 params")
        require(params.chunk_size % params.slice_size == 0,
                f"V1 splits each chunk into equal per-thread slices: "
                f"chunk_size {params.chunk_size} is not a multiple of "
                f"chunk_size // threads_per_block = {params.slice_size}")
        warp = params.device.warp_size
        require(params.threads_per_block % warp == 0,
                f"V1's cost model runs whole warps: threads_per_block "
                f"{params.threads_per_block} is not a multiple of the "
                f"{params.device.name} warp size {warp}")
        self.params = params
        #: The :class:`repro.engine.ParallelEngine` that runs the encode;
        #: the one-thread default is the serial path, wider engines
        #: shard it across cores with byte-identical output.
        self.engine = engine or get_engine(1)

    def compress(self, data) -> EncodeResult:
        """Compress; always collects the detail arrays the model needs."""
        p = self.params
        return self.engine.encode(encode_chunked, data, p.token_format,
                                  p.chunk_size, collect_detail=True,
                                  slice_size=p.slice_size)

    # ------------------------------------------------------------------
    # cost model
    # ------------------------------------------------------------------

    def _per_slice_work(self, result: EncodeResult, sample: MatchSampleStats):
        """Exact per-slice (= per-thread) compares/tokens/bytes."""
        stats = result.stats
        require(stats.token_starts is not None,
                "V1 cost model needs collect_detail=True encode stats")
        ss = self.params.slice_size
        cs = self.params.chunk_size
        n = result.input_size
        n_slices = (n + ss - 1) // ss if n else 0
        starts = stats.token_starts
        # Brute-force scan cost at each token start: every candidate up
        # to the chunk boundary (the shared-memory chunk is the whole
        # search buffer), extension compares weighted as in the serial
        # model (same code, same search).
        from repro.model.cpu import effective_candidate_cost

        w_i = np.minimum(starts % cs, self.params.token_format.window)
        scan = w_i.astype(np.float64) * effective_candidate_cost(sample.kappa)
        slice_of = starts // ss
        compares = np.bincount(slice_of, weights=scan, minlength=n_slices)
        tokens = np.bincount(slice_of, minlength=n_slices).astype(np.float64)
        nbytes = np.full(n_slices, float(ss))
        if n_slices:
            nbytes[-1] = n - ss * (n_slices - 1)
        return compares, tokens, nbytes

    def kernel_launch(self, result: EncodeResult, cal: Calibration,
                      sample: MatchSampleStats) -> KernelLaunch:
        """Build the simulated launch from exact per-thread work."""
        p = self.params
        g = cal.gpu
        compares, tokens, nbytes = self._per_slice_work(result, sample)

        lane_cycles = (compares * g.cycles_per_compare
                       + tokens * g.cycles_per_token
                       + nbytes * g.cycles_per_byte)
        shared_per_lane = compares * g.shared_accesses_per_compare

        block_compute = warp_max_sums(lane_cycles, p.threads_per_block)
        # Buffer accesses issue as warp instructions: lanes read in
        # lockstep, so a warp pays for its slowest lane's access count
        # (times the serialization), not the lane sum.
        block_access = warp_max_sums(shared_per_lane, p.threads_per_block)
        if p.buffers_in_shared:
            block_shared = block_access
            block_memory = np.zeros_like(block_access)
        else:
            # Ablation: buffer traffic goes to L1-cached global memory
            # at its higher per-access cost (§III.D's ~30 % effect).
            block_shared = np.zeros_like(block_access)
            block_memory = block_access * g.global_cached_latency_cycles
        block_bytes_in = per_block_sums(nbytes, p.threads_per_block)
        # Compressed buckets are written back in the same scattered
        # per-lane pattern as the loads.
        out_ratio = result.stats.output_size / max(result.input_size, 1)
        block_bytes_out = block_bytes_in * out_ratio
        txn = (block_bytes_in + block_bytes_out) / g.v1_load_bytes_per_transaction

        eff = cal.gpu_kernel_efficiency
        blocks = [
            BlockCost(
                compute_cycles=float(block_compute[b]) * eff,
                shared_accesses=float(block_shared[b]),
                bank_conflict_degree=v1_conflict_degree(),
                global_transactions=float(txn[b]),
                global_bytes=float(txn[b]) * 128.0,
                memory_cycles=float(block_memory[b]),
            )
            for b in range(block_compute.size)
        ]
        return KernelLaunch(
            name="culzss_v1_compress",
            threads_per_block=p.threads_per_block,
            shared_mem_per_block=p.shared_bytes_per_block,
            blocks=blocks,
        )

    def profile(self, result: EncodeResult, cal: Calibration,
                sample: MatchSampleStats) -> GpuProfile:
        """End-to-end modeled time: H2D, kernel, bucket D2H, CPU concat.

        §III.B.3: after the kernel, the GPU holds per-chunk buckets
        ("partial full buckets"); the full bucket area comes back to
        the host, which concatenates only the compressed parts — "a
        very little overhead … so we leave this part serial".
        """
        prof = GpuProfile()
        n = result.input_size
        prof.add("h2d_input", transfer_time(self.params.device, n))
        timing = launch_kernel(self.params.device,
                               self.kernel_launch(result, cal, sample))
        prof.add("kernel_match_encode", timing.seconds)
        prof.add("d2h_buckets", transfer_time(self.params.device, n))
        concat_s = (result.stats.output_size * cal.concat_cycles_per_byte
                    / CPU_CLOCK_HZ)
        prof.add("cpu_concat", concat_s)
        return prof
