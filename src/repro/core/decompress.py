"""Chunk-parallel GPU decompression — shared by both CULZSS versions.

§III.C: "The decompression process is identical in both versions …  To
distribute the work across the GPU cores, we need to identify which
block of compressed data needs to be decompressed into the
corresponding decompressed data block.  To achieve this, we keep a
list of block compression sizes."

Functionally: :func:`repro.lzss.decoder.decode_chunked` driven by the
container's chunk table.  This module holds the cost model: one thread
per chunk decodes its token stream serially — decompression "is not
computation intensive … mainly reading from and writing to memory"
(§IV.D), so the model is dominated by per-token decode work, per-byte
copies, and the global traffic of reading the compressed stream and
writing the output.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels import per_block_sums, warp_max_sums
from repro.core.params import CompressionParams
from repro.gpusim.kernel import BlockCost, KernelLaunch, launch_kernel
from repro.gpusim.profiler import GpuProfile
from repro.gpusim.timing import transfer_time
from repro.lzss.encoder import EncodeResult
from repro.model.calibration import Calibration
from repro.util.validation import require

__all__ = ["GpuDecompressor"]


class GpuDecompressor:
    """The GTX-480 cost model of the chunk-parallel decode."""

    def __init__(self, params: CompressionParams | None = None) -> None:
        self.params = params or CompressionParams()

    def kernel_launch(self, per_chunk_tokens: np.ndarray,
                      per_chunk_out_bytes: np.ndarray,
                      per_chunk_in_bytes: np.ndarray,
                      cal: Calibration) -> KernelLaunch:
        """One thread per chunk, ``threads_per_block`` chunks per block."""
        g = cal.gpu
        p = self.params
        tokens = np.asarray(per_chunk_tokens, dtype=np.float64)
        out_b = np.asarray(per_chunk_out_bytes, dtype=np.float64)
        in_b = np.asarray(per_chunk_in_bytes, dtype=np.float64)
        require(tokens.shape == out_b.shape == in_b.shape,
                "per-chunk arrays must align")

        lane_cycles = (tokens * g.decomp_cycles_per_token
                       + out_b * g.decomp_cycles_per_byte)
        block_compute = warp_max_sums(lane_cycles, p.threads_per_block)
        # Streams are read and output written per-lane (scattered): the
        # same transaction efficiency as V1's per-thread streaming.
        block_bytes = per_block_sums(in_b + out_b, p.threads_per_block)
        txn = block_bytes / g.decomp_load_bytes_per_transaction

        eff = cal.gpu_kernel_efficiency
        blocks = [
            BlockCost(
                compute_cycles=float(block_compute[b]) * eff,
                global_transactions=float(txn[b]),
                global_bytes=float(txn[b]) * 128.0,
            )
            for b in range(block_compute.size)
        ]
        return KernelLaunch(
            name="culzss_decompress",
            threads_per_block=p.threads_per_block,
            shared_mem_per_block=0,
            blocks=blocks,
        )

    def profile(self, per_chunk_tokens: np.ndarray, compressed_size: int,
                output_size: int, chunk_sizes: np.ndarray,
                cal: Calibration) -> GpuProfile:
        """Modeled in-memory decompression: H2D payload, kernel, D2H."""
        p = self.params
        n_chunks = len(chunk_sizes)
        out_bytes = np.full(n_chunks, float(p.chunk_size))
        if n_chunks:
            out_bytes[-1] = output_size - p.chunk_size * (n_chunks - 1)
        prof = GpuProfile()
        prof.add("h2d_payload", transfer_time(p.device, compressed_size))
        timing = launch_kernel(
            p.device,
            self.kernel_launch(per_chunk_tokens, out_bytes,
                               np.asarray(chunk_sizes, dtype=np.float64), cal))
        prof.add("kernel_decode", timing.seconds)
        prof.add("d2h_output", transfer_time(p.device, output_size))
        return prof

    def profile_encoded(self, result: EncodeResult,
                        cal: Calibration) -> GpuProfile:
        """:meth:`profile` of decoding ``result``'s stream, from its
        encode-side stats: per-chunk token counts come from the token
        starts (so the encode must have collected its detail arrays)."""
        stats = result.stats
        require(stats.token_starts is not None,
                "decompress model needs collect_detail=True encode stats")
        cs = self.params.chunk_size
        n_chunks = (result.input_size + cs - 1) // cs
        per_chunk_tokens = np.bincount(stats.token_starts // cs,
                                       minlength=n_chunks)
        return self.profile(per_chunk_tokens, stats.output_size,
                            result.input_size, result.chunk_sizes, cal)
