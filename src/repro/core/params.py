"""Compression parameters — the API's tuning surface.

The paper's API carries "compression parameters [that] only include
CULZSS version selection.  In the future, window size and number of
threads per block can be added" (§III).  This reproduction implements
that future: version, window size, threads per block, chunk size and
the shared-memory placement are all adjustable, which is what the
ablation benchmarks sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.gpusim.spec import FERMI_GTX480, DeviceSpec
from repro.lzss.constants import CUDA_CHUNK_SIZE, CUDA_WINDOW, DEFAULT_THREADS_PER_BLOCK
from repro.lzss.formats import CUDA_V1, CUDA_V2, TokenFormat
from repro.util.validation import require, require_range

__all__ = ["CompressionParams"]


@dataclass(frozen=True)
class CompressionParams:
    """Everything a CULZSS run can be configured with.

    Attributes
    ----------
    version:
        1 = chunk-per-thread (§III.B.1), 2 = position-per-thread
        (§III.B.2).  The paper's guidance (§V): version 1 for highly
        compressible data, version 2 for data ≲50 % compressible.
    window:
        Search-window bytes per thread; the default 128 is the paper's
        measured best and exactly fills 16 KB of shared memory with 128
        threads.  Non-default windows use a parameterized token format
        and are meant for tuning sweeps.
    overlap_cpu_gpu:
        Pipeline the V2 CPU fixup behind the next buffer's kernel
        (§III.B.3 / §V).
    buffers_in_shared:
        Ablation flag for §III.D's "moved the buffers to shared memory
        … allowed us a 30 % speed up".
    """

    version: int = 2
    window: int = CUDA_WINDOW
    chunk_size: int = CUDA_CHUNK_SIZE
    threads_per_block: int = DEFAULT_THREADS_PER_BLOCK
    device: DeviceSpec = FERMI_GTX480
    overlap_cpu_gpu: bool = True
    buffers_in_shared: bool = True

    def __post_init__(self) -> None:
        require(self.version in (1, 2), f"version must be 1 or 2, got {self.version}")
        require_range(self.window, 4, 4096, "window")
        require_range(self.chunk_size, 64, 1 << 24, "chunk_size")
        require_range(self.threads_per_block, 1,
                      self.device.max_threads_per_block, "threads_per_block")
        require(self.window <= self.chunk_size,
                "window cannot exceed the chunk size")

    @property
    def token_format(self) -> TokenFormat:
        """The bit layout implied by (version, window).

        V1 always keeps the serial 17-bit token — its search window is
        the whole shared-memory chunk, so ``window`` does not apply to
        it.  V2's window defaults to the paper's 128 bytes; other
        values build a parameterized format for tuning sweeps.
        """
        if self.version == 1:
            return CUDA_V1
        if self.window == CUDA_WINDOW:
            return CUDA_V2
        offset_bits = max(1, math.ceil(math.log2(self.window)))
        return TokenFormat(
            name=f"cuda_v2_w{self.window}",
            offset_bits=offset_bits,
            length_bits=8,
            window=self.window,
        )

    @property
    def is_standard_format(self) -> bool:
        """Standard formats can travel in containers; sweep formats cannot."""
        return self.version == 1 or self.window == CUDA_WINDOW

    @property
    def slice_size(self) -> int:
        """V1's per-thread parse slice: chunk ÷ threads ("each thread in
        a block is responsible for its chunk", §III.B.1)."""
        return max(1, self.chunk_size // self.threads_per_block)

    @property
    def shared_bytes_per_block(self) -> int:
        """Shared memory one block claims for its search buffers.

        V1 keeps the whole 4 KiB chunk resident plus per-thread
        lookahead/bookkeeping state (~48 B each: 18-byte lookahead,
        ring pointers, token staging) — ~10 KB at 128 threads, which is
        why §V reports the buffers stop fitting at 256–512 threads.
        V2's threads cooperate on one extended window + lookahead view
        per 128-position tile, padded by the 32-byte stagger
        (§III.B.2).
        """
        if not self.buffers_in_shared:
            return 0
        if self.version == 1:
            return self.chunk_size + self.threads_per_block * 48
        return self.window + self.threads_per_block + 32

    def with_overrides(self, **kwargs) -> "CompressionParams":
        """Functional update, e.g. ``params.with_overrides(window=256)``."""
        return replace(self, **kwargs)
