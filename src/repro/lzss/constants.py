"""Algorithm parameters fixed by the paper (§II.A, §III.D).

* ``MIN_MATCH = 3`` — "The minimum number of match is depending on the
  encoding of bits and in our case it is three" (§II.A.1): a 2-byte
  match costs as much as two uncoded literals.
* Serial/Pthread use Dipperstein's layout: 4 KiB window, 18-byte
  lookahead (12-bit offset + 4-bit length fields).
* GPU work is distributed in 4 KiB chunks ("Our implementation uses a
  4KB block size ... a reasonable choice for an average size of a
  network packet", §III.D/§V) with 128 threads per block ("128 threads
  per block configuration is giving the best performance").
* CULZSS V1: the block's 4 KiB chunk is divided among its threads
  ("each thread in a block is responsible for its chunk, resulting
  number of threads of chunks per block") — 32-byte parse slices, the
  whole chunk visible as the search window from shared memory.
* CULZSS V2 uses a 128-byte per-thread window — "we get the best
  performance with the window buffer size of 128 bytes" (§III.D) —
  matched to its 16-bit extended-offset token.
"""

from __future__ import annotations

MIN_MATCH = 3

SERIAL_WINDOW = 4096
SERIAL_LOOKAHEAD = 18  # max match length for the 4-bit length field

CUDA_WINDOW = 128  # V2's per-thread search window
CUDA_CHUNK_SIZE = 4096
DEFAULT_THREADS_PER_BLOCK = 128

#: CULZSS V1 keeps Dipperstein's 4-bit length field (max match 18);
#: V2 spends a full byte on the length ("16 bit encoding space with
#: extended offset", §III.D).  The field could express 258 but the
#: kernel's 64-byte extended lookahead view caps matches at 66.
V2_MAX_MATCH = MIN_MATCH + 64 - 1  # 66
