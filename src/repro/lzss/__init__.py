"""LZSS algorithm substrate: token formats, matchers, encoders, decoders.

Layering (bottom → top):

* :mod:`repro.lzss.formats` — the three token layouts the paper uses
  (serial Dipperstein 12+4, CULZSS V1 8+4, CULZSS V2 8+8).
* :mod:`repro.lzss.reference` — pure-Python executable specification
  (brute-force matcher, scalar bit I/O).  Slow, obviously correct.
* :mod:`repro.lzss.lagmatch` — exact all-position longest-match kernel
  (the math of the CULZSS V2 GPU kernel), vectorized per lag.
* :mod:`repro.lzss.matcher` — hash-chain longest-match for the large
  serial window, vectorized candidate extension.
* :mod:`repro.lzss.parse` — greedy parse: all-position matches → token
  starts, via vectorized jump doubling, and the
  :class:`~repro.lzss.parse.Tokens` value every encoder emits from
  and every decoder reconstructs.
* :mod:`repro.lzss.encoder` / :mod:`repro.lzss.decoder` — fast
  production codecs built on the pieces above.
"""

from repro.lzss.constants import (
    CUDA_CHUNK_SIZE,
    CUDA_WINDOW,
    DEFAULT_THREADS_PER_BLOCK,
    MIN_MATCH,
    SERIAL_LOOKAHEAD,
    SERIAL_WINDOW,
)
from repro.lzss.decoder import (
    SalvageReport,
    decode,
    decode_chunked,
    decode_chunked_with_stats,
)
from repro.lzss.encoder import EncodeResult, encode, encode_chunked
from repro.lzss.formats import CUDA_V1, CUDA_V2, SERIAL, TokenFormat
from repro.lzss.lagmatch import lag_best_matches
from repro.lzss.matcher import hash_chain_best_matches, probe_incompressible
from repro.lzss.parse import greedy_token_starts
from repro.lzss.reference import (
    reference_decode,
    reference_encode,
    reference_find_match,
    reference_tokenize,
)
from repro.lzss.stats import EncodeStats

__all__ = [
    "CUDA_CHUNK_SIZE",
    "CUDA_V1",
    "CUDA_V2",
    "CUDA_WINDOW",
    "DEFAULT_THREADS_PER_BLOCK",
    "EncodeResult",
    "EncodeStats",
    "MIN_MATCH",
    "SERIAL",
    "SERIAL_LOOKAHEAD",
    "SERIAL_WINDOW",
    "SalvageReport",
    "TokenFormat",
    "decode",
    "decode_chunked",
    "decode_chunked_with_stats",
    "encode",
    "encode_chunked",
    "greedy_token_starts",
    "hash_chain_best_matches",
    "lag_best_matches",
    "probe_incompressible",
    "reference_decode",
    "reference_encode",
    "reference_find_match",
    "reference_tokenize",
]
