"""Test-support tooling: deterministic fault injection.

Everything in here exists to *break* the system on purpose, in
reproducible ways — see :mod:`repro.testing.faults` and
``docs/robustness.md`` for the cookbook.  Production code must not
import this package.
"""

from repro.testing.faults import (
    DEFAULT_CHAOS_SEEDS,
    CrashingExecutor,
    FlakyWriter,
    chaos_seed,
    corrupt_chunk_table,
    corrupt_chunks,
    crash_worker_job,
    flip_bits,
    tag_crash_buffer,
    truncate,
)

__all__ = [
    "DEFAULT_CHAOS_SEEDS",
    "CrashingExecutor",
    "FlakyWriter",
    "chaos_seed",
    "corrupt_chunk_table",
    "corrupt_chunks",
    "crash_worker_job",
    "flip_bits",
    "tag_crash_buffer",
    "truncate",
]
