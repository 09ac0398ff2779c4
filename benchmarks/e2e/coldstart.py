"""One cold start of a library workload, timed from inside a fresh process.

Run by ``workloads.library_cold_start``::

    python benchmarks/e2e/coldstart.py compress|decompress|auto VERSION < input

Times the import of :mod:`repro.core` plus the workload's first call on
the bytes read from stdin (the input buffer, or for ``decompress`` the
container to decode), then writes the seconds on one line followed by
the call's output bytes, which the parent checks.
"""

from __future__ import annotations

import sys
from time import perf_counter


def main() -> None:
    workload, version = sys.argv[1], int(sys.argv[2])
    data = sys.stdin.buffer.read()
    t0 = perf_counter()
    from repro import core

    if workload == "compress":
        out = core.gpu_compress(
            data, core.CompressionParams(version=version)).data
    elif workload == "decompress":
        out = core.gpu_decompress(data).data
    elif workload == "auto":
        out = core.gpu_decompress(core.gpu_compress(data, codec="auto").data).data
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    seconds = perf_counter() - t0
    sys.stdout.buffer.write(f"{seconds!r}\n".encode() + out)


if __name__ == "__main__":
    main()
