"""Conversions between the byte-buffer types the public API accepts.

The in-memory API mirrors the paper's ``Gpu_compress(buffer, ...)``
interface: callers hand in whatever buffer they have (``bytes``,
``bytearray``, ``memoryview``, or a ``uint8`` NumPy array) and internally
everything is a contiguous ``np.uint8`` array so the vectorized kernels
can run on it without copies where possible.
"""

from __future__ import annotations

import numpy as np

__all__ = ["as_bytes", "as_u8"]

BufferLike = bytes | bytearray | memoryview | np.ndarray


def as_u8(data: BufferLike) -> np.ndarray:
    """View/convert ``data`` as a contiguous 1-D uint8 array.

    ``bytes`` input is zero-copy (read-only view); NumPy input must be
    1-D uint8 or convertible without reinterpretation surprises.
    """
    if isinstance(data, np.ndarray):
        if data.dtype != np.uint8:
            raise TypeError(f"expected uint8 array, got {data.dtype}")
        if data.ndim != 1:
            raise ValueError(f"expected 1-D array, got shape {data.shape}")
        return np.ascontiguousarray(data)
    if isinstance(data, (bytes, bytearray, memoryview)):
        return np.frombuffer(bytes(data) if isinstance(data, memoryview) else data,
                             dtype=np.uint8)
    raise TypeError(f"unsupported buffer type {type(data).__name__}")


def as_bytes(data: BufferLike) -> bytes:
    """Return ``data`` as immutable ``bytes``."""
    if isinstance(data, bytes):
        return data
    if isinstance(data, (bytearray, memoryview)):
        return bytes(data)
    if isinstance(data, np.ndarray):
        return as_u8(data).tobytes()
    raise TypeError(f"unsupported buffer type {type(data).__name__}")
