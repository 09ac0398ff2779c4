"""Codec interface and registry — the per-chunk pluggability contract.

The paper's container (§III.C) already records a compressed size per
chunk, which makes the *codec* a per-chunk decision too: any coder
that can turn one chunk of bytes into a self-contained payload and
back can slot into the same container, engine sharding, salvage and
service layers.  This module pins that contract down:

* :class:`Codec` — the ABC every concrete coder implements:
  ``encode_run`` (a run of chunks in one pass; ``encode_chunk`` is
  that run over a single chunk) and ``decode_chunk``, plus a stable
  wire ``codec_id`` (one byte in the container v3 codec column).
* a process-global registry mapping both names (CLI, service
  negotiation) and wire ids (container column) to codec instances.

Codec ids are wire format: they appear verbatim in container v3 blobs
and in gateway negotiation frames, so they are assigned once and never
reused.  Id ``0`` is deliberately invalid — a zeroed codec column
reads as corruption, not as ``store``.
"""

from __future__ import annotations

import abc
from typing import ClassVar

import numpy as np

from repro.lzss.formats import TokenFormat
from repro.util.validation import require

__all__ = [
    "Codec",
    "codec_names",
    "get_codec",
    "known_codec_ids",
    "register_codec",
]


class Codec(abc.ABC):
    """One chunk-granular compression scheme.

    A codec maps one chunk of raw bytes to one self-contained payload
    and back.  Payloads never reference anything outside their chunk,
    which is what keeps container chunks independently decodable (and
    salvageable) regardless of which codec produced each one.

    Class attributes
    ----------------
    name:
        Registry / CLI / negotiation identifier (kebab-case).
    codec_id:
        Stable one-byte wire id recorded in the container v3 codec
        column.  Never reused across codecs.
    """

    name: ClassVar[str]
    codec_id: ClassVar[int]

    @abc.abstractmethod
    def encode_run(self, data: np.ndarray, fmt: TokenFormat,
                   chunk_size: int) -> tuple[bytes, np.ndarray]:
        """Encode consecutive chunks; returns (payload, per-chunk sizes).

        ``data`` is chunk-major: every chunk ``chunk_size`` bytes but
        the last, which may be short.  The payload is the chunks'
        self-contained payloads end to end, byte-identical to encoding
        each chunk on its own; doing the whole run in one NumPy pass is
        what the dispatcher, which groups chunks by codec, relies on.
        A codec that searches matches picks its own chain depth.
        """

    def encode_chunk(self, chunk: np.ndarray, fmt: TokenFormat) -> bytes:
        """Compress one chunk (uint8 array) to a self-contained payload:
        :meth:`encode_run` over the chunk alone."""
        if chunk.size == 0:
            return b""
        payload, _sizes = self.encode_run(chunk, fmt, int(chunk.size))
        return payload

    @abc.abstractmethod
    def decode_chunk(self, payload: np.ndarray, fmt: TokenFormat,
                     output_size: int, *, chunk_index: int = 0) -> np.ndarray:
        """Recover exactly ``output_size`` bytes from one chunk payload.

        Raises :class:`repro.errors.CorruptChunkError` (carrying
        ``chunk_index``) when the payload cannot produce a stream of
        the declared size — the hook per-chunk salvage relies on.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Codec {self.name} id={self.codec_id}>"


_BY_NAME: dict[str, Codec] = {}
_BY_ID: dict[int, Codec] = {}


def register_codec(codec: Codec) -> Codec:
    """Add a codec to the global registry (name and wire id unique)."""
    require(1 <= codec.codec_id <= 255,
            f"codec_id must be in [1, 255], got {codec.codec_id}")
    prev = _BY_NAME.get(codec.name)
    if prev is not None and type(prev) is not type(codec):
        raise ValueError(f"codec name {codec.name!r} already registered")
    prev_id = _BY_ID.get(codec.codec_id)
    if prev_id is not None and type(prev_id) is not type(codec):
        raise ValueError(f"codec id {codec.codec_id} already registered")
    _BY_NAME[codec.name] = codec
    _BY_ID[codec.codec_id] = codec
    return codec


def get_codec(key: str | int) -> Codec:
    """Look a codec up by registry name or wire id."""
    table: dict = _BY_ID if isinstance(key, (int, np.integer)) else _BY_NAME
    codec = table.get(int(key) if isinstance(key, np.integer) else key)
    if codec is None:
        known = ", ".join(sorted(_BY_NAME))
        raise KeyError(f"unknown codec {key!r} (registered: {known})")
    return codec


def codec_names() -> tuple[str, ...]:
    """Registered codec names, sorted by wire id (stable CLI order)."""
    return tuple(c.name for _, c in sorted(_BY_ID.items()))


def known_codec_ids() -> frozenset[int]:
    """The set of wire ids a container codec column may legally carry."""
    return frozenset(_BY_ID)


def metric_key(name: str) -> str:
    """Spelling of a codec name inside ``codec.*`` metric names."""
    return name.replace("-", "_")
