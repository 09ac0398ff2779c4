"""Typed error taxonomy for the whole reproduction.

Every failure the system can diagnose raises a :class:`ReproError`
subclass instead of a bare ``ValueError``/``struct.error``, so callers
can tell *what* went wrong (and often *where*) without parsing
messages:

- :class:`CorruptHeaderError` — a container or frame header failed its
  self-check; nothing after it can be trusted, so there is nothing to
  salvage.
- :class:`TruncatedContainerError` — the blob ends before the format
  says it should; carries the expected and actual byte counts.
- :class:`CorruptChunkError` — one chunk of a chunked container failed
  its CRC or produced an impossible token stream; carries the chunk
  index (and payload offset / token position when known), which is what
  makes per-chunk salvage possible.
- :class:`CorruptPayloadError` — a whole-payload checksum mismatch on
  a container without per-chunk CRCs (v1): corruption is certain but
  cannot be localized.
- :class:`FrameError` — a malformed, corrupted, or truncated gateway
  protocol frame (re-parented here from ``repro.service.protocol``).

A process-pool worker dying is not in the taxonomy: the service
pipelines catch the standard library's ``BrokenExecutor`` and re-run
the frame (``docs/robustness.md`` §3).

:class:`ReproError` deliberately subclasses :class:`ValueError`: the
pre-taxonomy API raised ``ValueError`` everywhere, so existing
``except ValueError`` call sites keep working unchanged.
"""

from __future__ import annotations

__all__ = [
    "ContainerError",
    "CorruptChunkError",
    "CorruptHeaderError",
    "CorruptPayloadError",
    "FrameError",
    "ReproError",
    "TruncatedContainerError",
]


class ReproError(ValueError):
    """Root of the taxonomy (a ``ValueError`` for backwards compat)."""


class ContainerError(ReproError):
    """Any defect detected while parsing or decoding a container."""


class CorruptHeaderError(ContainerError):
    """The fixed header failed validation (magic, version, CRC, or
    internally inconsistent fields); the blob cannot be salvaged."""


class TruncatedContainerError(ContainerError):
    """The blob is shorter than its format declares.

    ``expected``/``actual`` are byte counts when known (``None``
    otherwise); the message always spells them out.
    """

    def __init__(self, message: str, *, expected: int | None = None,
                 actual: int | None = None) -> None:
        if expected is not None and actual is not None:
            message = f"{message} (expected >= {expected} bytes, got {actual})"
        super().__init__(message)
        self.expected = expected
        self.actual = actual


class CorruptChunkError(ContainerError):
    """One chunk of a chunked container is bad.

    ``chunk_index`` names the chunk; ``offset`` is the chunk's byte
    offset within the compressed payload and ``token_position`` the
    failing token index within the chunk's stream, when known.
    """

    def __init__(self, message: str, *, chunk_index: int,
                 offset: int | None = None,
                 token_position: int | None = None) -> None:
        super().__init__(f"chunk {chunk_index}: {message}")
        self.chunk_index = chunk_index
        self.offset = offset
        self.token_position = token_position


class CorruptPayloadError(ContainerError):
    """Whole-payload checksum mismatch (no per-chunk CRCs to localize)."""


class FrameError(ReproError):
    """A malformed, corrupted, or truncated gateway protocol frame."""
