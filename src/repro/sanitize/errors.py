"""Sanitizer error types.

All sanitizer failures derive from :class:`SanitizerError`, which is an
``AssertionError`` subclass on purpose: the UCR data path converts
``RuntimeError`` into endpoint failures (fault isolation), and a
sanitizer firing must *not* be absorbed that way -- it should blow the
test up, exactly like a failed ``assert``.
"""

from __future__ import annotations


class SanitizerError(AssertionError):
    """Base class for all runtime-sanitizer violations."""


class BufferSanitizerError(SanitizerError):
    """A pooled-buffer lifecycle violation (use/write after release)."""


class CqSanitizerError(SanitizerError):
    """A completion-queue overflow or a WQE posted to a wrong-state QP."""


class DeterminismError(SanitizerError):
    """Two runs of the same scenario produced different event streams."""


class SlabAccountingError(SanitizerError):
    """Slab/item byte accounting diverged from the live item population."""


class ExportIndexError(SanitizerError):
    """The exported one-sided index diverged from the live store (stale
    or torn entry, live entry over a freed chunk, missing or stale stamp)."""
