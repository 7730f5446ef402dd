"""One-sided RDMA GET: exported versioned index + direct-READ client.

The server half (:mod:`~repro.memcached.onesided.index`) pins a
fixed-layout, window-associative index kept coherent with the store's
write path under a seqlock version discipline, and stamps each
published value with its entry's version; the client half
(:mod:`~repro.memcached.onesided.client`) is a transport whose
``execute`` serves single-key GET/gets with RDMA READs against it (a
hit of a remembered entry is one READ of the value and its stamp),
falling back to the active-message RPC path whenever the index cannot
prove the answer.  See ``docs/ONESIDED.md``.
"""

from repro.memcached.onesided.client import (
    DEFAULT_MAX_ONESIDED_BYTES,
    OneSidedTransport,
)
from repro.memcached.onesided.index import ExportedIndex, IndexDescriptor
from repro.memcached.onesided.layout import (
    DEFAULT_BUCKETS,
    ENTRY_BYTES,
    ENTRY_FORMAT,
    HEADER_BYTES,
    INDEX_MAGIC,
    STAMP_BYTES,
    STAMP_FORMAT,
    WINDOW,
    IndexEntry,
    entry_offset,
    hash64,
    pack_entry,
    pack_header,
    unpack_entry,
    unpack_header,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "DEFAULT_MAX_ONESIDED_BYTES",
    "ENTRY_BYTES",
    "ENTRY_FORMAT",
    "ExportedIndex",
    "HEADER_BYTES",
    "INDEX_MAGIC",
    "IndexDescriptor",
    "IndexEntry",
    "OneSidedTransport",
    "STAMP_BYTES",
    "STAMP_FORMAT",
    "WINDOW",
    "entry_offset",
    "hash64",
    "pack_entry",
    "pack_header",
    "unpack_entry",
    "unpack_header",
]
