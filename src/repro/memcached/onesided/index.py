"""The server-side exported bucket index.

:class:`ExportedIndex` pins one RDMA-readable region (layout in
:mod:`repro.memcached.onesided.layout`) and keeps it coherent with the
:class:`~repro.memcached.store.ItemStore` write path: every link,
unlink, touch and flush calls back into the index (a value never changes
in place: a new value is a new item, published afresh), and
every entry mutation follows the seqlock discipline -- bump the
version to odd (:meth:`seq_begin`) before touching any other field,
bump back to even (:meth:`seq_end`) after.  The version strictly
increases, so a remote reader that fetched the entry, then the value,
then the entry again can detect any interleaved mutation.

The index is direct-mapped and last-writer-wins: publishing a key whose
bucket is held by a different key displaces it.  That is always safe --
a client that finds a foreign (or empty) hash falls back to the RPC
path, which is authoritative -- and it keeps the server-side cost of
coherence O(1) per store mutation with no probing chains to maintain.

Eviction and slab reuse safety: :meth:`unpublish` runs *before* the
store frees the item's chunk, so no live entry ever references a free
(or re-carved) chunk.  ``repro.sanitize.export.ExportSanitizer`` checks
exactly that invariant, plus mirror/region coherence, at checkpoints.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.memcached.onesided.layout import (
    DEFAULT_BUCKETS,
    ENTRY_BYTES,
    HEADER_BYTES,
    IndexEntry,
    entry_offset,
    hash64,
    pack_entry,
    pack_header,
)
from repro.verbs.enums import Access
from repro.verbs.mr import RegionDescriptor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.memcached.items import Item
    from repro.memcached.store import ItemStore
    from repro.verbs.mr import ProtectionDomain


@dataclass(frozen=True)
class IndexDescriptor:
    """Out-of-band advertisement a client needs to probe the index."""

    region: RegionDescriptor
    n_buckets: int

    @property
    def index_rkey(self) -> int:
        return self.region.rkey


class ExportedIndex:
    """See module docstring."""

    #: Read by the descriptor and the export sanitizer.
    n_buckets = DEFAULT_BUCKETS

    def __init__(self, store: "ItemStore", pd: "ProtectionDomain") -> None:
        self.store = store
        self.pd = pd
        #: The pinned region remote clients probe with RDMA READ.
        self.mr = pd.reg_mr(HEADER_BYTES + DEFAULT_BUCKETS * ENTRY_BYTES, Access.full())
        self.mr.write(0, pack_header(DEFAULT_BUCKETS))
        #: Python-side mirror of every packed entry (authoritative for
        #: the server; re-packed into ``mr`` at each seq_end).
        self._mirror = [IndexEntry() for _ in range(DEFAULT_BUCKETS)]
        #: The item currently published in each bucket (None = empty).
        self._owner: list[Optional["Item"]] = [None] * DEFAULT_BUCKETS
        self.publishes = 0
        self.unpublishes = 0
        store.onesided = self

    @property
    def descriptor(self) -> IndexDescriptor:
        return IndexDescriptor(region=self.mr.describe(), n_buckets=self.n_buckets)

    def bucket_for(self, key: str) -> int:
        return hash64(key) % self.n_buckets

    def owner(self, bucket: int) -> Optional["Item"]:
        return self._owner[bucket]

    def entry_bytes(self, bucket: int) -> bytes:
        """The exported 64-byte slot as a remote reader would see it."""
        return self.mr.read(entry_offset(bucket), ENTRY_BYTES)

    def mirror_entry(self, bucket: int) -> IndexEntry:
        return self._mirror[bucket]

    # -- the seqlock -----------------------------------------------------------

    def seq_begin(self, bucket: int) -> None:
        """Bump-to-odd: mark the exported entry mid-mutation."""
        slot = self._mirror[bucket]
        if slot.version % 2:
            raise AssertionError(f"seq_begin on bucket {bucket} already mid-mutation")
        slot.version += 1
        self.mr.write(entry_offset(bucket), struct.pack("<Q", slot.version))

    def seq_end(self, bucket: int) -> None:
        """Bump-to-even and expose the mirror's fields atomically."""
        slot = self._mirror[bucket]
        if slot.version % 2 == 0:
            raise AssertionError(f"seq_end on bucket {bucket} without seq_begin")
        slot.version += 1
        self.mr.write(entry_offset(bucket), pack_entry(slot))

    # -- store-facing coherence hooks ------------------------------------------

    def publish(self, item: "Item") -> None:
        """Expose *item* in its bucket (displacing any current holder)."""
        value_mr, value_offset = item.chunk.rdma_location()
        bucket = self.bucket_for(item.key)
        slot = self._mirror[bucket]
        self.seq_begin(bucket)
        slot.key_hash = hash64(item.key)
        slot.value_rkey = value_mr.rkey
        slot.value_offset = value_offset
        slot.value_length = item.value_length
        slot.flags = item.flags
        slot.cas = item.cas
        slot.deadline_us = self._deadline_us(item)
        self.seq_end(bucket)
        self._owner[bucket] = item
        self.publishes += 1

    def unpublish(self, item: "Item") -> None:
        """Invalidate *item*'s entry; must run before its chunk is freed."""
        bucket = self.bucket_for(item.key)
        if self._owner[bucket] is not item:
            return  # displaced earlier: the bucket belongs to someone else
        self._clear(bucket)
        self.unpublishes += 1

    def ensure(self, item: "Item") -> None:
        """Re-expose *item* if its bucket is empty or held by another key
        (collision takeover / republish after a flush invalidation)."""
        if self._owner[self.bucket_for(item.key)] is not item:
            self.publish(item)

    def invalidate_all(self) -> None:
        """Drop every entry (the ``flush_all`` hook).  Conservative for
        delayed flushes: still-servable items fall back to RPC until a
        later hit republishes them."""
        for bucket, owner in enumerate(self._owner):
            if owner is not None:
                self._clear(bucket)

    def _clear(self, bucket: int) -> None:
        slot = self._mirror[bucket]
        self.seq_begin(bucket)
        slot.key_hash = 0
        slot.value_rkey = 0
        slot.value_offset = 0
        slot.value_length = 0
        slot.flags = 0
        slot.cas = 0
        slot.deadline_us = 0
        self.seq_end(bucket)
        self._owner[bucket] = None

    def _deadline_us(self, item: "Item") -> int:
        """Fold exptime and any pending flush horizon into one absolute
        µs deadline, rounded down (never later than server-side expiry)."""
        deadline = 0
        if item.exptime != 0.0:
            deadline = 1 if item.exptime < 0 else max(1, int(item.exptime * 1e6))
        flush_before = self.store._flush_before
        if flush_before > item.created_at:
            flush_us = max(1, int(flush_before * 1e6))
            deadline = flush_us if deadline == 0 else min(deadline, flush_us)
        return deadline

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        held = sum(1 for o in self._owner if o is not None)
        return f"<ExportedIndex {held}/{self.n_buckets} buckets live>"
