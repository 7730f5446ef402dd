"""The server-side exported bucket index.

:class:`ExportedIndex` pins one RDMA-readable region (layout in
:mod:`repro.memcached.onesided.layout`), publishes the store's linked
items into it, and from then on keeps it coherent with the
:class:`~repro.memcached.store.ItemStore` write path: every link,
unlink, touch and flush calls back into the index (a value never changes
in place: a new value is a new item, published afresh), and
every entry mutation follows the seqlock discipline -- bump the
version to odd (:meth:`seq_begin`) before touching any other field,
bump back to even (:meth:`seq_end`) after.  The version strictly
increases, so a changed version names any interleaved mutation.

The region is the index: the server keeps no other copy of an entry
and decides from the bytes a remote reader fetches.  :meth:`seq_end` is
the one writer of entry fields: it writes the whole entry from the item
it publishes, or empties it.  Both helpers read the slot's entry from
the region once; :meth:`seq_begin` writes back only the bumped version
word, in the entry and in the stamp, and both also write the *stamp* --
the entry's ``(version, key_hash, cas)``, cut from the packed entry by
:func:`~repro.memcached.onesided.layout.stamp_of` as a client cuts it --
right behind the value the entry names (odd while the bracket is open);
:meth:`seq_end` zeroes the stamp of a value the entry stops naming.  So
a stamp is valid only while its item is published under exactly that
version, and a remote reader that fetched the value and the stamp
behind it in one READ, and found the stamp equal to the entry it used,
read that entry's value.  No side table names an entry's item: its
value location ``(value_rkey, value_offset)`` does, because a chunk a
live entry names is never freed (below).

The index is window-associative (hopscotch hashing without the moves):
a key may sit in any of ``WINDOW`` slots from its home bucket on, and
:meth:`publish` takes the slot that already holds the key's hash, else
the first empty slot, else the home slot -- last-writer-wins when the
window is full.  It picks the slot in one pass over the window's
``key_hash`` fields (:func:`~repro.memcached.onesided.layout.place_slot`).  Displacement is
always safe -- a client that finds no slot with its key's hash falls
back to the RPC path, which is authoritative -- and nothing is ever
moved, so the server-side cost of coherence stays one window scan per
store mutation.

Eviction and slab reuse safety: :meth:`unpublish` runs *before* the
store frees the item's chunk, so no live entry ever references a free
(or re-carved) chunk, and no freed chunk carries a valid stamp.
``repro.sanitize.export.ExportSanitizer`` checks exactly that
invariant, plus entry/stamp coherence, at checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Optional

from repro.memcached.onesided.layout import (
    DEFAULT_BUCKETS,
    ENTRY,
    ENTRY_BYTES,
    HELD,
    STAMP_BYTES,
    VERSION,
    WINDOW,
    WINDOW_BYTES,
    entry_offset,
    find_value,
    hash64,
    occupied,
    pack_header,
    place_slot,
    region_bytes,
    stamp_of,
)
from repro.verbs.enums import Access
from repro.verbs.mr import RegionDescriptor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.memcached.items import Item
    from repro.memcached.store import ItemStore


@dataclass(frozen=True)
class IndexDescriptor:
    """Out-of-band advertisement a client needs to probe the index."""

    region: RegionDescriptor
    n_buckets: int

    @property
    def index_rkey(self) -> int:
        return self.region.rkey


#: A cleared stamp: its zero key hash matches no entry a client holds.
_NO_STAMP = bytes(STAMP_BYTES)
#: An empty entry's bytes behind its version word.
_EMPTY_FIELDS = bytes(ENTRY_BYTES - VERSION.size)
#: :func:`hash64` remembering the key it hashed last, so a publish's
#: window scan and its :meth:`ExportedIndex.seq_end` hash the key once.
_key_hash = lru_cache(maxsize=1)(hash64)


class ExportedIndex:
    """See module docstring."""

    #: Read by the descriptor and the export sanitizer.
    n_buckets = DEFAULT_BUCKETS

    def __init__(self, store: "ItemStore") -> None:
        self.store = store
        #: Resolves the value location an entry names (its stamp's home).
        self.pd = store.slabs.pd
        #: Every bucket's slot plus the spill slots behind the last window.
        self.n_slots = self.n_buckets + WINDOW - 1
        #: The pinned region remote clients probe with RDMA READ.
        self.mr = self.pd.reg_mr(region_bytes(self.n_buckets), Access.full())
        self.mr.write(0, pack_header(self.n_buckets))
        self.publishes = 0
        self.unpublishes = 0
        store.onesided = self
        # In link order, as the write path would have; a flush cleared the rest.
        for item in store.by_key.values():
            if item.created_at >= store._flush_before:
                self.publish(item)

    @property
    def descriptor(self) -> IndexDescriptor:
        return IndexDescriptor(region=self.mr.describe(), n_buckets=self.n_buckets)

    def bucket_for(self, key: str) -> int:
        """*key*'s home bucket: the first slot of its window."""
        return _key_hash(key) % self.n_buckets

    def slot_of(self, item: "Item") -> Optional[int]:
        """The slot *item* is published in, or None (never published,
        displaced, or invalidated): the slot of its window whose entry
        carries its key hash and its chunk's location."""
        key_hash = _key_hash(item.key)
        home = key_hash % self.n_buckets
        mr, offset = item.chunk.rdma_location()
        at = find_value(self._window(home), key_hash, mr.rkey, offset)
        return None if at is None else home + at

    def published(self, key: str) -> Optional[tuple[int, bytes]]:
        """``(position in its window, exported 64 bytes)`` of the slot
        *key*'s linked item is published in, or None."""
        item = self.store.by_key.get(key)
        slot = self.slot_of(item) if item is not None else None
        if slot is None:
            return None
        return slot - self.bucket_for(key), self.entry_bytes(slot)

    def entry_bytes(self, slot: int) -> bytes:
        """The exported 64-byte slot as a remote reader would see it."""
        return self.mr.read(entry_offset(slot), ENTRY_BYTES)

    def _slots(self) -> bytes:
        """Every slot, in one read of the region."""
        return self.mr.read(entry_offset(0), self.n_slots * ENTRY_BYTES)

    def _window(self, home: int) -> bytes:
        """The ``WINDOW`` slots from *home*, as a first GET READs them."""
        return self.mr.read(entry_offset(home), WINDOW_BYTES)

    # -- the seqlock -----------------------------------------------------------

    def seq_begin(self, slot: int) -> None:
        """Bump-to-odd: mark the exported entry, and the stamp of the
        value it names, mid-mutation (an odd stamp matches no stable
        entry).  Only the version word changes, in both: the stamp's
        key_hash and cas are already the entry's."""
        at = entry_offset(slot)
        version, key_hash, rkey, offset, length = HELD.unpack_from(
            self.mr.read(at, ENTRY_BYTES))
        if version % 2:
            raise AssertionError(f"seq_begin on slot {slot} already mid-mutation")
        odd = VERSION.pack(version + 1)
        self.mr.write(at, odd)
        if key_hash:
            self._stamp_at(rkey, offset + length, odd)

    def seq_end(self, slot: int, item: Optional["Item"]) -> None:
        """Write the entry from *item* (None empties the slot), bump to
        even and expose it atomically, and stamp *item*'s value.  A value
        the entry stops naming gets its stamp zeroed."""
        at = entry_offset(slot)
        version, key_hash, rkey, offset, length = HELD.unpack_from(
            self.mr.read(at, ENTRY_BYTES))
        if not version % 2:
            raise AssertionError(f"seq_end on slot {slot} without seq_begin")
        if item is None:
            if key_hash:
                self._stamp_at(rkey, offset + length, _NO_STAMP)
            self.mr.write(at, VERSION.pack(version + 1) + _EMPTY_FIELDS)
            return
        mr, value_offset = item.chunk.rdma_location()
        if key_hash and (rkey, offset) != (mr.rkey, value_offset):
            self._stamp_at(rkey, offset + length, _NO_STAMP)
        raw = ENTRY.pack(version + 1, _key_hash(item.key), mr.rkey, value_offset,
                         item.value_length, item.flags, item.cas, self._deadline_us(item))
        self.mr.write(at, raw)
        self._stamp_at(mr.rkey, value_offset + item.value_length, stamp_of(raw))

    def _stamp_at(self, rkey: int, at: int, raw: bytes) -> None:
        """Write *raw* at byte *at* of region *rkey*: into the stamp
        behind a value an entry names."""
        self.pd.lookup_rkey(rkey).write(at, raw)

    # -- store-facing coherence hooks ------------------------------------------

    def publish(self, item: "Item") -> None:
        """Expose *item* in its window: the slot already holding its key's
        hash, else the first empty slot, else the home slot (displacing
        the holder)."""
        key_hash = _key_hash(item.key)
        home = key_hash % self.n_buckets
        slot = home + place_slot(self._window(home), key_hash)
        self.seq_begin(slot)
        self.seq_end(slot, item)
        self.publishes += 1

    def unpublish(self, item: "Item") -> None:
        """Invalidate *item*'s entry; must run before its chunk is freed."""
        slot = self.slot_of(item)
        if slot is None:
            return  # displaced earlier: no slot of its window is its own
        self._clear(slot)
        self.unpublishes += 1

    def ensure(self, item: "Item") -> None:
        """Re-expose *item* if no slot of its window holds it (collision
        takeover / republish after a flush invalidation)."""
        if self.slot_of(item) is None:
            self.publish(item)

    def invalidate_all(self) -> None:
        """Drop every live entry (the ``flush_all`` hook).  Conservative
        for delayed flushes: still-servable items fall back to RPC until
        a later hit republishes them."""
        for slot in occupied(self._slots()):
            self._clear(slot)

    def _clear(self, slot: int) -> None:
        """Empty *slot*; its :meth:`seq_end` zeroes the value's stamp."""
        self.seq_begin(slot)
        self.seq_end(slot, None)

    def stamp(self, item: "Item") -> bytes:
        """The 24 bytes behind *item*'s value, as a remote reader sees them."""
        mr, offset = item.chunk.rdma_location()
        return mr.read(offset + item.value_length, STAMP_BYTES)

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
        held = len(occupied(self._slots()))
        return (
            f"<ExportedIndex {held}/{self.n_slots} slots live, "
            f"{self.n_buckets} buckets, window {WINDOW}>"
        )
