"""Slab-accounting sanitizer.

Cross-checks the memcached store's key index, per-class LRUs and
byte/item statistics against each other and the slab allocator's ground
truth.  The linked items are the ones in the index.  Invariants:

1. every item in the index is linked and filed under its own key;
2. every linked item sits in exactly one class LRU, the one for its
   chunk's class, and the LRUs hold nothing else;
3. ``stats.curr_items`` equals both the index size and the summed LRU
   sizes;
4. ``stats.bytes`` equals the summed footprint of all linked items;
5. every linked item's chunk is marked used, and no two items share one;
6. no chunk on a free list is marked used;
7. ``allocated_bytes`` equals pages handed out times the page size;
8. per class, used chunks (total - free) are exactly the linked items
   stored there, plus the reservations not yet stored or abandoned
   (``ItemStore.reservations``), plus the frees waiting for a reader's
   unpin -- a reservation nobody stores or abandons is a leaked chunk;
9. per class, ``total_chunks`` equals ``total_pages * chunks_per_page``
   -- page reassignment (the slab rebalancer) must move a page's worth
   of chunks atomically, so a mover that leaks the donor's chunks (a
   double-free in the making) breaks conservation immediately;
10. every chunk a reader has pinned (a zero-copy reply in flight) is
    marked used, and every chunk whose free waits for its last unpin is
    still pinned -- no chunk is freed or re-carved under a read.

Drift in any of these is how a slab double-free, a missed
``stats.bytes`` update or an unlink that reached only one of the two
structures first becomes visible.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.memcached.slabs import PAGE_BYTES
from repro.sanitize.errors import SlabAccountingError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.counters import SanitizerCounters
    from repro.memcached.store import ItemStore


class SlabSanitizer:
    """Checkpoint validator for :class:`~repro.memcached.store.ItemStore`."""

    __slots__ = ("counters", "strict")

    def __init__(
        self, counters: Optional["SanitizerCounters"] = None, strict: bool = True
    ) -> None:
        self.counters = counters
        self.strict = strict

    def check(self, store: "ItemStore") -> list[str]:
        """Validate *store*; returns violations (raises them when strict)."""
        violations: list[str] = []
        live = list(store.by_key.values())

        for key, item in store.by_key.items():
            if not item.linked:
                violations.append(f"index holds unlinked item {item.key!r}")
            if item.key != key:
                violations.append(f"index files item {item.key!r} under {key!r}")
            if item not in store.lrus[item.chunk.slab_class.class_id]:
                violations.append(f"item {key!r} is missing from its class LRU")
        for class_id, lru in enumerate(store.lrus):
            for item in lru:
                if item.chunk.slab_class.class_id != class_id:
                    violations.append(
                        f"class {class_id} LRU holds {item.key!r} of class "
                        f"{item.chunk.slab_class.class_id}"
                    )
                if store.by_key.get(item.key) is not item:
                    violations.append(
                        f"class {class_id} LRU holds {item.key!r}, which the index does not"
                    )

        if store.stats.curr_items != len(live):
            violations.append(
                f"stats.curr_items={store.stats.curr_items} but {len(live)} items indexed"
            )
        in_lrus = sum(len(lru) for lru in store.lrus)
        if store.stats.curr_items != in_lrus:
            violations.append(
                f"stats.curr_items={store.stats.curr_items} but the LRUs hold {in_lrus}"
            )
        live_bytes = sum(item.total_bytes for item in live)
        if store.stats.bytes != live_bytes:
            violations.append(
                f"stats.bytes={store.stats.bytes} but live items sum to {live_bytes}"
            )

        seen_chunks: dict[int, str] = {}
        for item in live:
            chunk = item.chunk
            if not chunk.used:
                violations.append(f"item {item.key!r} holds a chunk marked free")
            owner = seen_chunks.setdefault(id(chunk), item.key)
            if owner != item.key:
                violations.append(
                    f"items {owner!r} and {item.key!r} share one slab chunk"
                )

        allocator = store.slabs
        pages = sum(cls.total_pages for cls in allocator.classes)
        if allocator.allocated_bytes != pages * PAGE_BYTES:
            violations.append(
                f"allocated_bytes={allocator.allocated_bytes} but "
                f"{pages} pages were carved ({pages * PAGE_BYTES} bytes)"
            )

        held_per_class = list(store.reservations)
        for chunk in [item.chunk for item in live] + list(allocator.deferred_frees):
            held_per_class[chunk.slab_class.class_id] += 1
        for cls in allocator.classes:
            for chunk in cls.free_chunks:
                if chunk.used:
                    violations.append(
                        f"class {cls.class_id}: used chunk on the free list"
                    )
                    break
            used = cls.total_chunks - len(cls.free_chunks)
            held = held_per_class[cls.class_id]
            if used != held:
                violations.append(
                    f"class {cls.class_id}: {used} chunks in use but {held} held "
                    f"(linked + {store.reservations[cls.class_id]} reserved + deferred frees)"
                )
            expected = cls.total_pages * cls.chunks_per_page
            if cls.total_chunks != expected:
                violations.append(
                    f"class {cls.class_id}: {cls.total_chunks} chunks but "
                    f"{cls.total_pages} pages x {cls.chunks_per_page} "
                    f"per page = {expected} (page reassignment leak?)"
                )

        for chunk in allocator.pins:
            if not chunk.used:
                violations.append(
                    f"class {chunk.slab_class.class_id}: a pinned chunk is marked free"
                )
        for chunk in allocator.deferred_frees:
            if chunk not in allocator.pins:
                violations.append(
                    f"class {chunk.slab_class.class_id}: a deferred free outlived its pins"
                )

        if self.counters is not None:
            self.counters.slab_checks += 1
            self.counters.slab_violations += len(violations)
        if violations and self.strict:
            raise SlabAccountingError("; ".join(violations))
        return violations
