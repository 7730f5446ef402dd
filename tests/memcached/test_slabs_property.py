"""Property-based tests for the store's per-class LRUs and the slab allocator.

These are the two structures eviction and slab rebalancing lean on, so
their invariants get the Hypothesis treatment:

- each class LRU orders its items exactly like a reference list under
  arbitrary interleavings of set/get/getl/delete/expire, eviction takes
  the coldest item of the class that needs room, and the store passes
  :class:`~repro.sanitize.slabs.SlabSanitizer` after every op;
- :class:`SlabAllocator` conserves chunks -- every class always holds
  ``total_pages * chunks_per_page`` chunks, allocation never exceeds
  ``max_bytes``, and ``reassign_page``/``reclaim_page`` move pages
  without leaking or duplicating chunks.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.memcached.items import ITEM_HEADER_OVERHEAD
from repro.memcached.slabs import (
    PAGE_BYTES,
    SlabAllocator,
    build_chunk_sizes,
)
from repro.memcached.store import RECLAIM_SCAN, ItemStore, StoreConfig
from repro.sanitize.slabs import SlabSanitizer
from repro.sim import Simulator


# Two slab classes, each held to the one page it claims first: 78 small
# items (more than the reclaim scan) and 3 large ones.  Keys of one class
# share a length, so each lands in its class exactly.
SMALL_KEYS = [f"s{i:02d}" for i in range(90)]
LARGE_KEYS = [f"L{i}" for i in range(5)]
VALUE_LENGTH = {"s": 12_000, "L": 300_000}

# One store op: (kind, key).  "fill" sets every key of *key*'s class in
# turn, so the small class reaches eviction too.
STORE_OPS = st.lists(
    st.tuples(
        st.sampled_from(["set", "get", "getl", "delete", "expire", "fill"]),
        st.sampled_from(SMALL_KEYS) | st.sampled_from(LARGE_KEYS),
    ),
    min_size=1,
    max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(STORE_OPS)
def test_store_lru_matches_reference_list(ops):
    """Each class LRU orders its items exactly like a reference list
    (coldest first) under any op sequence: a link or a get/getl hit moves
    the item to the MRU end, eviction reaps the first expired item among
    the RECLAIM_SCAN coldest or else takes the coldest, and pressure in
    one class never touches another."""
    store = ItemStore(Simulator(), StoreConfig(max_bytes=2 * PAGE_BYTES))
    reference: dict[int, list[str]] = {}  # class id -> keys, coldest first
    expired: set[str] = set()
    pressure = {"evicted": 0, "reclaimed": 0}

    def class_of(key: str) -> int:
        total = ITEM_HEADER_OVERHEAD + len(key) + VALUE_LENGTH[key[0]]
        return store.slabs.class_for(total).class_id

    def lru_of(key: str) -> list[str]:
        return reference.setdefault(class_of(key), [])

    def reap(key: str) -> None:
        lru_of(key).remove(key)
        expired.discard(key)

    def set_(key: str) -> None:
        lru = lru_of(key)
        store.set(key, bytes(VALUE_LENGTH[key[0]]))
        if key in lru:
            reap(key)  # unlinked first, freeing its own chunk
        elif len(lru) == store.slabs.classes[class_of(key)].chunks_per_page:
            victim = next((k for k in lru[:RECLAIM_SCAN] if k in expired), lru[0])
            pressure["reclaimed" if victim in expired else "evicted"] += 1
            reap(victim)
        lru.append(key)

    set_(SMALL_KEYS[0])  # each class claims its one page up front
    set_(LARGE_KEYS[0])
    for kind, key in ops:
        lru = lru_of(key)
        live = key in lru and key not in expired
        if kind == "set":
            set_(key)
        elif kind == "fill":
            for other in SMALL_KEYS if key in SMALL_KEYS else LARGE_KEYS:
                set_(other)
        elif kind in ("get", "getl"):
            hit = store.get(key) if kind == "get" else store.getl(key)[1]
            assert (hit is not None) == live
            if live:
                lru.remove(key)
                lru.append(key)
            elif key in lru and kind == "get":
                reap(key)  # a plain get lazily unlinks the expired item
            # getl leaves an expired ghost where it is (LRU-neutral).
        elif kind == "delete":
            assert store.delete(key) == live
            if key in lru:
                reap(key)
        else:  # expire: touch with a negative exptime
            assert store.touch(key, -1) == live
            if live:
                expired.add(key)
            elif key in lru:
                reap(key)  # touch found it already expired and reaped it
        for cid, keys in reference.items():
            assert [item.key for item in store.lrus[cid]] == keys
        assert store.stats.evictions == pressure["evicted"]
        assert store.stats.reclaimed == pressure["reclaimed"]
        assert SlabSanitizer().check(store) == []


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8))
def test_lru_double_push_rejected(n):
    store = ItemStore(Simulator())
    items = [store.set(f"k{i}", bytes(8)) for i in range(n)]
    for item in items:
        try:
            store._link(item)
        except ValueError:
            pass
        else:  # pragma: no cover - the bug this test pins
            raise AssertionError("double link silently accepted")
        assert SlabSanitizer().check(store) == []
    assert list(store.lrus[items[0].chunk.slab_class.class_id]) == items


def test_class_for_is_monotonic_and_minimal():
    """class_for picks the smallest class that fits, for every size."""
    allocator = SlabAllocator(max_bytes=2 * PAGE_BYTES)
    sizes = build_chunk_sizes()
    assert sizes == sorted(sizes)
    previous_id = -1
    for size in range(48, 4096, 7):
        cls = allocator.class_for(size)
        assert cls is not None and cls.chunk_size >= size
        if cls.class_id > 0:
            smaller = allocator.classes[cls.class_id - 1]
            assert smaller.chunk_size < size  # minimal fit
        assert cls.class_id >= previous_id  # monotone in the request size
        previous_id = cls.class_id
    assert allocator.class_for(PAGE_BYTES + 1) is None


def _conserved(allocator: SlabAllocator) -> None:
    pages = 0
    for cls in allocator.classes:
        assert cls.total_chunks == cls.total_pages * cls.chunks_per_page
        assert len(cls.free_chunks) <= cls.total_chunks
        pages += cls.total_pages
    assert allocator.allocated_bytes == pages * PAGE_BYTES
    assert allocator.allocated_bytes <= allocator.max_bytes


# Allocation sizes spanning several classes, small enough that pages
# hold many chunks (keeps examples fast).
ALLOC_SIZES = st.sampled_from([60, 96, 120, 200, 400, 900, 2000])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["alloc", "free"]), ALLOC_SIZES),
        min_size=1,
        max_size=120,
    )
)
def test_allocator_conserves_chunks_under_alloc_free(ops):
    """alloc/free never break per-class chunk conservation or the cap."""
    allocator = SlabAllocator(max_bytes=2 * PAGE_BYTES)
    held = []
    for kind, size in ops:
        if kind == "alloc":
            chunk = allocator.alloc(size)
            if chunk is not None:
                assert chunk.used
                held.append(chunk)
        elif held:
            chunk = held.pop()
            allocator.free(chunk)
            assert not chunk.used
        _conserved(allocator)
    # Every held chunk is distinct (no aliasing from the free lists).
    assert len({id(c) for c in held}) == len(held)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_reassign_page_conserves_chunks(seed):
    """Random drain-then-move cycles keep both classes conserved."""
    import random

    rng = random.Random(seed)
    allocator = SlabAllocator(max_bytes=3 * PAGE_BYTES)
    src = allocator.class_for(2000)
    dst = allocator.class_for(96)
    held = []
    for _ in range(rng.randint(1, 30)):
        action = rng.random()
        if action < 0.5:
            chunk = allocator.alloc(rng.choice([96, 2000]))
            if chunk is not None:
                held.append(chunk)
        elif action < 0.8 and held:
            allocator.free(held.pop(rng.randrange(len(held))))
        else:
            src_pages = {c.page for c in held if c.slab_class is src}
            if allocator.reassign_page(src, dst):
                # Only fully-free pages may move: a page hosting a held
                # chunk staying behind proves no live data was re-carved.
                assert all(
                    all(fc.page is not page for fc in dst.free_chunks)
                    for page in src_pages
                )
        _conserved(allocator)
    # Held chunks all still belong to classes that own their pages.
    for chunk in held:
        assert chunk.used
        assert chunk.slab_class in allocator.classes


def test_reclaim_page_refuses_partial_pages():
    """A page with even one used chunk never leaves its class."""
    allocator = SlabAllocator(max_bytes=2 * PAGE_BYTES)
    cls = allocator.class_for(2000)
    chunks = [allocator.alloc(2000) for _ in range(cls.chunks_per_page)]
    assert all(c is not None for c in chunks)
    # One chunk still used: no reclaim.
    for chunk in chunks[1:]:
        allocator.free(chunk)
    assert cls.reclaim_page() is None
    allocator.free(chunks[0])
    page = cls.reclaim_page()
    assert page is not None
    assert cls.total_chunks == cls.total_pages * cls.chunks_per_page
    # Reclaimed chunks are gone from the free list entirely.
    assert all(c.page is not page for c in cls.free_chunks)
