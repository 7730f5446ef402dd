"""The store's key index (a dict) and per-class LRUs (OrderedDicts).

Each class's LRU is read coldest first: ``store.lrus[class_id]`` iterates
from the eviction end to the most recently used item.
"""

import pytest

from repro.memcached.items import ITEM_HEADER_OVERHEAD
from repro.memcached.slabs import PAGE_BYTES
from repro.memcached.store import RECLAIM_SCAN, ItemStore, StoreConfig
from repro.sanitize.slabs import SlabSanitizer
from repro.sim import Simulator


def lru_keys(store, key, value_length):
    """Keys in the LRU of the class a *key* / *value_length* item lands in."""
    cls = store.slabs.class_for(ITEM_HEADER_OVERHEAD + len(key) + value_length)
    return [item.key for item in store.lrus[cls.class_id]]


# ------------------------------------------------------------------ index


def test_insert_find_remove():
    store = ItemStore(Simulator())
    items = [store.set(f"k{i}", b"v") for i in range(10)]
    assert len(store.by_key) == 10
    assert store.get("k3") is items[3]
    assert store.delete("k3")
    assert store.get("k3") is None
    assert "k3" not in store.by_key
    assert len(store.by_key) == 9


def test_find_missing_returns_none():
    store = ItemStore(Simulator())
    assert store.get("ghost") is None
    assert store.delete("ghost") is False
    assert store.by_key == {}


def test_items_iterator_sees_everything():
    store = ItemStore(Simulator())
    keys = {f"key-{i}" for i in range(50)}
    for k in keys:
        store.set(k, b"v")
    assert set(store.by_key) == keys
    assert all(item.linked for item in store.by_key.values())
    assert sum(len(lru) for lru in store.lrus) == 50


# -------------------------------------------------------------------- LRU


def test_lru_push_and_touch_order():
    store = ItemStore(Simulator())
    for key in ("a", "b", "c"):
        store.set(key, b"v")
    assert lru_keys(store, "a", 1) == ["a", "b", "c"]  # c is MRU
    store.get("a")  # a becomes MRU
    assert lru_keys(store, "a", 1) == ["b", "c", "a"]
    store.getl("b")  # a getl hit bumps too
    assert lru_keys(store, "a", 1) == ["c", "a", "b"]


def test_lru_unlink_middle():
    store = ItemStore(Simulator())
    for key in ("a", "b", "c"):
        store.set(key, b"v")
    store.delete("b")
    assert lru_keys(store, "a", 1) == ["a", "c"]


def test_lru_unlink_head_and_tail():
    store = ItemStore(Simulator())
    store.set("a", b"v")
    store.set("b", b"v")
    store.delete("b")  # most recently used
    assert lru_keys(store, "a", 1) == ["a"]
    store.delete("a")  # the last one
    assert lru_keys(store, "a", 1) == []
    assert store.stats.curr_items == 0


def test_lru_double_link_rejected():
    store = ItemStore(Simulator())
    item = store.set("a", b"v")
    with pytest.raises(ValueError, match="already linked"):
        store._link(item)
    assert lru_keys(store, "a", 1) == ["a"]
    assert store.stats.curr_items == 1
    assert SlabSanitizer().check(store) == []


def test_lru_unlink_foreign_rejected():
    store = ItemStore(Simulator())
    reservation = store.reserve("x", 5)  # allocated, never linked
    with pytest.raises(KeyError):
        store._unlink(reservation)
    assert reservation.chunk.used  # the failed unlink freed nothing
    store.abandon(reservation)
    assert SlabSanitizer().check(store) == []


def test_coldest_respects_max_scan():
    """The reclaim pass inspects exactly the RECLAIM_SCAN coldest items."""
    for rank, reclaimed in ((RECLAIM_SCAN - 1, True), (RECLAIM_SCAN, False)):
        store = ItemStore(Simulator(), StoreConfig(max_bytes=PAGE_BYTES))
        cls = store.slabs.class_for(12_000)
        value_length = cls.chunk_size - ITEM_HEADER_OVERHEAD - len("k0000")
        for i in range(cls.chunks_per_page):
            store.set(f"k{i:04d}", bytes(value_length))
        store.touch(f"k{rank:04d}", -1)  # expired, LRU position kept
        store.set("fresh", bytes(value_length))
        assert store.stats.reclaimed == int(reclaimed), rank
        assert store.stats.evictions == int(not reclaimed), rank
        # Reclaiming spares the live coldest item; evicting takes it.
        assert ("k0000" in store.by_key) == reclaimed, rank


def test_manager_routes_by_class():
    store = ItemStore(Simulator())
    store.set("a", bytes(100))
    store.set("b", bytes(10_000))
    assert lru_keys(store, "a", 100) == ["a"]
    assert lru_keys(store, "b", 10_000) == ["b"]
    assert sum(len(lru) for lru in store.lrus) == 2
    store.delete("a")
    assert lru_keys(store, "b", 10_000) == ["b"]
    assert sum(len(lru) for lru in store.lrus) == 1
