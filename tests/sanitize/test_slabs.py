"""Slab-accounting sanitizer: clean stores verify, injected drift is caught."""

import pytest

from repro.memcached.store import ItemStore
from repro.sanitize import SanitizerCounters, SlabAccountingError
from repro.sanitize.slabs import SlabSanitizer
from repro.sim import Simulator


def _populated_store() -> ItemStore:
    store = ItemStore(Simulator())
    for i in range(50):
        store.set(f"key-{i}", bytes(100 + i))
    for i in range(0, 50, 3):
        store.delete(f"key-{i}")
    return store


def test_clean_store_passes(sanitizers):
    store = _populated_store()
    san = SlabSanitizer(sanitizers.counters)
    assert san.check(store) == []
    assert sanitizers.counters.slab_checks == 1
    assert sanitizers.counters.slab_violations == 0


def test_byte_drift_detected():
    store = _populated_store()
    store.stats.bytes += 7  # injected accounting bug
    with pytest.raises(SlabAccountingError, match="stats.bytes"):
        SlabSanitizer().check(store)


def test_item_count_drift_detected():
    store = _populated_store()
    store.stats.curr_items -= 1
    with pytest.raises(SlabAccountingError, match="curr_items"):
        SlabSanitizer().check(store)


def test_chunk_double_free_detected():
    store = _populated_store()
    item = store.get("key-1")
    assert item is not None
    item.chunk.slab_class.release(item.chunk)  # freed under a live item
    with pytest.raises(SlabAccountingError, match="chunk marked free"):
        SlabSanitizer().check(store)


def test_pinned_chunk_freed_under_its_reader_detected():
    store = _populated_store()
    item = store.get("key-1")
    store.slabs.pin(item.chunk)
    store.delete("key-1")
    assert SlabSanitizer().check(store) == []  # the free waits for the pin
    item.chunk.slab_class.release(item.chunk)  # injected: freed anyway
    with pytest.raises(SlabAccountingError, match="pinned chunk is marked free"):
        SlabSanitizer().check(store)


def test_item_dropped_from_its_lru_only_detected():
    store = _populated_store()
    item = store.by_key["key-1"]
    del store.lrus[item.chunk.slab_class.class_id][item]  # the index keeps it
    violations = SlabSanitizer(strict=False).check(store)
    assert "item 'key-1' is missing from its class LRU" in violations
    assert any("the LRUs hold" in v for v in violations)


def test_item_dropped_from_the_index_only_detected():
    store = _populated_store()
    item = store.by_key.pop("key-1")  # its LRU keeps it
    cid = item.chunk.slab_class.class_id
    with pytest.raises(
        SlabAccountingError,
        match=f"class {cid} LRU holds 'key-1', which the index does not",
    ):
        SlabSanitizer().check(store)


def test_unlinked_item_left_in_the_index_detected():
    store = _populated_store()
    store.by_key["ghost"] = store.reserve("ghost", 10)  # allocated, never linked
    violations = SlabSanitizer(strict=False).check(store)
    assert "index holds unlinked item 'ghost'" in violations
    assert "item 'ghost' is missing from its class LRU" in violations


def test_page_accounting_drift_detected():
    store = _populated_store()
    store.slabs.allocated_bytes += 1
    with pytest.raises(SlabAccountingError, match="allocated_bytes"):
        SlabSanitizer().check(store)


def test_record_mode_returns_violations():
    counters = SanitizerCounters()
    store = _populated_store()
    store.stats.bytes += 1
    violations = SlabSanitizer(counters, strict=False).check(store)
    assert len(violations) == 1
    assert counters.slab_violations == 1


def test_check_between_reserve_and_commit_is_clean():
    store = _populated_store()
    item = store.reserve("pending", 10)  # a UCR set's chunk, value in flight
    assert SlabSanitizer().check(store) == []
    store.store("set", item.key, b"", reserved=item)
    assert SlabSanitizer().check(store) == []
    store.abandon(store.reserve("dropped", 10))
    assert SlabSanitizer().check(store) == []


def test_reservation_dropped_by_hand_detected():
    """A reservation nobody stores or abandons leaks its chunk: once it
    leaves the ledger, used chunks outnumber what is held."""
    store = _populated_store()
    item = store.reserve("leaked", 10)
    cid = item.chunk.slab_class.class_id
    store.reservations[cid] -= 1  # injected: forgotten, chunk never freed
    with pytest.raises(SlabAccountingError, match=f"class {cid}: .* chunks in use but"):
        SlabSanitizer().check(store)


def test_reservation_freed_but_still_counted_detected():
    store = _populated_store()
    item = store.reserve("freed", 10)
    store.slabs.free(item.chunk)  # injected: freed behind the ledger's back
    violations = SlabSanitizer(strict=False).check(store)
    assert any("1 reserved" in v for v in violations)


def _filed_under_another_key(store):
    store.by_key["key-1"].key = "yek-1"  # same length: stats.bytes holds


def _in_another_class_lru(store):
    item = store.by_key["key-1"]
    cid = item.chunk.slab_class.class_id
    del store.lrus[cid][item]
    store.lrus[cid + 1][item] = None


def _two_items_share_a_chunk(store):
    store.by_key["key-2"].chunk = store.by_key["key-1"].chunk  # same class


def _used_chunk_on_a_free_list(store):
    chunk = store.by_key["key-1"].chunk
    chunk.slab_class.free_chunks[0] = chunk  # the free count holds


def _chunk_count_off_its_pages(store):
    cls = store.by_key["key-1"].chunk.slab_class
    cls.free_chunks.append(cls.free_chunks[0])  # listed free twice ...
    cls.total_chunks += 1  # ... and counted twice: used chunks hold


def _deferred_free_without_a_pin(store):
    chunk = store.by_key["key-1"].chunk
    store.slabs.pin(chunk)
    store.delete("key-1")  # the free waits for the pin
    del store.slabs.pins[chunk]  # injected: the pin vanished, the free did not


SEEDED = {
    "filed-under-another-key": (
        _filed_under_another_key, "index files item 'yek-1' under 'key-1'"),
    "another-class-lru": (_in_another_class_lru, "LRU holds 'key-1' of class"),
    "shared-chunk": (_two_items_share_a_chunk, "share one slab chunk"),
    "used-chunk-on-free-list": (_used_chunk_on_a_free_list, "used chunk on the free list"),
    "chunks-off-pages": (_chunk_count_off_its_pages, "(page reassignment leak?)"),
    "deferred-free-unpinned": (
        _deferred_free_without_a_pin, "a deferred free outlived its pins"),
}


@pytest.mark.parametrize("case", SEEDED)
def test_seeded_violation_is_reported(case):
    seed, message = SEEDED[case]
    store = _populated_store()
    seed(store)
    violations = SlabSanitizer(strict=False).check(store)
    assert any(message in v for v in violations), violations
    with pytest.raises(SlabAccountingError):
        SlabSanitizer().check(store)
