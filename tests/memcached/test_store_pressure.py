"""ItemStore under real memory pressure.

Covers the observable eviction machinery end to end: the ``-M``
(no-evict) error path and its counters, per-class ``stats items``
pressure counters, the tail-walk window of the reclaim pass, the slab
rebalancer (calcification cure + rate limiting), the two-phase
reserve/commit/abandon path when reservations themselves evict, and two
regression pins for deliberate memcached quirks (chunk-refit dropping
exptime; unlink-first destroying the old value on a failed overwrite).
"""

import pytest

from repro.memcached.errors import ServerError
from repro.memcached.slabs import PAGE_BYTES
from repro.memcached.store import ItemStore, StoreConfig
from repro.sanitize.slabs import SlabSanitizer
from repro.sim import Simulator

#: Three of these fit one 1 MiB page in their slab class.
BIG = bytes(300_000)


def one_page_store(**kwargs) -> ItemStore:
    return ItemStore(Simulator(), StoreConfig(max_bytes=PAGE_BYTES, **kwargs))


def hooked(store: ItemStore) -> list[tuple[str, str]]:
    events: list[tuple[str, str]] = []
    store.on_evict = lambda key, kind: events.append((key, kind))
    return events


# ---------------------------------------------------------------------------
# -M mode and the OOM counters
# ---------------------------------------------------------------------------


def test_no_evict_mode_error_message_and_counters():
    store = one_page_store(evictions_enabled=False)
    for name in ("a", "b", "c"):
        store.set(name, BIG)
    with pytest.raises(ServerError, match="out of memory storing object"):
        store.set("d", BIG)
    assert store.stats.oom_errors == 1
    assert store.stats.evictions == 0
    # Nothing was destroyed to make room.
    assert store.stats.curr_items == 3
    # The per-class view names the starved class.
    class_id = store.slabs.class_for(len(BIG) + 60).class_id
    detail = store.item_stats_detail()
    assert detail[f"items:{class_id}:outofmemory"] == 1
    assert detail[f"items:{class_id}:evicted"] == 0


def test_eviction_feeds_per_class_stats_items():
    store = one_page_store()
    events = hooked(store)
    for name in ("a", "b", "c", "d", "e"):
        store.set(name, BIG)
    assert store.stats.evictions == 2  # a and b went to make room
    assert events == [("a", "evicted"), ("b", "evicted")]
    class_id = store.slabs.class_for(len(BIG) + 60).class_id
    detail = store.item_stats_detail()
    assert detail[f"items:{class_id}:evicted"] == 2
    assert detail[f"items:{class_id}:reclaimed"] == 0
    assert detail[f"items:{class_id}:number"] == 3
    SlabSanitizer().check(store)


# ---------------------------------------------------------------------------
# The reclaim pass walks at most 50 items from the tail
# ---------------------------------------------------------------------------


def _fill_one_class(store: ItemStore, total_bytes: int) -> tuple[int, int, int]:
    """Fill a one-page store with items of one class; returns
    (n_items, class_id, value_length)."""
    cls = store.slabs.class_for(total_bytes)
    key_len = len("k0000")
    value_length = cls.chunk_size - 56 - key_len  # exactly this class
    n = cls.chunks_per_page
    for i in range(n):
        store.set(f"k{i:04d}", bytes(value_length))
    return n, cls.class_id, value_length


def test_expired_item_within_scan_window_is_reclaimed():
    store = one_page_store()
    n, _, value_length = _fill_one_class(store, 12_000)
    assert n > 55  # the class is small enough to out-range the window
    store.touch("k0030", -1)  # 30 items from the tail: inside the window
    store.set("fresh", bytes(value_length))
    assert store.stats.reclaimed == 1
    assert store.stats.evictions == 0
    assert store.get("k0000") is not None  # the live tail survived


def test_expired_item_beyond_scan_window_evicts_live_tail():
    store = one_page_store()
    n, _, value_length = _fill_one_class(store, 12_000)
    assert n > 55
    store.touch("k0055", -1)  # 55 from the tail: past max_scan=50
    store.set("fresh", bytes(value_length))
    # The reclaim pass never saw the expired item, so the (live) LRU
    # tail paid the price instead -- memcached's bounded tail walk.
    assert store.stats.evictions == 1
    assert store.stats.reclaimed == 0
    assert "k0000" not in store.by_key


# ---------------------------------------------------------------------------
# Regression pins
# ---------------------------------------------------------------------------


def test_too_large_overwrite_destroys_old_value():
    """Pin: memcached unlinks the old item before allocating the new
    one, so a failed overwrite leaves the key absent -- reported to the
    eviction hook as 'lost'."""
    store = ItemStore(Simulator())
    events = hooked(store)
    store.set("k", b"old")
    with pytest.raises(ServerError, match="object too large"):
        store.set("k", bytes(PAGE_BYTES))
    assert store.get("k") is None
    assert ("k", "lost") in events


# ---------------------------------------------------------------------------
# Two-phase reserve/commit/abandon under pressure
# ---------------------------------------------------------------------------


def test_reserve_evicts_to_make_room():
    store = one_page_store()
    events = hooked(store)
    for name in ("a", "b", "c"):
        store.set(name, BIG)
    item = store.reserve("r", len(BIG))
    assert store.stats.evictions == 1
    assert events == [("a", "evicted")]
    item.chunk.write(BIG)
    store.commit(item)
    assert store.get("r").value() == BIG
    SlabSanitizer().check(store)


def test_abandon_under_pressure_returns_the_chunk():
    store = one_page_store()
    for name in ("a", "b", "c"):
        store.set(name, BIG)
    item = store.reserve("r", len(BIG))  # evicted 'a' for this chunk
    store.abandon(item)
    SlabSanitizer().check(store)
    # The abandoned chunk is immediately reusable without more evictions.
    store.set("d", BIG)
    assert store.stats.evictions == 1
    assert store.get("d") is not None


def test_eviction_never_picks_a_reserved_chunk():
    """An uncommitted reservation is not in the LRU, so pressure during
    the RDMA transfer window cannot evict it out from under the NIC."""
    store = one_page_store()
    for name in ("a", "b", "c"):
        store.set(name, BIG)
    reserved = store.reserve("r", len(BIG))  # evicts 'a'
    reserved.chunk.write(BIG)
    store.set("d", BIG)  # evicts 'b' -- must not touch the reservation
    assert store.stats.evictions == 2
    assert reserved.chunk.used
    store.commit(reserved)
    assert store.get("r").value() == BIG
    assert store.get("d") is not None
    SlabSanitizer().check(store)


# ---------------------------------------------------------------------------
# The slab rebalancer
# ---------------------------------------------------------------------------


def test_rebalance_cures_calcification():
    """A page calcified in a drained class moves to the starved class
    instead of OOMing (slab_automove=True)."""
    store = one_page_store(slab_automove=True)
    for name in ("a", "b", "c"):
        store.set(name, BIG)
    for name in ("a", "b", "c"):
        store.delete(name)  # the page is now fully free, but calcified
    store.set("small", b"x")  # a different class: needs its own page
    assert store.stats.slab_moves == 1
    assert store.stats.evictions == 0
    assert store.stats.oom_errors == 0
    assert store.get("small").value() == b"x"
    SlabSanitizer().check(store)


def test_rebalance_is_rate_limited_by_the_automove_window():
    sim = Simulator()
    store = ItemStore(
        sim, StoreConfig(max_bytes=PAGE_BYTES, slab_automove=True)
    )
    for name in ("a", "b", "c"):
        store.set(name, BIG)
    for name in ("a", "b", "c"):
        store.delete(name)
    store.set("small", b"x")  # first move: allowed
    assert store.stats.slab_moves == 1
    store.delete("small")  # donor page fully free again

    # A second move inside the 1 s window is refused; with an empty LRU
    # in the starved class, the store has to answer OOM.
    with pytest.raises(ServerError, match="out of memory"):
        store.set("big-again", BIG)
    assert store.stats.slab_moves == 1
    assert store.stats.oom_errors == 1

    sim._now = 1.5 * 1e6  # past the window: the mover may run again
    store.set("big-again", BIG)
    assert store.stats.slab_moves == 2
    assert store.get("big-again") is not None
    SlabSanitizer().check(store)


# ---------------------------------------------------------------------------
# The wire view: stats settings / items under pressure
# ---------------------------------------------------------------------------


def test_stats_settings_and_pressure_counters_over_the_wire():
    from repro.cluster import CLUSTER_A, Cluster

    cluster = Cluster(CLUSTER_A, n_client_nodes=1)
    cluster.start_server(
        store_config=StoreConfig(max_bytes=PAGE_BYTES, slab_automove=True)
    )
    sock = cluster.stacks["10GigE-TOE"]["client0"].socket()

    def recv_stats(send_line):
        yield from sock.send(send_line)
        data = b""
        while b"END\r\n" not in data:
            data += yield from sock.recv(4096)
        return data

    def scenario():
        yield from sock.connect("server", 11211)
        for n in range(5):  # 5 x 300KB into a 1-page store: 2 evictions
            yield from sock.send(
                b"set big%d 0 0 300000\r\n" % n + bytes(300_000) + b"\r\n"
            )
            yield from sock.recv(64)
        settings = yield from recv_stats(b"stats settings\r\n")
        items = yield from recv_stats(b"stats items\r\n")
        top = yield from recv_stats(b"stats\r\n")
        return settings, items, top

    p = cluster.sim.process(scenario())
    cluster.sim.run()
    settings, items, top = p.value
    assert b"maxbytes %d" % PAGE_BYTES in settings
    assert b"evictions 1" in settings  # -M not set
    assert b"slab_automove 1" in settings
    assert b":evicted 2" in items
    assert b":outofmemory 0" in items
    assert b"evictions 2" in top
