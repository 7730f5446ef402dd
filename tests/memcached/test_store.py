"""ItemStore behaviour: commands, expiry, eviction, CAS, flush."""

from types import SimpleNamespace

import pytest

from repro.memcached.command import Command
from repro.memcached.engine import CommandEngine
from repro.memcached.errors import ClientError, ServerError
from repro.memcached.items import ITEM_HEADER_OVERHEAD
from repro.memcached.slabs import PAGE_BYTES
from repro.memcached.store import ItemStore, StoreConfig
from repro.sim import Simulator


@pytest.fixture
def store():
    return ItemStore(Simulator())


def test_set_get_roundtrip(store):
    store.set("greeting", b"hello world", flags=7)
    item = store.get("greeting")
    assert item is not None
    assert item.value() == b"hello world"
    assert item.flags == 7


def test_get_miss(store):
    assert store.get("nope") is None
    assert store.stats.get_misses == 1


def test_set_overwrites(store):
    store.set("k", b"one")
    store.set("k", b"two-longer-value")
    assert store.get("k").value() == b"two-longer-value"
    assert store.stats.curr_items == 1


def test_add_only_if_absent(store):
    assert store.store("add", "k", b"v")[0] == "stored"
    assert store.store("add", "k", b"w")[0] == "not_stored"
    assert store.get("k").value() == b"v"


def test_replace_only_if_present(store):
    assert store.store("replace", "k", b"v")[0] == "not_stored"
    store.set("k", b"v")
    assert store.store("replace", "k", b"w")[0] == "stored"
    assert store.get("k").value() == b"w"


def test_append_prepend(store):
    store.set("k", b"middle")
    assert store.store("append", "k", b"-end")[0] == "stored"
    assert store.store("prepend", "k", b"start-")[0] == "stored"
    assert store.get("k").value() == b"start-middle-end"
    assert store.store("append", "ghost", b"x")[0] == "not_stored"


def test_delete(store):
    store.set("k", b"v")
    assert store.delete("k") is True
    assert store.get("k") is None
    assert store.delete("k") is False


def test_incr_decr(store):
    store.set("n", b"10")
    assert store.arith("n", 5)[0] == 15
    assert store.arith("n", -3)[0] == 12
    assert store.arith("n", -100)[0] == 0  # clamps at zero
    assert store.arith("ghost", 1)[0] is None


def test_incr_non_numeric_raises(store):
    store.set("s", b"abc")
    with pytest.raises(ClientError):
        store.arith("s", 1)


def test_incr_growing_digits(store):
    store.set("n", b"9")
    assert store.arith("n", 1)[0] == 10
    assert store.get("n").value() == b"10"


def test_a_linked_item_is_immutable(store):
    """Every value write re-stores: set_value refuses a linked item, and
    an incr hit links a new item in the old one's place."""
    item = store.set("n", b"1")
    with pytest.raises(ValueError):
        item.set_value(b"2")
    assert store.arith("n", 1)[0] == 2
    assert store.by_key["n"] is not item and not item.linked


def test_incr_refit_keeps_the_deadline():
    """A counter that outgrows its chunk is re-stored with its old
    deadline (memcached's do_add_delta), not made immortal."""
    sim = Simulator()
    store = ItemStore(sim)
    key = "k" * (96 - ITEM_HEADER_OVERHEAD - 2)  # "99" fills a 96-byte chunk
    old = store.set(key, b"99", exptime=100)
    assert old.chunk.capacity == 96
    assert store.arith(key, 1)[0] == 100
    item = store.get(key)
    assert item is not old and item.chunk.capacity > 96
    assert item.exptime == 100.0
    # Control: an incr that still fits the chunk class keeps it too.
    store.set("fits", b"1", exptime=100)
    store.arith("fits", 1)
    assert store.get("fits").exptime == 100.0
    sim._now = 200 * 1e6
    assert store.get(key) is None


def test_cas_lifecycle(store):
    item = store.set("k", b"v1")
    token = item.cas
    assert store.store("cas", "k", b"v2", cas_token=token)[0] == "stored"
    assert store.store("cas", "k", b"v3", cas_token=token)[0] == "exists"  # stale token
    assert store.store("cas", "ghost", b"x", cas_token=1)[0] == "not_found"
    assert store.get("k").value() == b"v2"


def test_lazy_expiry():
    sim = Simulator()
    store = ItemStore(sim)
    store.set("k", b"v", exptime=10)  # 10 seconds
    sim._now = 5 * 1e6
    assert store.get("k") is not None
    sim._now = 11 * 1e6
    assert store.get("k") is None
    assert store.stats.curr_items == 0  # reaped on access


def test_exptime_zero_never_expires():
    sim = Simulator()
    store = ItemStore(sim)
    store.set("k", b"v", exptime=0)
    sim._now = 1e12
    assert store.get("k") is not None


def test_negative_exptime_immediate():
    store = ItemStore(Simulator())
    store.set("k", b"v", exptime=-1)
    assert store.get("k") is None


def test_absolute_exptime_convention():
    sim = Simulator()
    store = ItemStore(sim)
    # > 30 days: treated as an absolute timestamp.
    store.set("k", b"v", exptime=100 * 24 * 3600)
    sim._now = (100 * 24 * 3600 - 10) * 1e6
    assert store.get("k") is not None
    sim._now = (100 * 24 * 3600 + 10) * 1e6
    assert store.get("k") is None


def test_touch_extends(store):
    sim = store.sim
    store.set("k", b"v", exptime=10)
    assert store.touch("k", 1000) is True
    sim._now = 500 * 1e6
    assert store.get("k") is not None
    assert store.touch("ghost", 10) is False


def test_flush_all():
    sim = Simulator()
    store = ItemStore(sim)
    store.set("a", b"1")
    store.set("b", b"2")
    sim._now = 1e6
    store.flush_all()
    assert store.get("a") is None
    assert store.get("b") is None
    # New items after the flush live.
    store.set("c", b"3")
    assert store.get("c") is not None


def test_flush_all_with_delay():
    sim = Simulator()
    store = ItemStore(sim)
    store.set("a", b"1")
    store.flush_all(delay_seconds=10)
    assert store.get("a") is not None  # not yet
    sim._now = 11 * 1e6
    assert store.get("a") is None


def test_eviction_lru_order():
    store = ItemStore(Simulator(), StoreConfig(max_bytes=PAGE_BYTES))
    value = bytes(300_000)  # three per 1 MB page in its slab class
    store.set("first", value)
    store.set("second", value)
    store.set("third", value)
    assert store.get("first") is not None  # touch: first becomes MRU
    store.set("fourth", value)  # must evict 'second' (the LRU)
    assert store.stats.evictions == 1
    assert store.get("second") is None
    assert store.get("first") is not None
    assert store.get("third") is not None
    assert store.get("fourth") is not None


def test_eviction_prefers_expired():
    sim = Simulator()
    store = ItemStore(sim, StoreConfig(max_bytes=PAGE_BYTES))
    value = bytes(300_000)
    store.set("expiring", value, exptime=1)
    store.set("fresh", value)
    store.set("fresh2", value)
    sim._now = 2 * 1e6
    store.get("fresh")
    store.get("fresh2")
    store.set("new", value)
    assert store.stats.evictions == 0  # reaped the expired one instead
    assert store.stats.expired_unfetched == 1
    assert store.get("fresh") is not None
    assert store.get("fresh2") is not None


def test_oom_with_evictions_disabled():
    store = ItemStore(
        Simulator(), StoreConfig(max_bytes=PAGE_BYTES, evictions_enabled=False)
    )
    value = bytes(300_000)
    store.set("a", value)
    store.set("b", value)
    store.set("c", value)
    with pytest.raises(ServerError):
        store.set("d", value)


def test_key_validation(store):
    with pytest.raises(ClientError):
        store.set("bad key", b"v")
    with pytest.raises(ClientError):
        store.set("x" * 251, b"v")
    with pytest.raises(ClientError):
        store.set("", b"v")
    with pytest.raises(ClientError):
        store.get("also bad")


def test_object_too_large(store):
    with pytest.raises(ServerError):
        store.set("k", bytes(PAGE_BYTES))


def test_get_multi(store):
    """The mget loop is the engine's: one store get per key, misses
    simply absent from the reply."""
    store.set("a", b"1")
    store.set("c", b"3")
    engine = CommandEngine(SimpleNamespace(store=store))
    reply = engine.apply(Command("get", keys=["a", "b", "c"]))
    assert [key for key, _, _, _ in reply.values] == ["a", "c"]
    assert reply.values[0][2].value() == b"1"
    assert (store.stats.cmd_get, store.stats.get_misses) == (3, 1)


def test_reserve_commit_two_phase(store):
    item = store.reserve("k", 5, flags=3)
    assert store.get("k") is None  # not linked yet
    item.chunk.write(b"hello")
    store.store("set", item.key, b"", reserved=item)
    got = store.get("k")
    assert got is item
    assert got.value() == b"hello"


def test_reserve_commit_replaces_existing(store):
    store.set("k", b"old")
    item = store.reserve("k", 3)
    item.chunk.write(b"new")
    store.store("set", item.key, b"", reserved=item)
    assert store.get("k").value() == b"new"
    assert store.stats.curr_items == 1


def test_abandon_reservation(store):
    item = store.reserve("k", 5)
    store.abandon(item)
    assert store.get("k") is None
    # The chunk is reusable.
    again = store.reserve("k2", 5)
    assert again.chunk is item.chunk


def test_stats_accounting(store):
    store.set("a", b"11")
    store.set("b", b"22")
    store.get("a")
    store.get("ghost")
    store.delete("b")
    s = store.stats_dict()
    assert s["cmd_set"] == 2
    assert s["get_hits"] == 1
    assert s["get_misses"] == 1
    assert s["delete_hits"] == 1
    assert s["curr_items"] == 1
    assert s["bytes"] > 0
