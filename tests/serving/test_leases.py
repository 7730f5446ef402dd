"""Lease plane: LeaseTable mechanics and the store's getl verdicts."""

import pytest

from repro.memcached.serving.leases import LeaseTable
from repro.memcached.store import ItemStore, StoreConfig
from repro.sim import Simulator


class Clock:
    """A hand-cranked seconds clock for table-level tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# -- LeaseTable --------------------------------------------------------------


def test_tokens_are_sequential_from_one():
    clock = Clock()
    table = LeaseTable(clock, lease_ttl_s=2.0)
    assert table.acquire("a").token == 1
    assert table.acquire("b").token == 2
    table.clear("a")
    # Tokens never recycle, even after a clear.
    assert table.acquire("a").token == 3
    assert table.granted == 3


def test_outstanding_lease_blocks_acquire():
    clock = Clock()
    table = LeaseTable(clock, lease_ttl_s=2.0)
    lease = table.acquire("k")
    assert lease is not None
    clock.now = 1.9
    assert table.acquire("k") is None
    assert len(table) == 1
    assert table.expired_reissues == 0


def test_blown_ttl_reissues_and_counts():
    clock = Clock()
    table = LeaseTable(clock, lease_ttl_s=2.0)
    first = table.acquire("k")
    clock.now = 2.0  # exactly the deadline: the holder blew it
    second = table.acquire("k")
    assert second is not None and second.token != first.token
    assert table.expired_reissues == 1


def test_validate_checks_token_and_deadline():
    clock = Clock()
    table = LeaseTable(clock, lease_ttl_s=2.0)
    lease = table.acquire("k")
    assert table.validate("k", lease.token)
    assert not table.validate("k", lease.token + 1)
    assert not table.validate("other", lease.token)
    clock.now = 2.5
    assert not table.validate("k", lease.token)


def test_clear_and_clear_all():
    clock = Clock()
    table = LeaseTable(clock, lease_ttl_s=2.0)
    table.acquire("a")
    table.acquire("b")
    table.clear("a")
    table.clear("missing")  # no-op, no error
    assert len(table) == 1
    table.clear_all()
    assert len(table) == 0


# -- store.getl --------------------------------------------------------------


@pytest.fixture
def rig():
    sim = Simulator()
    return sim, ItemStore(sim, StoreConfig())


def test_getl_hit_on_live_key(rig):
    sim, store = rig
    store.set("k", b"v")
    state, item, token = store.getl("k")
    assert state == "hit" and item.value() == b"v" and token == 0
    assert len(store.leases) == 0  # hits never take a lease


def test_getl_miss_wins_then_loses(rig):
    sim, store = rig
    state, item, token = store.getl("k")
    assert (state, item) == ("won", None) and token > 0
    state2, item2, token2 = store.getl("k")
    assert (state2, item2, token2) == ("lost", None, 0)


def test_getl_serves_stale_inside_window_only(rig):
    sim, store = rig
    store.set("k", b"old", exptime=1)
    sim._now = 1.5 * 1e6  # expired, well inside the 10 s stale window
    state, stale, token = store.getl("k", stale_ok=True)
    assert state == "won" and stale is not None and stale.value() == b"old"
    sim._now = 12.0 * 1e6  # past exptime + stale_window_s
    state, stale, _ = store.getl("k", stale_ok=True)
    assert stale is None


def test_getl_without_stale_ok_hides_the_ghost(rig):
    sim, store = rig
    store.set("k", b"old", exptime=1)
    sim._now = 1.5 * 1e6
    state, stale, token = store.getl("k", stale_ok=False)
    assert state == "won" and stale is None


def test_flushed_items_are_never_stale_servable(rig):
    sim, store = rig
    store.set("k", b"v", exptime=1)
    sim._now = 0.5 * 1e6
    store.flush_all()
    sim._now = 1.5 * 1e6
    state, stale, _ = store.getl("k", stale_ok=True)
    assert state == "won" and stale is None


def test_getl_preserves_the_ghost_but_plain_get_reaps_it(rig):
    sim, store = rig
    store.set("k", b"old", exptime=1)
    sim._now = 1.5 * 1e6
    store.getl("k", stale_ok=True)
    assert "k" in store.by_key  # getl left the corpse alone
    assert store.get("k") is None  # the ordinary read lazily unlinks it
    assert "k" not in store.by_key
    # The ghost is gone, so a later stale-tolerant getl has nothing.
    _, stale, _ = store.getl("k", stale_ok=True)
    assert stale is None


def test_successful_set_settles_the_lease(rig):
    sim, store = rig
    state, _, token = store.getl("k")
    assert state == "won" and len(store.leases) == 1
    store.set("k", b"fresh")
    assert len(store.leases) == 0
    assert store.getl("k")[0] == "hit"


def test_delete_hit_voids_the_lease(rig):
    sim, store = rig
    store.set("k", b"v")
    store.leases.acquire("k")  # as if a racing miss had won earlier
    assert store.delete("k") is True
    assert len(store.leases) == 0


def test_delete_miss_leaves_leases_alone(rig):
    sim, store = rig
    store.getl("k")  # won: lease outstanding
    assert store.delete("k") is False
    assert len(store.leases) == 1


def test_flush_all_clears_every_lease(rig):
    sim, store = rig
    store.getl("a")
    store.getl("b")
    assert len(store.leases) == 2
    store.flush_all()
    assert len(store.leases) == 0


def test_incr_settles_the_lease_like_every_value_write(rig):
    sim, store = rig
    # incr re-stores the counter through _link, like set, so it settles
    # the fill race.  Only a direct acquire reaches this: getl issues a
    # lease only while the key is absent, and arith then misses.
    store.set("n", b"10")
    store.leases.acquire("n")
    assert store.arith("n", 5)[0] == 15
    assert len(store.leases) == 0
    store.leases.acquire("n")
    assert store.arith("n", -1)[0] == 14
    assert len(store.leases) == 0
