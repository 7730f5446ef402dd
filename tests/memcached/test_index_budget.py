"""Counted occupancy budget of the exported one-sided index.

2 000 keys -- the ``onesided_small`` benchmark's key names, four clients
of 500 -- are published into a fresh index of ``DEFAULT_BUCKETS``
buckets.  A key left without a live entry is a GET that can only fall
back to RPC, so the count is pinned exactly: a placement regression is
named here, by count, before the full suite runs.  Direct-mapped, the
same keys leave 425 without a slot; a window of ``WINDOW`` slots leaves 6.
"""

from repro.cluster import CLUSTER_A, Cluster
from repro.memcached.onesided import DEFAULT_BUCKETS, WINDOW, hash64

KEYS = [f"bench-{client}-{i}" for client in range(4) for i in range(500)]


def test_window_placement_leaves_six_keys_without_a_slot():
    cluster = Cluster(CLUSTER_A, n_client_nodes=1)
    cluster.start_server()
    store = cluster.server.store
    for key in KEYS:
        store.set(key, b"v")
    index = store.onesided
    assert (index.n_buckets, index.n_slots) == (DEFAULT_BUCKETS, DEFAULT_BUCKETS + WINDOW - 1)

    unplaced = [key for key in KEYS if index.slot_of(store.by_key[key]) is None]
    live = sum(index.mirror_entry(slot).live for slot in range(index.n_slots))
    assert len(unplaced) == 6
    assert live == len(KEYS) - len(unplaced)


def test_direct_mapped_placement_would_leave_425():
    """The yardstick: one slot per bucket keeps one key per distinct home."""
    homes = {hash64(key) % DEFAULT_BUCKETS for key in KEYS}
    assert len(KEYS) - len(homes) == 425
