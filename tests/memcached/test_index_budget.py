"""Counted budgets of the exported one-sided index.

Occupancy: 2 000 keys -- the ``onesided_small`` benchmark's key names,
four clients of 500 -- are published into a fresh index of
``DEFAULT_BUCKETS`` buckets.  A key left without a live entry is a GET
that can only fall back to RPC, so the count is pinned exactly: a
placement regression is named here, by count, before the full suite
runs.  Direct-mapped, the same keys leave 425 without a slot; a window
of ``WINDOW`` slots leaves 6.

A flush reads the region once: ``invalidate_all`` walks the ``key_hash``
fields of one read of every slot and brackets only the live ones, whose
``seq_begin`` and ``seq_end`` each read their own entry.  A bracket's
reads and writes are pinned per publish and per unpublish:
``seq_begin`` rewrites only the version word, in the entry and in the
stamp.

Upkeep: a server exports its index only once a one-sided client is wired
to it, so a deployment without one makes no Python call into
``repro/memcached/onesided/`` at all -- counted with a profile hook over
a fixed burst of sets and gets.  Where an index is exported, a publish
hashes its key once: its window scan and the entry it writes share the
fingerprint.
"""

import os
import sys

import pytest

from repro.cluster import CLUSTER_A, Cluster
from repro.memcached.onesided import DEFAULT_BUCKETS, WINDOW, hash64, unpack_entry
from repro.memcached.onesided.layout import ENTRY_BYTES, STAMP_BYTES
from repro.memcached.serving import ProbabilisticHotCache
from repro.verbs.mr import MemoryRegion

KEYS = [f"bench-{client}-{i}" for client in range(4) for i in range(500)]


def test_window_placement_leaves_six_keys_without_a_slot():
    cluster = Cluster(CLUSTER_A, n_client_nodes=1)
    cluster.start_server().export_index()
    store = cluster.server.store
    for key in KEYS:
        store.set(key, b"v")
    index = store.onesided
    assert (index.n_buckets, index.n_slots) == (DEFAULT_BUCKETS, DEFAULT_BUCKETS + WINDOW - 1)

    unplaced = [key for key in KEYS if index.slot_of(store.by_key[key]) is None]
    live = sum(unpack_entry(index.entry_bytes(slot)).live for slot in range(index.n_slots))
    assert len(unplaced) == 6
    assert live == len(KEYS) - len(unplaced)


def test_direct_mapped_placement_would_leave_425():
    """The yardstick: one slot per bucket keeps one key per distinct home."""
    homes = {hash64(key) % DEFAULT_BUCKETS for key in KEYS}
    assert len(KEYS) - len(homes) == 425


def test_a_publish_hashes_its_key_once():
    """16 fresh keys stored into an exported index: each set publishes
    once, and each publish calls ``hash64`` once."""
    cluster = Cluster(CLUSTER_A, n_client_nodes=1)
    cluster.start_server().export_index()
    store = cluster.server.store
    index = store.onesided
    hashes = 0

    def profile(frame, event, arg):
        nonlocal hashes
        if event == "call" and frame.f_code is hash64.__code__:
            hashes += 1

    sys.setprofile(profile)
    try:
        for i in range(16):
            store.set(f"fresh-{i}", b"v")
    finally:
        sys.setprofile(None)
    assert (index.publishes, hashes) == (16, 16)


@pytest.mark.parametrize("live", [0, 1, 16])
def test_a_flush_reads_the_region_once_then_each_live_slot(live, monkeypatch):
    cluster = Cluster(CLUSTER_A, n_client_nodes=1)
    cluster.start_server().export_index()
    store = cluster.server.store
    for i in range(live):
        store.set(f"live-{i}", b"v")
    index = store.onesided
    reads = []
    plain = MemoryRegion.read

    def counted(mr, offset, length):
        if mr is index.mr:
            reads.append(length)
        return plain(mr, offset, length)

    monkeypatch.setattr(MemoryRegion, "read", counted)
    index.invalidate_all()
    monkeypatch.undo()
    assert reads == [index.n_slots * ENTRY_BYTES] + [ENTRY_BYTES] * (2 * live)
    assert not any(unpack_entry(index.entry_bytes(s)).key_hash for s in range(index.n_slots))


def _region_traffic(index, monkeypatch, action) -> list:
    """``(call, region, bytes)`` of every local read and write *action*
    makes: ``index`` is the exported region, ``value`` a slab page."""
    seen = []
    plain_read, plain_write = MemoryRegion.read, MemoryRegion.write

    def read(mr, offset, length):
        seen.append(("read", "index" if mr is index.mr else "value", length))
        return plain_read(mr, offset, length)

    def write(mr, offset, data):
        seen.append(("write", "index" if mr is index.mr else "value", len(data)))
        return plain_write(mr, offset, data)

    monkeypatch.setattr(MemoryRegion, "read", read)
    monkeypatch.setattr(MemoryRegion, "write", write)
    action()
    monkeypatch.undo()
    return seen


def test_a_bracket_rewrites_the_version_word_and_the_stamp(monkeypatch):
    """One publish into an empty slot and one unpublish, counted.  Each
    bracket helper reads its entry once; ``seq_begin`` writes back only
    the 8-byte version word, into the entry and into the stamp behind a
    value the entry names; ``seq_end`` writes the whole entry, zeroes
    the stamp of a value it stops naming and stamps the one it names."""
    cluster = Cluster(CLUSTER_A, n_client_nodes=1)
    cluster.start_server().export_index()
    store = cluster.server.store
    store.set("counted", b"v" * 100)
    index = store.onesided
    item = store.by_key["counted"]
    index.unpublish(item)
    entry = ("read", "index", ENTRY_BYTES)
    window = ("read", "index", WINDOW * ENTRY_BYTES)
    assert _region_traffic(index, monkeypatch, lambda: index.publish(item)) == [
        window,                                   # place_slot's one pass
        entry, ("write", "index", 8),             # seq_begin: empty slot, no stamp
        entry, ("write", "index", ENTRY_BYTES),   # seq_end: the entry...
        ("write", "value", STAMP_BYTES),          # ...and the value's stamp
    ]
    assert _region_traffic(index, monkeypatch, lambda: index.unpublish(item)) == [
        window,                                   # slot_of
        entry, ("write", "index", 8), ("write", "value", 8),
        entry, ("write", "value", STAMP_BYTES), ("write", "index", ENTRY_BYTES),
    ]
    assert index.slot_of(item) is None and index.stamp(item) == bytes(STAMP_BYTES)


ONESIDED_DIR = os.path.join("repro", "memcached", "onesided", "")

#: Clients that read no index: their servers must export none.
RPC_CLIENTS = {
    "UCR-IB": lambda cluster: cluster.client("UCR-IB"),
    "IPoIB text": lambda cluster: cluster.client("IPoIB"),
    "sharded UCR-IB, hot cache": lambda cluster: cluster.sharded_client(
        "UCR-IB", hot_cache=ProbabilisticHotCache(seed=1)
    ),
}


def _onesided_calls(make_client) -> int:
    """Python calls into ``repro/memcached/onesided/`` while *make_client*
    wires a client to two servers and it sets, then gets, 16 keys twice."""
    cluster = Cluster(CLUSTER_A, n_client_nodes=1, n_servers=2)
    cluster.start_server()
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and ONESIDED_DIR in frame.f_code.co_filename:
            calls += 1

    def burst(client):
        for key in (f"key{i}" for i in range(16)):
            yield from client.set(key, b"v" * 64)
        for _ in range(2):
            for key in (f"key{i}" for i in range(16)):
                assert (yield from client.get(key)) == b"v" * 64

    sys.setprofile(profile)
    try:
        cluster.sim.process(burst(make_client(cluster)))
        cluster.sim.run()
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("name", RPC_CLIENTS)
def test_a_server_no_onesided_client_reads_makes_no_onesided_call(name):
    assert _onesided_calls(RPC_CLIENTS[name]) == 0


def test_a_onesided_client_pays_for_the_index_it_reads():
    assert _onesided_calls(lambda cluster: cluster.client("UCR-1S")) > 0
