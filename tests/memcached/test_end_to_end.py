"""End-to-end memcached: every transport, full command set."""

import pytest

from repro.cluster import CLUSTER_A, CLUSTER_B, Cluster
from repro.memcached.errors import ServerError


@pytest.fixture(scope="module")
def cluster_a():
    cluster = Cluster(CLUSTER_A, n_client_nodes=2)
    cluster.start_server()
    return cluster


def run(cluster, gen):
    p = cluster.sim.process(gen)
    cluster.sim.run()
    assert p.processed
    return p.value


TRANSPORTS = ["UCR-IB", "SDP", "IPoIB", "10GigE-TOE", "1GigE-TCP"]


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_set_get_roundtrip(cluster_a, transport):
    client = cluster_a.client(transport)

    def scenario():
        ok = yield from client.set(f"key-{transport}", b"value-123", flags=9)
        assert ok
        value = yield from client.get(f"key-{transport}")
        return value

    assert run(cluster_a, scenario()) == b"value-123"


@pytest.mark.parametrize("transport", ["UCR-IB", "SDP", "10GigE-TOE"])
def test_large_value_roundtrip(cluster_a, transport):
    """64 KB values: rendezvous path on UCR, segmentation on sockets."""
    client = cluster_a.client(transport)
    payload = bytes(range(256)) * 256

    def scenario():
        yield from client.set(f"big-{transport}", payload)
        got = yield from client.get(f"big-{transport}")
        return got

    assert run(cluster_a, scenario()) == payload


@pytest.mark.parametrize("transport", ["UCR-IB", "10GigE-TOE"])
def test_full_command_set(cluster_a, transport):
    client = cluster_a.client(transport)

    def scenario():
        results = {}
        yield from client.set("k", b"v1")
        results["add_existing"] = yield from client.add("k", b"nope")
        results["add_new"] = yield from client.add("k2", b"v2")
        results["replace"] = yield from client.replace("k", b"v1b")
        results["get_k"] = yield from client.get("k")
        results["delete"] = yield from client.delete("k2")
        results["get_deleted"] = yield from client.get("k2")
        yield from client.set("n", b"10")
        results["incr"] = yield from client.incr("n", 5)
        results["decr"] = yield from client.decr("n", 3)
        results["touch"] = yield from client.touch("n", 3600)
        gets = yield from client.gets("n")
        results["gets_value"] = gets[0]
        cas_status = yield from client.cas("n", b"99", gets[1])
        results["cas_fresh"] = cas_status
        cas_status = yield from client.cas("n", b"777", gets[1])
        results["cas_stale"] = cas_status
        results["miss"] = yield from client.get("never-set")
        return results

    r = run(cluster_a, scenario())
    assert r["add_existing"] is False
    assert r["add_new"] is True
    assert r["replace"] is True
    assert r["get_k"] == b"v1b"
    assert r["delete"] is True
    assert r["get_deleted"] is None
    assert r["incr"] == 15
    assert r["decr"] == 12
    assert r["touch"] is True
    assert r["gets_value"] == b"12"
    assert r["cas_fresh"] == "stored"
    assert r["cas_stale"] == "exists"
    assert r["miss"] is None


@pytest.mark.parametrize("transport", ["UCR-IB", "SDP"])
def test_get_multi(cluster_a, transport):
    client = cluster_a.client(transport)

    def scenario():
        for i in range(5):
            yield from client.set(f"m{i}-{transport}", f"value{i}".encode())
        out = yield from client.get_multi(
            [f"m{i}-{transport}" for i in range(5)] + ["missing-key"]
        )
        return out

    out = run(cluster_a, scenario())
    assert len(out) == 5
    assert out[f"m2-{transport}"] == b"value2"


@pytest.mark.parametrize("transport", ["UCR-IB", "IPoIB"])
def test_stats_and_flush(cluster_a, transport):
    client = cluster_a.client(transport)

    def scenario():
        yield from client.set(f"s1-{transport}", b"x")
        stats = yield from client.stats()
        yield from client.flush_all()
        after = yield from client.get(f"s1-{transport}")
        return stats, after

    stats, after = run(cluster_a, scenario())
    assert int(stats["cmd_set"]) >= 1
    assert after is None


#: The top-level ``stats`` surface, key for key: store counters, slab
#: allocator totals, server fields.  A key added or removed here is a
#: wire-visible change and should be a decision, not drift.
STATS_KEYS = {
    # StoreStats
    "cmd_get", "cmd_set", "get_hits", "get_misses", "delete_hits",
    "delete_misses", "incr_hits", "incr_misses", "decr_hits", "decr_misses",
    "cas_hits", "cas_misses", "cas_badval", "evictions", "expired_unfetched",
    "reclaimed", "oom_errors", "slab_moves", "total_items", "curr_items",
    "bytes",
    # SlabAllocator.stats()
    "allocated_bytes", "pages", "classes", "free_chunks", "total_chunks",
    # MemcachedServer
    "threads", "total_requests", "version",
}


def test_stats_key_set_is_pinned(cluster_a):
    assert set(cluster_a.server.stats_dict()) == STATS_KEYS
    client = cluster_a.client("IPoIB")

    def scenario():
        return (yield from client.stats())

    assert set(run(cluster_a, scenario())) == STATS_KEYS  # the wire sees the same


def test_dual_mode_share_one_store(cluster_a):
    """A UCR client reads what a sockets client wrote (paper §V-A)."""
    ucr = cluster_a.client("UCR-IB", client_node=0)
    toe = cluster_a.client("10GigE-TOE", client_node=1)

    def scenario():
        yield from toe.set("shared-key", b"written-via-sockets")
        value = yield from ucr.get("shared-key")
        yield from ucr.set("shared-key2", b"written-via-ucr")
        value2 = yield from toe.get("shared-key2")
        return value, value2

    v1, v2 = run(cluster_a, scenario())
    assert v1 == b"written-via-sockets"
    assert v2 == b"written-via-ucr"


def test_two_clients_interleave(cluster_a):
    c0 = cluster_a.client("UCR-IB", client_node=0)
    c1 = cluster_a.client("UCR-IB", client_node=1)
    done = []

    def worker(client, tag, n):
        for i in range(n):
            yield from client.set(f"{tag}-{i}", f"{tag}{i}".encode())
            got = yield from client.get(f"{tag}-{i}")
            assert got == f"{tag}{i}".encode()
        done.append(tag)

    cluster_a.sim.process(worker(c0, "alpha", 10))
    cluster_a.sim.process(worker(c1, "beta", 10))
    cluster_a.sim.run()
    assert sorted(done) == ["alpha", "beta"]


def test_cluster_b_transports():
    cluster = Cluster(CLUSTER_B, n_client_nodes=1)
    cluster.start_server()
    for transport in CLUSTER_B.transports:
        client = cluster.client(transport)

        def scenario(c=client, t=transport):
            yield from c.set(f"bk-{t}", b"bv")
            return (yield from c.get(f"bk-{t}"))

        assert run(cluster, scenario()) == b"bv"


def test_unknown_transport_rejected(cluster_a):
    with pytest.raises(KeyError):
        cluster_a.client("carrier-pigeon")


def test_value_too_large_is_server_error(cluster_a):
    client = cluster_a.client("UCR-IB")

    def scenario():
        try:
            yield from client.set("huge", bytes(2 * 1024 * 1024))
        except ServerError:
            return "rejected"

    assert run(cluster_a, scenario()) == "rejected"


#: One command of each counted kind, issued the same way on every wire
#: format: the store's command counters must read the same afterwards.
COUNTER_CONFIGS = [
    ("10GigE-TOE/text", "10GigE-TOE", False),
    ("10GigE-TOE/bin", "10GigE-TOE", True),
    ("UCR-IB", "UCR-IB", False),
    ("UCR-1S", "UCR-1S", False),
]


@pytest.mark.parametrize(
    "transport,binary", [c[1:] for c in COUNTER_CONFIGS],
    ids=[c[0] for c in COUNTER_CONFIGS],
)
def test_command_counters_agree_across_wire_formats(transport, binary):
    """set, incr, add of a present key, replace, gets, cas and a missed
    get: the engine runs each against the store exactly once, so no
    wire format adds a probe that counts as a GET or skips a
    ``cmd_set``.  ``stats`` values arrive as strings on every wire."""
    cluster = Cluster(CLUSTER_A, n_client_nodes=1)
    cluster.start_server()
    client = cluster.client(transport, binary=binary)

    def scenario():
        yield from client.set("ctr", b"1")
        assert (yield from client.incr("ctr", 1)) == 2
        assert (yield from client.add("ctr", b"9")) is False
        assert (yield from client.replace("ctr", b"5")) is True
        value, token = yield from client.gets("ctr")
        assert value == b"5"
        assert (yield from client.cas("ctr", b"6", token)) == "stored"
        assert (yield from client.get("never-set")) is None
        return (yield from client.stats())

    stats = run(cluster, scenario())
    assert all(type(v) is str for v in stats.values()), stats
    counters = {k: int(stats[k]) for k in (
        "cmd_get", "get_hits", "get_misses", "cmd_set", "incr_hits", "cas_hits",
    )}
    gets = {"cmd_get": 2, "get_hits": 1, "get_misses": 1}
    if transport == "UCR-1S":
        # The gets hit is served by RDMA READs against the exported index
        # and never reaches the server's engine; only the miss falls back
        # to an RPC get.
        gets = {"cmd_get": 1, "get_hits": 0, "get_misses": 1}
    assert counters == {**gets, "cmd_set": 4, "incr_hits": 1, "cas_hits": 1}
