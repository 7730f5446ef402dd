"""End-to-end memcached: every transport, full command set."""

import pytest

from repro.cluster import CLUSTER_A, CLUSTER_B, Cluster
from repro.memcached import protocol_ucr as ucrp
from repro.memcached.errors import ServerDownError, ServerError
from repro.sanitize.slabs import SlabSanitizer


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


def _overwrite_as_the_get_reply_is_sent(cluster, write, then=None):
    """Wrap the server endpoint's ``send_message``: before it runs (the
    GET has been applied, its reply not yet read out of the slab),
    *write(store)* changes the key.  *then(ep, when)* runs with *when*
    "before" and "after" the send."""
    store = cluster.server.store
    (ep,) = cluster.ucr_ports["server"].endpoints
    send = ep.send_message

    def send_after_overwrite(*args, **kwargs):
        ep.send_message = send
        write(store)
        if then is not None:
            then(ep, "before")
        yield from send(*args, **kwargs)
        if then is not None:
            then(ep, "after")

    ep.send_message = send_after_overwrite


def _overwrite_and_refill(size):
    """The key is overwritten and a same-class set may refill the freed
    chunk."""
    def write(store):
        store.set("k", b"n" * size)
        store.set("other", b"x" * size)
    return b"o" * size, write


def _decrement(size):
    """A zero-padded counter is decremented: "...09" becomes 8."""
    return b"0" * (size - 1) + b"9", lambda store: store.arith("k", -1)[0]


@pytest.mark.parametrize("writer,size", [
    (_overwrite_and_refill, 100), (_overwrite_and_refill, 16_384),
    (_decrement, 100), (_decrement, 16_384),
], ids=["eager", "rendezvous", "decr-eager", "decr-rendezvous"])
def test_zero_copy_get_keeps_its_chunk_until_the_bytes_leave(writer, size):
    """A UCR GET hit is sent out of its slab chunk after the handler
    yields.  The reply pins the chunk when the GET is applied, and no
    write changes a linked chunk (a decr re-stores like a set), so a
    write in that window cannot change the bytes: the GET returns the
    value it found.  The chunk is freed once the bytes have left (the
    eager copy, or the client's rendezvous_done)."""
    cluster = Cluster(CLUSTER_A, n_client_nodes=1)
    cluster.start_server()
    client = cluster.client("UCR-IB")
    slabs = cluster.server.store.slabs
    value, write = writer(size)

    def scenario():
        yield from client.set("k", value)
        found = cluster.server.store.by_key["k"].chunk
        _overwrite_as_the_get_reply_is_sent(cluster, write)
        got = yield from client.get("k")
        return found, got

    found, got = run(cluster, scenario())
    assert got == value
    assert slabs.pins == {} and slabs.deferred_frees == set()
    assert not found.used
    SlabSanitizer().check(cluster.server.store)


@pytest.mark.parametrize("when", ["before", "after"])
def test_a_failing_endpoint_releases_the_zero_copy_pin(when):
    """The endpoint fails before the rendezvous GET reply is sent (the
    send raises) or right after it is posted (the client's READ never
    completes): either way the reply's pin is released."""
    cluster = Cluster(CLUSTER_A, n_client_nodes=1)
    cluster.start_server()
    client = cluster.client("UCR-IB", timeout_us=200.0)
    slabs = cluster.server.store.slabs

    def scenario():
        yield from client.set("k", b"o" * 16_384)
        found = cluster.server.store.by_key["k"].chunk
        _overwrite_as_the_get_reply_is_sent(
            cluster, _overwrite_and_refill(16_384)[1],
            then=lambda ep, at: ep.fail("flap") if at == when else None)
        with pytest.raises(ServerDownError):
            yield from client.get("k")
        return found

    found = run(cluster, scenario())
    assert slabs.pins == {} and slabs.deferred_frees == set()
    assert not found.used
    SlabSanitizer().check(cluster.server.store)


@pytest.mark.parametrize("fail_after_us", [0.5, None],
                         ids=["flushed-in-flight", "failed-before-the-post"])
def test_failed_rendezvous_set_returns_its_reserved_chunk(fail_after_us):
    """A 16 KB UCR set is two-phase: the header handler reserves the
    item's chunk as the RDMA READ destination.  When the server endpoint
    fails with the READ in flight (it completes flushed) or before the
    READ is posted, the completion handler never runs, so the transfer
    failure must release the reservation.  Once the client has
    reconnected and stored another key, every used chunk holds a linked
    item."""
    cluster = Cluster(CLUSTER_A, n_client_nodes=1)
    cluster.start_server()
    client = cluster.client("UCR-IB")
    store = cluster.server.store
    entry = cluster.runtimes["server"].handler_for(ucrp.MSG_MC_REQUEST)
    reserve = entry.header_handler

    def reserve_then_fail(ep, header, data_length):
        entry.header_handler = reserve
        dest = reserve(ep, header, data_length)
        assert header.cmd.reserved_item is not None
        if fail_after_us is None:
            ep.fail("endpoint failed before the READ was posted")
        else:
            fail = cluster.sim.timeout(fail_after_us)
            fail.callbacks.append(lambda _ev: ep.fail("endpoint failed mid-READ"))
        return dest

    entry.header_handler = reserve_then_fail

    def scenario():
        try:
            yield from client.set("lost", b"x" * 16_384)
        except ServerDownError:
            pass
        assert (yield from client.set("kept", b"y" * 16_384)) is True

    run(cluster, scenario())
    used = sum(c.total_chunks - len(c.free_chunks) for c in store.slabs.classes)
    assert used == len(store.by_key) == 1
    assert SlabSanitizer(strict=False).check(store) == []
