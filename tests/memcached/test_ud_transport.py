"""UD (connection-less) client transport: the paper's §VII extension."""

import pytest

from repro.cluster import CLUSTER_B, Cluster
from repro.memcached.errors import ClientError, ServerDownError
from repro.memcached.slabs import PAGE_BYTES
from repro.memcached.store import StoreConfig


@pytest.fixture(scope="module")
def cluster():
    c = Cluster(CLUSTER_B, n_client_nodes=3)
    c.start_server()
    return c


def run(cluster, gen):
    p = cluster.sim.process(gen)
    cluster.sim.run()
    assert p.processed
    return p.value


def test_ud_set_get_roundtrip(cluster):
    client = cluster.client("UCR-UD")

    def scenario():
        ok = yield from client.set("udk", b"ud-value")
        got = yield from client.get("udk")
        miss = yield from client.get("udk-missing")
        return ok, got, miss

    ok, got, miss = run(cluster, scenario())
    assert ok is True
    assert got == b"ud-value"
    assert miss is None


def test_ud_no_connection_establishment(cluster):
    """UD clients never run the CM handshake (that's the point)."""
    client = cluster.client("UCR-UD", client_node=1)
    assert client.transport._endpoints == {}  # no RC endpoints, ever

    def scenario():
        yield from client.set("ud-conn", b"x")
        return True

    assert run(cluster, scenario()) is True
    assert client.transport._endpoints == {}


def test_ud_counter_ops_and_delete(cluster):
    client = cluster.client("UCR-UD")

    def scenario():
        yield from client.set("udn", b"10")
        a = yield from client.incr("udn", 5)
        b = yield from client.decr("udn", 3)
        d = yield from client.delete("udn")
        return a, b, d

    assert run(cluster, scenario()) == (15, 12, True)


def test_ud_retransmission_recovers_from_drops(cluster):
    """Overflow the server's UD receive window: drops happen, retries win."""
    client = cluster.client("UCR-UD", client_node=2)
    transport = client.transport
    server_ud = next(iter(transport._server_uds.values()))

    def scenario():
        yield from client.set("udr", b"resilient")
        # Drain the server's posted receives so the next datagrams drop.
        stolen = []
        while server_ud.qp.recv_queue_depth > 0:
            stolen.append(server_ud.qp._recv_queue.popleft())
        # Repost after a while (the progress engine normally keeps them up).
        def repost_later():
            yield cluster.sim.timeout(2_500.0)
            for rwr in stolen:
                server_ud.qp._recv_queue.append(rwr)
        cluster.sim.process(repost_later())
        got = yield from client.get("udr")  # first sends drop, retry lands
        return got

    assert run(cluster, scenario()) == b"resilient"


def test_ud_duplicate_suppression_keeps_incr_exact():
    """Force a response loss so the client retries an incr; the server's
    at-most-once cache must not double-apply."""
    cluster = Cluster(CLUSTER_B, n_client_nodes=1)
    cluster.start_server()
    client = cluster.client("UCR-UD")
    transport = client.transport

    def scenario():
        yield from client.set("dup", b"100")

        # Sabotage: make the client deaf for the first response by
        # draining its own UD receive queue once.
        stolen = []
        q = transport.local_ud.qp._recv_queue
        while q:
            stolen.append(q.popleft())

        def restore():
            yield cluster.sim.timeout(1_500.0)  # after the first timeout
            for rwr in stolen:
                q.append(rwr)

        cluster.sim.process(restore())
        value = yield from client.incr("dup", 7)
        return value

    value = run(cluster, scenario())
    assert value == 107  # applied exactly once despite the retransmit


def test_ud_dedup_cache_keeps_the_last_1024_responses():
    """The at-most-once cache is FIFO-bounded at 1 024 entries: a retry
    older than that would re-execute."""
    from repro.memcached.protocol_ucr import McRequest

    cluster = Cluster(CLUSTER_B, n_client_nodes=1)
    cluster.start_server()
    port = cluster.ucr_ports["server"]
    headers = [
        McRequest(op="incr", keys=["k"], reply_qpn=7, request_id=i)
        for i in range(1025)
    ]
    for i, header in enumerate(headers):
        port._dedup_store(header, ("response", i))
    assert port._dedup_lookup(headers[0]) is None
    assert port._dedup_lookup(headers[1]) == ("response", 1)
    assert port._dedup_lookup(headers[-1]) == ("response", 1024)


def test_ud_retransmitted_set_does_not_leak_a_slab_chunk():
    """A set whose first reply lands after the retry timeout arrives
    twice; the header handler reserves a chunk both times and the replay
    of the cached reply must give the second one back.  Used chunks must
    equal stored items exactly (the slab sanitizer tolerates extra used
    chunks as in-flight reservations, so it cannot see this leak)."""
    cluster = Cluster(CLUSTER_B, n_client_nodes=1)
    cluster.start_server(n_workers=4)
    client = cluster.client("UCR-UD")
    server_node = cluster.nodes["server"]
    store = cluster.servers["server"].store

    def scenario():
        server_node.cpu_scale = 400  # first reply lands after the timeout
        ok = yield from client.set("slow", bytes(100))
        server_node.cpu_scale = 1
        got = yield from client.get("slow")
        return ok, got

    assert run(cluster, scenario()) == (True, bytes(100))
    used = sum(c.total_chunks - len(c.free_chunks) for c in store.slabs.classes)
    assert (used, store.stats.curr_items) == (1, 1)


def test_ud_retransmit_that_cannot_reserve_replays_cleanly():
    """A retransmitted set whose header handler finds the slab class full
    reserved nothing: the replay must not abandon the first arrival's
    stored item (that would kill the server's progress engine)."""
    cluster = Cluster(CLUSTER_B, n_client_nodes=1)
    cluster.start_server(
        store_config=StoreConfig(max_bytes=PAGE_BYTES, evictions_enabled=False)
    )
    client = cluster.client("UCR-UD")
    server_node = cluster.nodes["server"]
    store = cluster.servers["server"].store
    # Fill the set's slab class (same key and value sizes) to one free
    # chunk: the first arrival takes it, the retransmit finds none.
    i = 0
    while True:
        chunks = store.set(f"f{i:03d}", bytes(100)).chunk.slab_class.free_chunks
        i += 1
        if len(chunks) == 1:
            break

    def scenario():
        server_node.cpu_scale = 400  # first reply lands after the timeout
        ok = yield from client.set("slow", bytes(100))
        server_node.cpu_scale = 1
        got = yield from client.get("slow")
        return ok, got

    assert run(cluster, scenario()) == (True, bytes(100))
    used = sum(c.total_chunks - len(c.free_chunks) for c in store.slabs.classes)
    assert used == store.stats.curr_items


def test_ud_large_value_rejected(cluster):
    """UD is eager-only; values beyond the threshold cannot ride it."""
    client = cluster.client("UCR-UD")

    def scenario():
        try:
            yield from client.set("udbig", bytes(64 * 1024))
        except Exception as exc:
            return type(exc).__name__

    assert run(cluster, scenario()) in ("EndpointClosed", "ServerDownError")


def test_ud_gives_up_after_max_retries():
    cluster = Cluster(CLUSTER_B, n_client_nodes=1)
    cluster.start_server()
    client = cluster.client("UCR-UD")
    transport = client.transport

    def scenario():
        yield from client.set("dead", b"x")
        # Permanently deafen the server's UD endpoint.
        server_ud = next(iter(transport._server_uds.values()))
        server_ud.qp._recv_queue.clear()
        server_ud.failed = True  # stop buffer reposts
        try:
            yield from client.get("dead")
        except ServerDownError:
            return "gave-up"

    assert run(cluster, scenario()) == "gave-up"


def test_ud_fire_and_forget_noreply(cluster):
    """fire() sends with noreply: no response, no counter wait."""
    client = cluster.client("UCR-UD", client_node=1)
    transport = client.transport
    from repro.memcached.protocol_ucr import McRequest

    def scenario():
        yield from transport.fire(
            "server",
            McRequest(op="set", keys=["fired"], value_length=3),
            b"fnf",
        )
        # Give the datagram time to land, then read back normally.
        yield cluster.sim.timeout(50.0)
        return (yield from client.get("fired"))

    p = cluster.sim.process(scenario())
    cluster.sim.run()
    assert p.value == b"fnf"


def test_ud_latency_competitive_with_rc(cluster):
    ud = cluster.client("UCR-UD", client_node=1)
    rc = cluster.client("UCR-IB", client_node=1)
    lat = {}

    def measure(tag, c):
        yield from c.set(f"cmp-{tag}", bytes(64))
        samples = []
        for _ in range(10):
            t0 = cluster.sim.now
            yield from c.get(f"cmp-{tag}")
            samples.append(cluster.sim.now - t0)
        samples.sort()
        lat[tag] = samples[len(samples) // 2]

    run(cluster, measure("ud", ud))
    run(cluster, measure("rc", rc))
    assert lat["ud"] == pytest.approx(lat["rc"], rel=0.3)
