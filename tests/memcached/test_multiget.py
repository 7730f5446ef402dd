"""Parallel multi-get fan-out across a server pool."""

import pytest

from repro.cluster import CLUSTER_B, Cluster


@pytest.fixture(scope="module")
def pool():
    cluster = Cluster(CLUSTER_B, n_client_nodes=1, n_servers=4)
    cluster.start_server()
    return cluster


def run(cluster, gen):
    p = cluster.sim.process(gen)
    cluster.sim.run()
    assert p.processed
    return p.value


def test_mget_collects_from_all_servers(pool):
    client = pool.client("UCR-IB")
    keys = [f"pmg-{i}" for i in range(32)]

    def scenario():
        for k in keys:
            yield from client.set(k, k.encode())
        got = yield from client.get_multi(keys + ["pmg-missing"])
        return got

    got = run(pool, scenario())
    assert got == {k: k.encode() for k in keys}
    servers = {client.distribution.server_for(k) for k in keys}
    assert len(servers) == 4  # the fan-out really spanned the pool


def test_parallel_mget_faster_than_sequential_gets(pool):
    client = pool.client("UCR-IB")
    keys = [f"seq-{i}" for i in range(24)]

    def scenario():
        for k in keys:
            yield from client.set(k, bytes(64))
        t0 = pool.sim.now
        for k in keys:
            yield from client.get(k)
        sequential = pool.sim.now - t0
        t0 = pool.sim.now
        got = yield from client.get_multi(keys)
        batched = pool.sim.now - t0
        return sequential, batched, len(got)

    sequential, batched, hits = run(pool, scenario())
    assert hits == 24
    # One batched round per server, rounds overlapping across servers,
    # versus 24 sequential round trips.
    assert batched < sequential / 3


def test_parallel_groups_overlap_in_time(pool):
    """With 4 servers the batch should cost ~one group, not four."""
    client = pool.client("UCR-IB")
    keys = [f"ovl-{i}" for i in range(40)]

    def scenario():
        for k in keys:
            yield from client.set(k, bytes(64))
        # One server's group alone:
        by_server = {}
        for k in keys:
            by_server.setdefault(client.distribution.server_for(k), []).append(k)
        one_group = max(by_server.values(), key=len)
        t0 = pool.sim.now
        yield from client.get_multi(one_group)
        single = pool.sim.now - t0
        t0 = pool.sim.now
        yield from client.get_multi(keys)
        full = pool.sim.now - t0
        return single, full

    single, full = run(pool, scenario())
    assert full < single * 2.5  # parallel, not 4x sequential


def test_mget_sockets_transport_parallel(pool):
    client = pool.client("SDP")
    keys = [f"smg-{i}" for i in range(16)]

    def scenario():
        for k in keys:
            yield from client.set(k, k.encode())
        return (yield from client.get_multi(keys))

    got = run(pool, scenario())
    assert got == {k: k.encode() for k in keys}


def test_concurrent_ucr_requests_route_by_request_id(pool):
    """Two processes share one UCR client without crosstalk."""
    client = pool.client("UCR-IB")
    results = {}

    def seed():
        yield from client.set("rid-a", b"alpha")
        yield from client.set("rid-b", b"beta")

    run(pool, seed())

    def reader(key, tag):
        for _ in range(10):
            got = yield from client.get(key)
            assert got is not None
            results.setdefault(tag, []).append(got)

    pool.sim.process(reader("rid-a", "a"))
    pool.sim.process(reader("rid-b", "b"))
    pool.sim.run()
    assert set(results["a"]) == {b"alpha"}
    assert set(results["b"]) == {b"beta"}
