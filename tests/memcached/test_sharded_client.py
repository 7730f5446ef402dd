"""The sharded client: ring routing, failover, ejection/rejoin, timeouts."""

import dataclasses

import pytest

from repro.check.history import recorder
from repro.cluster import CLUSTER_A, CLUSTER_B, Cluster
from repro.cluster.router import HashRing
from repro.memcached.client import FailoverPolicy
from repro.memcached.errors import ServerDownError


def pool(n_servers=3, n_clients=1, **cluster_kwargs):
    cluster = Cluster(
        CLUSTER_B, n_client_nodes=n_clients, n_servers=n_servers, **cluster_kwargs
    )
    cluster.start_server()
    return cluster


def run(cluster, gen):
    p = cluster.sim.process(gen)
    cluster.sim.run()
    assert p.processed
    return p.value


def keys_owned_by(client, server, n=200, prefix="sk"):
    return [
        f"{prefix}-{i}"
        for i in range(n)
        if client.distribution.server_for(f"{prefix}-{i}") == server
    ]


def yield_from_all(helpers):
    """Process body running process helpers back to back."""
    for helper in helpers:
        yield from helper


def test_sharded_client_basic_round_trip():
    cluster = pool()
    client = cluster.sharded_client("UCR-IB")
    assert isinstance(client.distribution, HashRing)
    assert client.distribution.servers == cluster.server_names

    def scenario():
        for i in range(30):
            yield from client.set(f"rt-{i}", f"v{i}".encode())
        out = []
        for i in range(30):
            out.append((yield from client.get(f"rt-{i}")))
        return out

    out = run(cluster, scenario())
    assert out == [f"v{i}".encode() for i in range(30)]
    assert client.failovers == 0
    # Keys landed on the shards the ring says they should.
    for i in range(30):
        owner = client.distribution.server_for(f"rt-{i}")
        assert cluster.servers[owner].store.get(f"rt-{i}") is not None


def test_failover_reroutes_to_surviving_shards():
    cluster = pool()
    client = cluster.sharded_client(
        "UCR-IB",
        timeout_us=3000.0,
        policy=FailoverPolicy(eject_threshold=1, rejoin_after_us=1e9),
    )
    victim = "server1"

    def scenario():
        vkeys = keys_owned_by(client, victim)[:5]
        for k in vkeys:
            yield from client.set(k, b"v")
        cluster.ucr_ports[victim].crash()
        # First op eats the timeout, then reroutes; later ops route
        # around the ejected shard immediately.
        for k in vkeys:
            got = yield from client.get(k)
            assert got is None  # rerouted shard never saw the key
        yield from client.set(vkeys[0], b"w")
        return (yield from client.get(vkeys[0]))

    assert run(cluster, scenario()) == b"w"
    assert client.failovers == 1
    assert client.gave_up == 0
    assert client.ejected_servers() == frozenset({victim})
    failures, ejected_until, ejections = client.shard_health(victim)
    assert ejections == 1 and ejected_until is not None


def test_processes_sharing_a_client_keep_their_own_attribution():
    """Two processes on one UCR client (re-entrant by design), each on
    keys of a different shard: an op's target shard is a local of the
    op, so records and health accounting never cross over."""
    cluster = pool(n_servers=2)
    client = cluster.sharded_client(
        "UCR-IB",
        timeout_us=2000.0,
        policy=FailoverPolicy(eject_threshold=1, rejoin_after_us=1e9),
    )
    keys = {s: keys_owned_by(client, s)[:20] for s in cluster.server_names}
    victim, bystander = cluster.server_names

    def worker(server):
        for k in keys[server]:
            yield from client.set(k, b"v")
            yield from client.get(k)

    def storm():
        workers = [cluster.sim.process(worker(s)) for s in keys]
        for w in workers:
            yield w
        cluster.ucr_ports[victim].crash()
        # The victim's op sits in its timeout while the bystander's
        # shard keeps answering on the same client.
        doomed = cluster.sim.process(client.get(keys[victim][0]))
        for k in keys[bystander]:
            yield from client.get(k)
        yield doomed

    with recorder.recording():
        run(cluster, storm())
        records = list(recorder.records)
    owner = {k: s for s, ks in keys.items() for k in ks}
    assert len(records) == 80 + 20 + 2  # the doomed get: lost, then rerouted
    lost = [r for r in records if r.status == "lost"]
    assert [(r.key, r.server) for r in lost] == [(keys[victim][0], victim)]
    for r in records:
        if r.status == "complete" and r is not records[-1]:
            assert r.server == owner[r.key], r
    assert client.shard_health(victim)[2] == 1
    assert client.shard_health(bystander) == (0, None, 0)


def test_eject_threshold_counts_consecutive_failures():
    cluster = pool()
    policy = FailoverPolicy(eject_threshold=3, rejoin_after_us=1e9)
    client = cluster.sharded_client("UCR-IB", timeout_us=2000.0, policy=policy)
    victim = "server2"

    def scenario():
        vkeys = keys_owned_by(client, victim)
        yield from client.set(vkeys[0], b"v")
        cluster.ucr_ports[victim].crash()
        yield from client.get(vkeys[0])

    run(cluster, scenario())
    # One op, three timeouts against the victim before ejection kicked
    # in and the fourth attempt rerouted.
    failures, ejected_until, ejections = client.shard_health(victim)
    assert failures == 3
    assert ejections == 1
    assert client.failovers == 1


def test_ejected_shard_rejoins_and_recovers():
    cluster = pool()
    client = cluster.sharded_client(
        "UCR-IB",
        timeout_us=2000.0,
        policy=FailoverPolicy(eject_threshold=1, rejoin_after_us=20_000.0),
    )
    victim = "server0"
    sim = cluster.sim

    def scenario():
        vkeys = keys_owned_by(client, victim)
        yield from client.set(vkeys[0], b"v")
        cluster.ucr_ports[victim].crash()
        yield from client.get(vkeys[0])  # timeout -> eject
        assert client.ejected_servers() == frozenset({victim})
        cluster.ucr_ports[victim].recover()
        yield sim.timeout(25_000)  # past the rejoin deadline
        assert client.ejected_servers() == frozenset()
        # Probe op routes back to the recovered shard and succeeds
        # (warm store: the value survived the network-personality crash).
        got = yield from client.get(vkeys[0])
        assert got == b"v"

    run(cluster, scenario())
    failures, ejected_until, ejections = client.shard_health(victim)
    assert failures == 0 and ejected_until is None


def test_exhausted_retries_give_up():
    cluster = pool(n_servers=1)
    policy = FailoverPolicy(
        max_retries=2, backoff_base_us=50.0, eject_threshold=10
    )
    client = cluster.sharded_client("UCR-IB", timeout_us=1000.0, policy=policy)

    def scenario():
        yield from client.set("k", b"v")
        cluster.ucr_ports["server"].crash()
        t0 = cluster.sim.now
        with pytest.raises(ServerDownError):
            yield from client.get("k")
        return cluster.sim.now - t0

    elapsed = run(cluster, scenario())
    assert client.gave_up == 1
    # First attempt eats the full ~1000 µs timeout; the retries fail
    # fast (the dead listener refuses the reconnect) but still pay the
    # 50 and 100 µs backoffs.
    assert elapsed >= 1000.0 + 50.0 + 100.0
    assert elapsed < 3000.0


def test_backoff_sequence_is_exponential():
    policy = FailoverPolicy(backoff_base_us=100.0, backoff_multiplier=2.0)
    assert [policy.backoff_us(a) for a in range(4)] == [100.0, 200.0, 400.0, 800.0]
    with pytest.raises(ValueError):
        FailoverPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        FailoverPolicy(eject_threshold=0)


def test_fail_open_when_every_shard_is_ejected():
    cluster = pool(n_servers=2)
    client = cluster.sharded_client(
        "UCR-IB",
        timeout_us=1500.0,
        policy=FailoverPolicy(
            max_retries=5, eject_threshold=1, rejoin_after_us=1e9
        ),
    )

    def scenario():
        yield from client.set("fo", b"v")
        for port in cluster.ucr_ports.values():
            port.crash()
        with pytest.raises(ServerDownError):
            yield from client.get("fo")
        assert client.ejected_servers() == frozenset(cluster.server_names)
        # Both shards ejected: routing falls back to the natural owner
        # instead of refusing -- and succeeds once that shard recovers.
        for port in cluster.ucr_ports.values():
            port.recover()
        got = yield from client.get("fo")
        assert got == b"v"

    run(cluster, scenario())


def test_get_multi_keeps_base_semantics():
    cluster = pool()
    client = cluster.sharded_client("UCR-IB")

    def scenario():
        for i in range(12):
            yield from client.set(f"mg-{i}", f"{i}".encode())
        return (yield from client.get_multi([f"mg-{i}" for i in range(12)]))

    out = run(cluster, scenario())
    assert out == {f"mg-{i}": f"{i}".encode() for i in range(12)}


def test_get_multi_with_two_dead_shards_fails_legibly():
    """Two of three shards dead: every group settles before the mget
    raises, so no group process fails unwaited and every key's record
    is closed -- lost on the dead shards, complete on the live one."""
    cluster = Cluster(CLUSTER_A, n_client_nodes=1, n_servers=3)
    cluster.start_server()
    client = cluster.sharded_client("UCR-IB")
    keys = [f"mg-{i}" for i in range(12)]
    run(cluster, yield_from_all(client.set(k, b"v") for k in keys))
    owner = {k: client.distribution.server_for(k) for k in keys}
    dead = {"server0", "server1"}
    assert set(owner.values()) == set(cluster.server_names)
    for name in dead:
        cluster.ucr_ports[name].crash()

    def scenario():
        t0 = cluster.sim.now
        with pytest.raises(ServerDownError):
            yield from client.get_multi(keys)
        return t0, cluster.sim.now

    with recorder.recording():
        t0, t1 = run(cluster, scenario())
        records = list(recorder.records)
    # Both dead groups ran their full timeout, side by side.
    timeout = client.transport.timeout_us
    assert timeout <= t1 - t0 < 2 * timeout
    assert sorted(r.key for r in records) == sorted(keys)
    for r in records:
        assert r.status == ("lost" if owner[r.key] in dead else "complete"), r
        assert r.server == owner[r.key]
        if r.status == "complete":  # with the batch, not with its group
            assert r.completed_us - t0 >= timeout


def test_get_multi_feeds_the_shard_health_ledger():
    """One failed group of at least ``eject_threshold`` keys ejects its
    shard; the next mget routes around it and returns without raising."""
    cluster = pool(n_servers=2)
    client = cluster.sharded_client(
        "UCR-IB", timeout_us=2000.0,
        policy=FailoverPolicy(eject_threshold=2, rejoin_after_us=1e9),
    )
    victim, survivor = cluster.server_names
    vkeys = keys_owned_by(client, victim)[:4]
    skeys = keys_owned_by(client, survivor)[:2]
    keys = vkeys + skeys
    run(cluster, yield_from_all(client.set(k, b"v") for k in keys))
    cluster.ucr_ports[victim].crash()

    def scenario():
        with pytest.raises(ServerDownError):
            yield from client.get_multi(keys)
        assert client.shard_health(victim)[0::2] == (len(vkeys), 1)
        later = []
        for _ in range(3):
            later.append((yield from client.get_multi(keys)))
        return later

    for got in run(cluster, scenario()):
        assert got == {k: b"v" for k in skeys}
    assert client.ejected_servers() == frozenset({victim})
    assert client.shard_health(victim)[2] == 1


# -- timeout plumbing (spec -> builder -> transport) -------------------------


def test_spec_timeout_reaches_the_transport():
    assert CLUSTER_B.client_timeout_us == 1_000_000.0
    cluster = pool()
    assert cluster.client("UCR-IB").transport.timeout_us == 1_000_000.0

    fast_spec = dataclasses.replace(CLUSTER_B, client_timeout_us=2_500.0)
    fast = Cluster(fast_spec, n_client_nodes=1, n_servers=2)
    fast.start_server()
    assert fast.client("UCR-IB").transport.timeout_us == 2_500.0
    assert fast.sharded_client("UCR-IB").transport.timeout_us == 2_500.0
    # An explicit per-client override still wins over the spec.
    assert fast.client("UCR-IB", timeout_us=7_000.0).transport.timeout_us == 7_000.0


def test_non_default_timeout_changes_failure_detection_latency():
    spec = dataclasses.replace(CLUSTER_B, client_timeout_us=1_500.0)
    cluster = Cluster(spec, n_client_nodes=1, n_servers=2)
    cluster.start_server()
    client = cluster.client("UCR-IB")

    server = client.distribution.server_for("t")

    def scenario():
        yield from client.set("t", b"v")
        cluster.ucr_ports[server].crash()
        t0 = cluster.sim.now
        with pytest.raises(ServerDownError):
            yield from client.get("t")
        return cluster.sim.now - t0

    elapsed = run(cluster, scenario())
    # Detection is governed by the spec timeout, not the old hardcoded
    # 1-second default.
    assert 1_500.0 <= elapsed < 10_000.0
    # No policy: one attempt, and the loss feeds no shard-health ledger.
    assert client.gave_up == 1
    assert client.shard_health(server) == (0, None, 0)
    assert client.ejected_servers() == frozenset()
    with pytest.raises(ValueError, match="unknown distribution"):
        cluster.client("UCR-IB", distribution="random")


def test_sharded_client_vnodes_parameter():
    cluster = pool(n_servers=4)
    client = cluster.sharded_client(
        "UCR-IB", ring=HashRing(cluster.server_names, vnodes=10)
    )
    assert client.distribution.vnodes == 10
    assert len(client.distribution) == 40  # 4 servers x 10 points
    default = cluster.sharded_client("UCR-IB", client_node=0)
    assert len(default.distribution) == 4 * 100


def test_hash_ring_satisfies_distribution_protocol():
    ring = HashRing(["server0", "server1"])
    assert ring.server_for("x") in ring.servers
    ring.remove_server("server1")
    assert ring.servers == ["server0"]
