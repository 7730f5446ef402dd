"""GutterRouter: routing contract, absorption accounting, TTL clamp."""

import pytest

from repro.cluster import CLUSTER_B, Cluster
from repro.cluster.router import HashRing
from repro.memcached.client import FailoverPolicy
from repro.memcached.command import Command
from repro.memcached.serving import GutterRouter


def make_router(**kwargs):
    primary = HashRing(["server0", "server1", "server2"])
    gutter = HashRing(["server3"])
    return GutterRouter(primary, gutter, **kwargs)


def test_rings_must_not_overlap():
    shared = HashRing(["server0", "server1"])
    with pytest.raises(ValueError, match="both rings"):
        GutterRouter(shared, HashRing(["server1", "server2"]))


def test_gutter_ttl_must_be_positive():
    with pytest.raises(ValueError):
        make_router(gutter_ttl_s=0)


def test_servers_lists_primaries_then_gutter():
    router = make_router()
    assert router.servers == ["server0", "server1", "server2", "server3"]
    assert router.is_gutter("server3")
    assert not router.is_gutter("server0")
    assert "server3" in router and "server0" in router and "nope" not in router


def test_steady_state_routes_to_the_natural_owner():
    """With nothing avoided the router is indistinguishable from the
    primary ring: gutter keys never leak into (or out of) it."""
    router = make_router()
    for i in range(300):
        key = f"gk-{i}"
        owner = router.server_for(key)
        assert owner == router.primary.server_for(key)
        assert not router.is_gutter(owner)
    assert router.absorbed == 0


def test_avoided_owner_diverts_to_the_gutter_ring():
    router = make_router()
    victim = "server1"
    diverted = 0
    for i in range(300):
        key = f"gk-{i}"
        owner = router.primary.server_for(key)
        routed = router.server_for(key, avoid={victim})
        if owner == victim:
            assert routed == "server3"  # never a surviving primary
            diverted += 1
        else:
            assert routed == owner  # unaffected keys do not migrate
    assert diverted > 0
    assert router.absorbed == diverted


def test_remove_server_dispatches_to_the_owning_ring():
    router = make_router()
    router.remove_server("server2")
    assert router.primary.servers == ["server0", "server1"]
    assert router.gutter.servers == ["server3"]


def test_gutter_bound_writes_are_ttl_clamped_end_to_end():
    """Crash a primary shard: the client ejects it, the set diverts to
    the gutter server, and the stored item carries the clamped expiry
    even though the caller asked for an immortal key -- blocking and
    pipelined writes alike (one route helper), on a copy of the command
    so the caller's (and a retry toward a primary) keeps its exptime."""
    cluster = Cluster(CLUSTER_B, n_client_nodes=1, n_servers=4)
    cluster.start_server()
    client = cluster.sharded_client(
        "UCR-IB",
        timeout_us=3000.0,
        policy=FailoverPolicy(eject_threshold=1, rejoin_after_us=1e9),
        ring=GutterRouter.reserving_last(cluster.server_names, 1, gutter_ttl_s=5.0),
    )
    gutter_server = cluster.server_names[-1]
    victim = next(
        s for s in cluster.server_names[:-1]
        if any(
            client.distribution.primary.server_for(f"gt-{i}") == s
            for i in range(50)
        )
    )
    vkeys = [
        f"gt-{i}" for i in range(50)
        if client.distribution.primary.server_for(f"gt-{i}") == victim
    ]

    def scenario():
        cluster.ucr_ports[victim].crash()
        # First op burns the retry budget and ejects the victim; the
        # retries already divert, and every later op goes straight in.
        for k in vkeys[:3]:
            yield from client.set(k, b"v", exptime=0)
        yield from client.call(own)
        return (yield from client.pipeline(piped))

    own = Command(op="add", keys=[vkeys[3]], value=b"v", exptime=0)
    piped = [
        Command(op="set", keys=[vkeys[4]], value=b"v", exptime=0),
        Command(op="add", keys=[vkeys[5]], value=b"v", exptime=3600),
    ]
    p = cluster.sim.process(scenario())
    cluster.sim.run()
    assert p.processed and p.value == [True, True]
    assert [c.exptime for c in [own] + piped] == [0, 0, 3600]
    assert client.distribution.absorbed > 0
    store = cluster.servers[gutter_server].store
    now_s = cluster.sim.now / 1e6
    for k in vkeys[:6]:
        item = store.get(k)
        assert item is not None, f"{k} never reached the gutter"
        # exptime=0 would be immortal; the clamp makes it die within
        # gutter_ttl_s of the write.
        assert 0 < item.exptime <= now_s + 5.0
