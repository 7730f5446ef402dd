"""The client matrix that used to be four classes, as one table.

Every public keyed op on every client flavour goes through
``MemcachedClient.call``: exactly one history record and one
``client.<op>`` root span per attempt, whatever sits underneath (ring,
failover policy, one-sided ladder, hot cache, gutter).
"""

import pytest

from repro.check.history import CHECKABLE_OPS, check_history, recorder
from repro.cluster import CLUSTER_A, Cluster
from repro.memcached.client import FailoverPolicy, MemcachedClient
from repro.memcached.command import Command
from repro.memcached.errors import ServerDownError
from repro.memcached.serving import GutterRouter, ProbabilisticHotCache
from repro.telemetry import tracer, tracing

CLIENTS = {
    "plain": lambda c: c.client("UCR-IB"),
    "sharded": lambda c: c.sharded_client("UCR-IB"),
    "UCR-1S": lambda c: c.client("UCR-1S"),
    "UCR-1S sharded": lambda c: c.sharded_client("UCR-1S"),
    "sharded + hot cache + gutter": lambda c: c.sharded_client(
        "UCR-IB", ring=GutterRouter.reserving_last(c.server_names, 1),
        hot_cache=ProbabilisticHotCache(seed=1, admission_rate=1.0),
    ),
}

#: method -> (call, recorded op, root span)
OPS = {
    "set": (lambda c: c.set("k", b"2"), "set", "client.set"),
    "add": (lambda c: c.add("fresh", b"2"), "add", "client.add"),
    "replace": (lambda c: c.replace("k", b"2"), "replace", "client.replace"),
    "append": (lambda c: c.append("k", b"2"), "append", "client.append"),
    "prepend": (lambda c: c.prepend("k", b"2"), "prepend", "client.prepend"),
    "cas": (lambda c: c.cas("k", b"2", 1), "cas", "client.cas"),
    "get": (lambda c: c.get("k"), "get", "client.get"),
    "gets": (lambda c: c.gets("k"), "gets", "client.gets"),
    "get_lease": (lambda c: c.get_lease("k"), "get", "client.getl"),
    "set_with_lease": (lambda c: c.set_with_lease("k", b"2", 9), "set", "client.set"),
    "delete": (lambda c: c.delete("k"), "delete", "client.delete"),
    "incr": (lambda c: c.incr("k", 2), "incr", "client.incr"),
    "decr": (lambda c: c.decr("k", 2), "decr", "client.decr"),
    "touch": (lambda c: c.touch("k", 5), "touch", "client.touch"),
}


def deploy(flavour):
    cluster = Cluster(CLUSTER_A, n_client_nodes=1, n_servers=3)
    cluster.start_server()
    return cluster, CLIENTS[flavour](cluster)


def observe(cluster, gen):
    """Run *gen* recorded and traced: (value, records, client root spans)."""
    with recorder.recording(), tracing():
        p = cluster.sim.process(gen)
        cluster.sim.run()
        assert p.processed
        roots = [
            s.name for s in tracer.finished_spans()
            if s.parent_id is None and s.layer == "client"
        ]
        return p.value, list(recorder.records), roots


def test_the_op_table_is_the_public_surface():
    keyed = {
        name for name, fn in vars(MemcachedClient).items()
        if callable(fn) and not name.startswith("_")
    } - {"call", "get_multi", "pipeline", "flush_all", "stats",
         "ejected_servers", "shard_health"}
    assert keyed == set(OPS)


@pytest.mark.parametrize("method", OPS)
@pytest.mark.parametrize("flavour", CLIENTS)
def test_one_record_and_one_root_span_per_op(flavour, method):
    cluster, client = deploy(flavour)
    op, recorded_as, root = OPS[method]
    cluster.sim.process(client.set("k", b"1"))
    cluster.sim.run()
    _, records, roots = observe(cluster, op(client))
    assert [(r.op, r.status) for r in records] == [(recorded_as, "complete")]
    assert records[0].server == client._server_for(records[0].key)
    assert roots == [root]


@pytest.mark.parametrize("flavour", [f for f in CLIENTS if "sharded" in f])
def test_each_failover_attempt_is_its_own_record_and_span(flavour):
    cluster = Cluster(CLUSTER_A, n_client_nodes=1, n_servers=3)
    cluster.start_server()
    transport = "UCR-1S" if "1S" in flavour else "UCR-IB"
    client = cluster.sharded_client(
        transport, timeout_us=2000.0,
        policy=FailoverPolicy(eject_threshold=2, rejoin_after_us=1e9),
    )
    victim = client._server_for("k")
    cluster.ucr_ports[victim].crash()
    _, records, roots = observe(cluster, client.get("k"))
    assert [r.status for r in records] == ["lost", "lost", "complete"]
    assert [r.server == victim for r in records] == [True, True, False]
    assert roots == ["client.get"] * 3
    assert (client.failovers, client.gave_up) == (1, 0)


def test_hot_cache_hit_is_one_annotated_record_and_no_span():
    cluster, client = deploy("sharded + hot cache + gutter")

    def warm():
        yield from client.set("k", b"1")
        yield from client.get("k")  # wire read, admitted

    cluster.sim.process(warm())
    cluster.sim.run()
    value, records, roots = observe(cluster, client.get_lease("k"))
    assert value == b"1" and roots == []
    assert [(r.op, r.server, r.annotations) for r in records] == [
        ("get", "hot-cache", ("cached",))
    ]


@pytest.mark.parametrize("lost", [False, True], ids=["served", "second-server-lost"])
def test_flush_all_empties_the_hot_cache_and_settles_one_record(lost):
    """``flush_all`` drops the hot cache before it reaches a server, then
    flushes the pool in order under one record and one root span: the
    record completes, or -- the pool's second server down -- is lost
    against that server and ``ServerDownError`` is re-raised.  The flush
    is outside the checker's surface; the keyed history around it checks."""
    cluster = Cluster(CLUSTER_A, n_client_nodes=1, n_servers=2)
    cluster.start_server()
    client = cluster.sharded_client(
        "UCR-IB", timeout_us=2000.0,
        hot_cache=ProbabilisticHotCache(seed=1, admission_rate=1.0),
    )
    second = client.distribution.servers[1]

    def scenario():
        yield from client.set("k", b"1")
        yield from client.get("k")  # wire read, admitted
        assert len(client.hot_cache) == 1
        if lost:
            cluster.ucr_ports[second].crash()
        try:
            yield from client.flush_all()
        except ServerDownError as exc:
            return exc

    raised, records, roots = observe(cluster, scenario())
    assert len(client.hot_cache) == 0
    assert isinstance(raised, ServerDownError) == lost
    flush = records[-1]
    assert (flush.op, flush.status, flush.server) == (
        ("flush_all", "lost", second) if lost else ("flush_all", "complete", None)
    )
    assert roots == ["client.set", "client.get", "client.flush_all"]
    assert check_history(r for r in records if r.op in CHECKABLE_OPS).ok


@pytest.mark.parametrize("flavour", ["UCR-1S", "UCR-1S sharded"])
def test_batches_ride_active_messages_on_the_onesided_transport(flavour):
    """A multi-key get is one active message per server group; every
    single-key read the transport is handed -- a blocking get, each
    command of a depth-1 pipeline or of a window, a one-key mget group
    -- takes the one-sided ladder: one READ, as the own set's entry is
    remembered."""
    cluster, client = deploy(flavour)
    t = client.transport
    keys = ("a", "b", "c")
    a, b, c = (client.distribution.server_for(key) for key in keys)
    assert a != b == c  # the mget: a one-key group and a two-key AM

    def scenario():
        for key in keys:
            yield from client.set(key, b"v")
        yield from client.get("a")
        reads = [t.onesided_reads]
        multi = yield from client.get_multi(list(keys))
        reads.append(t.onesided_reads)
        gets = [Command(op="get", keys=[k]) for k in keys]
        piped = yield from client.pipeline(gets)
        reads.append(t.onesided_reads)
        windowed = yield from client.pipeline(gets, depth=4)  # ``execute_many``
        reads.append(t.onesided_reads)
        return reads, multi, piped, windowed

    (reads, multi, piped, windowed), records, roots = observe(cluster, scenario())
    assert multi == {"a": b"v", "b": b"v", "c": b"v"}
    assert piped == windowed == [b"v"] * 3
    assert reads == [1, 2, 5, 8]
    assert t.remembered_hits == 8
    assert len(records) == 3 + 1 + 3 + 3 + 3
    assert roots == ["client.set"] * 3 + [
        "client.get", "client.get_multi", "client.pipeline", "client.pipeline"
    ]
