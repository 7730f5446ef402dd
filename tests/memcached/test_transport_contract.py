"""What the client asks of a transport, and what it refuses to send."""

import pytest

from repro.cluster import CLUSTER_A, Cluster
from repro.memcached import protocol_ucr as ucrp
from repro.memcached.command import Command
from repro.memcached.errors import ClientError, ServerDownError

#: config -> cluster.client() arguments
CONFIGS = {
    "UCR-IB": ("UCR-IB", {}),
    "UCR-1S": ("UCR-1S", {}),
    "IPoIB/text": ("IPoIB", {"binary": False}),
    "IPoIB/bin": ("IPoIB", {"binary": True}),
}

ENTRIES = {
    "call": lambda client, cmd: client.call(cmd),
    "pipeline": lambda client, cmd: client.pipeline(
        [Command("get", keys=["other"]), cmd]
    ),
}


def live_link(transport):
    """The transport's endpoint (UCR) or socket (sockets) to the server,
    checked to be up."""
    if hasattr(transport, "_endpoints"):
        ep = transport._endpoints["server"]
        assert not ep.failed
        return ep
    conn = transport._conns["server"]
    assert conn.connected
    return conn.sock


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("config", CONFIGS)
def test_noreply_is_refused_before_anything_is_sent(config, entry):
    """A noreply command gets no reply, so a client that waits for one
    would hang (sockets) or time out and fail a healthy endpoint (UCR).
    It raises at once instead, and the link keeps serving."""
    cluster = Cluster(CLUSTER_A, n_client_nodes=1)
    cluster.start_server()
    name, kwargs = CONFIGS[config]
    client = cluster.client(name, **kwargs)
    noreply_set = Command("set", keys=["k"], value=b"new", noreply=True)

    def scenario():
        yield from client.set("k", b"old")
        link = live_link(client.transport)
        start = cluster.sim.now
        with pytest.raises(ClientError, match="noreply"):
            yield from ENTRIES[entry](client, noreply_set)
        refused_after = cluster.sim.now - start
        got = yield from client.get("k")
        return refused_after, link, got

    p = cluster.sim.process(scenario())
    cluster.sim.run()
    assert p.processed
    refused_after, link, got = p.value
    assert refused_after == 0
    assert got == b"old"  # nothing was sent
    assert live_link(client.transport) is link  # no reconnect


@pytest.mark.parametrize("transport", ["UCR-IB", "UCR-1S"])
def test_constructing_a_transport_creates_no_counter(transport):
    """Response counters come out of the per-request pool."""
    cluster = Cluster(CLUSTER_A, n_client_nodes=1)
    cluster.start_server()
    runtime = cluster.runtimes["client0"]
    before = dict(runtime._counters)
    cluster.client(transport)
    assert runtime._counters == before


def test_a_late_response_does_not_wake_the_next_call():
    """Each response's handling is held up 300 us on the client (its host
    descheduled mid-handler), past the first call's 100 us deadline.  That
    call fails; its response then bumps the counter it waited on.  The
    next call, given time to finish, must be woken by its own response
    only -- so the failed call's counter is destroyed, not pooled: its
    id no longer resolves, and the late response bumps nothing and is
    not kept for a call that will never take it."""
    cluster = Cluster(CLUSTER_A, n_client_nodes=1)
    cluster.start_server()
    client = cluster.client("UCR-IB", timeout_us=100.0)
    transport = client.transport
    sim = cluster.sim
    entry = transport.runtime.handler_for(ucrp.MSG_MC_RESPONSE)
    deliver = entry.completion_handler

    def descheduled(ep, header, data):
        yield sim.timeout(300.0)
        yield from deliver(ep, header, data)

    def scenario():
        yield from client.set("k", b"v")
        entry.completion_handler = descheduled
        failing = transport._counter_pool[-1]
        bumps = failing.value
        with pytest.raises(ServerDownError, match="after 100.0"):
            yield from client.get("k")
        late = sim.now
        transport.timeout_us = 1000.0
        got = yield from client.get("k")
        return failing, bumps, late, sim.now, got

    p = cluster.sim.process(scenario())
    cluster.sim.run()
    failing, bumps, late, done, got = p.value
    assert transport.runtime.counter_by_id(failing.counter_id) is None
    assert failing not in transport._counter_pool
    assert failing.value == bumps  # the late response found no counter to bump
    assert transport._pending == {}  # nor a call to take it: it was dropped
    assert got == b"v"
    assert done - late > 300.0  # the second response's own handling
